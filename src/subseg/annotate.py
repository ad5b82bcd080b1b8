"""Sentences annotated with subtitle-break symbols, and their
reconstruction from subtitle documents.

An annotated sentence is a flat sequence of word tokens interleaved with
break tokens: ``<eol>`` ends a line inside a subtitle block and ``<eob>``
ends the block itself.  A *strict* sentence is one a renderer can display
directly: it ends with ``<eob>`` and no block holds more than two lines.

Reconstruction works the other way around: the cues of each talk are
indexed by their first word, and a plain sentence is rebuilt from one run
of consecutive cues whose words are exactly its own, turning cue
boundaries into ``<eob>`` and in-cue line boundaries into ``<eol>``.  Only
cues that start with the sentence's first word can open a run, so a
sentence is never matched against the whole talk.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .srt_io import SegmentDuration, Subtitle, SubtitleDocument, Timestamp

EOL_SYMBOL = "<eol>"
EOB_SYMBOL = "<eob>"


class BreakToken(Enum):
    """Subtitle break symbols: end of line and end of block."""

    EOL = EOL_SYMBOL
    EOB = EOB_SYMBOL


class GrammarViolation(ValueError):
    """An annotated sentence breaks the subtitle-break grammar."""


class InvalidGap(ValueError):
    """A break position is out of range, duplicated, or out of order."""


class NoAlignment(ValueError):
    """No run of consecutive cues rebuilds the sentence."""


class DuplicateTalkId(ValueError):
    """Two documents with the same talk id were offered to one index."""


class AnnotationWarning(UserWarning):
    """Recoverable oddity met while restoring collapsed line breaks."""


@dataclass(frozen=True)
class BreakPosition:
    """A break after the ``gap``-th word (1-based), with its kind."""

    gap: int
    kind: BreakToken

    def __post_init__(self):
        if self.gap < 1:
            raise InvalidGap(f"gap must be >= 1, got {self.gap}")


@dataclass(frozen=True)
class AnnotatedSentence:
    """An ordered mix of word tokens (plain strings) and BreakToken items.

    Words never contain whitespace and never equal a break symbol; a break
    always follows a word, so two breaks can never be adjacent and a
    sentence can never open with one.
    """

    items: tuple[str | BreakToken, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        previous_was_break = True  # also forbids a leading break
        for item in self.items:
            if isinstance(item, BreakToken):
                if previous_was_break:
                    raise GrammarViolation("a break token must follow a word")
                previous_was_break = True
                continue
            if not isinstance(item, str) or item.split() != [item]:
                raise ValueError(f"bad word token {item!r}")
            if item in (EOL_SYMBOL, EOB_SYMBOL):
                raise ValueError(f"word token {item!r} collides with a break symbol")
            previous_was_break = False

    @classmethod
    def from_text(cls, text: str) -> "AnnotatedSentence":
        """Parse the corpus line format: space-separated tokens with literal
        ``<eol>`` / ``<eob>`` break symbols."""
        items: list[str | BreakToken] = []
        for token in text.split():
            if token == EOL_SYMBOL:
                items.append(BreakToken.EOL)
            elif token == EOB_SYMBOL:
                items.append(BreakToken.EOB)
            else:
                items.append(token)
        return cls(tuple(items))

    def to_text(self) -> str:
        """Render as one corpus line (inverse of :meth:`from_text`)."""
        return " ".join(item.value if isinstance(item, BreakToken) else item for item in self.items)

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(item for item in self.items if isinstance(item, str))

    @property
    def has_eol(self) -> bool:
        return any(item is BreakToken.EOL for item in self.items)

    def blocks(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Block structure: a tuple of blocks, each a tuple of lines, each a
        tuple of words.  Trailing words without a final break still form a
        block, so lenient sentences can be inspected too."""
        blocks: list[tuple[tuple[str, ...], ...]] = []
        lines: list[tuple[str, ...]] = []
        words: list[str] = []
        for item in self.items:
            if isinstance(item, str):
                words.append(item)
            elif item is BreakToken.EOL:
                lines.append(tuple(words))
                words = []
            else:
                lines.append(tuple(words))
                blocks.append(tuple(lines))
                words = []
                lines = []
        if words:
            lines.append(tuple(words))
        if lines:
            blocks.append(tuple(lines))
        return tuple(blocks)

    def validate_strict(self, max_lines_per_block: int = 2) -> None:
        """Raise GrammarViolation unless the sentence is fully renderable."""
        if not self.items:
            raise GrammarViolation("empty sentence")
        if self.items[-1] is not BreakToken.EOB:
            raise GrammarViolation(f"sentence must end with {EOB_SYMBOL}")
        for block in self.blocks():
            if len(block) > max_lines_per_block:
                raise GrammarViolation(
                    f"block has {len(block)} lines (max {max_lines_per_block})"
                )

    @property
    def is_strict(self) -> bool:
        try:
            self.validate_strict()
        except GrammarViolation:
            return False
        return True


def normalize_text(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def strip_breaks(sentence: AnnotatedSentence) -> str:
    """Plain sentence text: words joined by single spaces, breaks dropped."""
    return " ".join(sentence.words)


def extract_breaks(sentence: AnnotatedSentence) -> tuple[BreakPosition, ...]:
    """Break coordinates as (gap, kind) pairs, in sentence order."""
    positions: list[BreakPosition] = []
    gap = 0
    for item in sentence.items:
        if isinstance(item, str):
            gap += 1
        else:
            positions.append(BreakPosition(gap, item))
    return tuple(positions)


def apply_breaks(
    text: str, breaks: Sequence[BreakPosition], strict: bool = True
) -> AnnotatedSentence:
    """Insert breaks into plain ``text`` at the given gaps.

    Gaps must be strictly increasing and within 1..word count.  With
    ``strict`` (the default) the result must satisfy the full grammar.
    """
    words = text.split()
    last_gap = 0
    for position in breaks:
        if position.gap <= last_gap:
            raise InvalidGap(
                f"gaps must be strictly increasing, got {position.gap} after {last_gap}"
            )
        if position.gap > len(words):
            raise InvalidGap(f"gap {position.gap} beyond the {len(words)}-word sentence")
        last_gap = position.gap
    kind_by_gap = {position.gap: position.kind for position in breaks}
    items: list[str | BreakToken] = []
    for i, word in enumerate(words, start=1):
        items.append(word)
        kind = kind_by_gap.get(i)
        if kind is not None:
            items.append(kind)
    sentence = AnnotatedSentence(tuple(items))
    if strict:
        sentence.validate_strict()
    return sentence


@dataclass(frozen=True, slots=True)
class _IndexedCue:
    line_words: tuple[tuple[str, ...], ...]
    words: tuple[str, ...]


@dataclass(frozen=True)
class _IndexedTalk:
    cues: tuple[_IndexedCue, ...]
    starts: dict[str, list[int]]  # first word -> ascending positions in ``cues``


class InvertedIndex:
    """Per-talk cue lookup used to rebuild sentences from subtitle text.

    Build once with :func:`build_index`; afterwards it is read-only and safe
    to query concurrently.  For each talk it holds the cues in document
    order, as whitespace-split words per line and flattened, and a map from
    a cue's first word to the ascending positions of the cues starting with
    it.  Within a talk each distinct word is one string object, however many
    cues repeat it.
    """

    def __init__(self) -> None:
        self._talks: dict[str, _IndexedTalk] = {}

    def __len__(self) -> int:
        return sum(len(talk.cues) for talk in self._talks.values())

    def talk_ids(self) -> tuple[str, ...]:
        return tuple(self._talks)


def build_index(docs: Iterable[SubtitleDocument]) -> InvertedIndex:
    """Index the cues of every document by talk id and by first word."""
    index = InvertedIndex()
    for doc in docs:
        if doc.talk_id in index._talks:
            raise DuplicateTalkId(doc.talk_id)
        cues = []
        starts: dict[str, list[int]] = {}
        shared: dict[str, str] = {}  # each word of the talk -> its one kept copy
        for position, sub in enumerate(doc.subtitles):
            split = (line.split() for line in sub.lines)
            line_words = tuple(tuple(shared.setdefault(w, w) for w in words) for words in split)
            flat = tuple(word for line in line_words for word in line)
            cues.append(_IndexedCue(line_words, flat))
            starts.setdefault(flat[0], []).append(position)
        index._talks[doc.talk_id] = _IndexedTalk(tuple(cues), starts)
    return index


def _tile(words: tuple[str, ...], talk: _IndexedTalk) -> tuple[_IndexedCue, ...] | None:
    """The earliest run of consecutive cues whose words are exactly ``words``.

    Only cues starting with the sentence's first word can open a run; from
    each of them, in index order, the following cues are matched one after
    another until the sentence is used up or a cue does not fit.
    """
    cues, total = talk.cues, len(words)
    for first in talk.starts.get(words[0], ()):
        pos = 0
        for j in range(first, len(cues)):
            end = pos + len(cues[j].words)
            if words[pos:end] != cues[j].words:
                break
            if end == total:
                return cues[first : j + 1]
            pos = end
    return None


def align_sentence(sentence: str, talk_id: str, index: InvertedIndex) -> AnnotatedSentence:
    """Rebuild ``sentence`` as an annotated sentence from the talk's cues.

    One run of consecutive cues must hold exactly the words of the
    whitespace-normalized sentence; when several runs do, the earliest
    wins.  Every cue boundary becomes ``<eob>`` and every line boundary
    inside a cue becomes ``<eol>``.  Raises NoAlignment when no run does.
    """
    words = tuple(sentence.split())
    if not words:
        raise ValueError("sentence must be non-empty")
    talk = index._talks.get(talk_id)
    if not talk or not talk.cues:
        raise NoAlignment(f"no subtitles indexed for talk {talk_id!r}")
    chosen = _tile(words, talk)
    if chosen is None:
        raise NoAlignment(
            f"no in-order tiling of talk {talk_id!r} cues reconstructs the sentence"
        )
    items: list[str | BreakToken] = []
    for cue in chosen:
        for line_number, line in enumerate(cue.line_words, start=1):
            items.extend(line)
            items.append(BreakToken.EOL if line_number < len(cue.line_words) else BreakToken.EOB)
    return AnnotatedSentence(tuple(items))


_DOUBLE_SPACE_RE = re.compile(r"(?<=\S) {2,}(?=\S)")


def restore_eol_from_double_space(line: str) -> list[str]:
    """Split a collapsed subtitle line on internal double spaces.

    A run of two or more spaces between non-space text marks a removed line
    break.  At most two lines come back: with several runs only the first
    one splits (reported as an AnnotationWarning) and the rest of the line
    is kept verbatim.  Non-space characters are never altered.
    """
    parts = _DOUBLE_SPACE_RE.split(line, maxsplit=1)
    if len(parts) == 2 and (more := len(_DOUBLE_SPACE_RE.findall(parts[1]))):
        warnings.warn(
            AnnotationWarning(
                f"line has {more + 1} double-space split points; keeping only the first"
            ),
            stacklevel=2,
        )
    return parts


def render_srt(
    sentence: AnnotatedSentence, window: SegmentDuration, start_index: int = 1
) -> list[Subtitle]:
    """Render a strict sentence as cues whose durations partition ``window``
    proportionally to each block's character count (lines joined by one
    space).  Indices run consecutively from ``start_index``."""
    sentence.validate_strict()
    block_lines = [
        tuple(" ".join(line) for line in block) for block in sentence.blocks()
    ]
    char_counts = [sum(len(line) for line in lines) + len(lines) - 1 for lines in block_lines]
    total_chars = sum(char_counts)

    boundaries = [round(window.offset * 1000)]
    consumed = 0
    for count in char_counts:
        consumed += count
        raw = round((window.offset + window.duration * consumed / total_chars) * 1000)
        boundaries.append(max(raw, boundaries[-1] + 1))  # cues need a positive duration

    return [
        Subtitle(start_index + i, Timestamp(boundaries[i]), Timestamp(boundaries[i + 1]), lines)
        for i, lines in enumerate(block_lines)
    ]
