"""Sentences annotated with subtitle-break symbols, and their
reconstruction from subtitle documents.

An annotated sentence is a sequence of words plus one ``GapLabel`` per
gap, the decision after each word: no break, ``<eol>`` (end of a line
inside a subtitle block) or ``<eob>`` (end of the block itself).  In the
corpus line format each break is written as its symbol after its word;
``from_text`` reads that format and is the one place a break can be
misplaced.  A *strict* sentence is one a renderer can display directly:
it ends with ``<eob>`` and no block holds more than two lines.

Reconstruction works the other way around: each talk is indexed as one
word sequence with the label after every word (``<eol>`` ends a cue line,
``<eob>`` the cue) and, by first word, the offsets where cues start.  A
plain sentence is rebuilt from the earliest slice of the talk that equals
its words, starts where a cue starts and ends where a cue ends.  Only cues
that start with the sentence's first word are tried, so a sentence is
never matched against the whole talk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

from .srt_io import SegmentDuration, Subtitle, SubtitleDocument, Timestamp

EOL_SYMBOL = "<eol>"
EOB_SYMBOL = "<eob>"


class GapLabel(IntEnum):
    """Decision for the gap after a word."""

    NONE = 0
    EOL = 1
    EOB = 2


_LABEL_OF_SYMBOL = {EOL_SYMBOL: GapLabel.EOL, EOB_SYMBOL: GapLabel.EOB}
_GAP_LABELS = {label: label for label in GapLabel}  # 0-2 (or a member) -> its member
_LABEL_OF_BYTE = tuple(GapLabel)  # a label byte of the cue index -> its member
_TEXT_AFTER = ("", f" {EOL_SYMBOL}", f" {EOB_SYMBOL}")  # indexed by GapLabel


class GrammarViolation(ValueError):
    """An annotated sentence breaks the subtitle-break grammar."""


class InvalidGap(ValueError):
    """A break position is out of range, duplicated, or out of order."""


class NoAlignment(ValueError):
    """No run of consecutive cues rebuilds the sentence."""


class DuplicateTalkId(ValueError):
    """Two documents with the same talk id were offered to one index."""


@dataclass(frozen=True)
class BreakPosition:
    """A break after the ``gap``-th word (1-based), with its kind:
    ``GapLabel.EOL`` or ``GapLabel.EOB``."""

    gap: int
    kind: GapLabel

    def __post_init__(self):
        if self.gap < 1:
            raise InvalidGap(f"gap must be >= 1, got {self.gap}")
        if self.kind is not GapLabel.EOL and self.kind is not GapLabel.EOB:
            raise InvalidGap(f"a break is GapLabel.EOL or GapLabel.EOB, got {self.kind!r}")


@dataclass(frozen=True)
class AnnotatedSentence:
    """Words plus the ``GapLabel`` of the gap after each word.

    Words never contain whitespace and never equal a break symbol.  Labels
    may be given as ints 0-2 and are stored as ``GapLabel`` members.  A
    break always follows a word, so two breaks can never be adjacent and a
    sentence can never open with one.
    """

    words: tuple[str, ...]
    labels: tuple[GapLabel, ...]

    def __post_init__(self):
        words = tuple(self.words)
        try:
            labels = tuple([_GAP_LABELS[label] for label in self.labels])
        except (KeyError, TypeError):
            raise ValueError(f"labels must be 0, 1 or 2, got {self.labels!r}") from None
        if len(words) != len(labels):
            raise ValueError(f"{len(words)} words but {len(labels)} labels")
        for word in words:
            if not isinstance(word, str) or word.split() != [word]:
                raise ValueError(f"bad word token {word!r}")
            if word in _LABEL_OF_SYMBOL:
                raise ValueError(f"word token {word!r} collides with a break symbol")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _of(cls, words: tuple[str, ...], labels: tuple[GapLabel, ...]) -> "AnnotatedSentence":
        """A sentence of words already split from text (non-empty, without
        whitespace, no break symbol) and one ``GapLabel`` member per word,
        built without checking them again."""
        sentence = object.__new__(cls)
        object.__setattr__(sentence, "words", words)
        object.__setattr__(sentence, "labels", labels)
        return sentence

    @classmethod
    def from_text(cls, text: str) -> "AnnotatedSentence":
        """Parse the corpus line format: space-separated tokens with literal
        ``<eol>`` / ``<eob>`` break symbols, each right after a word."""
        words: list[str] = []
        labels: list[GapLabel] = []
        none = GapLabel.NONE
        for token in text.split():
            label = _LABEL_OF_SYMBOL.get(token)
            if label is None:
                words.append(token)
                labels.append(none)
            elif not labels or labels[-1]:
                raise GrammarViolation("a break token must follow a word")
            else:
                labels[-1] = label
        return cls._of(tuple(words), tuple(labels))

    def to_text(self) -> str:
        """Render as one corpus line (inverse of :meth:`from_text`)."""
        return " ".join([word + _TEXT_AFTER[label] for word, label in zip(self.words, self.labels)])

    @property
    def has_eol(self) -> bool:
        return GapLabel.EOL in self.labels

    def blocks(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Block structure: a tuple of blocks, each a tuple of lines, each a
        tuple of words.  Trailing words without a final break still form a
        block, so lenient sentences can be inspected too."""
        blocks: list[tuple[tuple[str, ...], ...]] = []
        lines: list[tuple[str, ...]] = []
        words: list[str] = []
        for word, label in zip(self.words, self.labels):
            words.append(word)
            if label:
                lines.append(tuple(words))
                words = []
                if label is GapLabel.EOB:
                    blocks.append(tuple(lines))
                    lines = []
        if words:
            lines.append(tuple(words))
        if lines:
            blocks.append(tuple(lines))
        return tuple(blocks)

    def validate_strict(self, max_lines_per_block: int = 2) -> None:
        """Raise GrammarViolation unless the sentence is fully renderable."""
        if not self.labels:
            raise GrammarViolation("empty sentence")
        if self.labels[-1] is not GapLabel.EOB:
            raise GrammarViolation(f"sentence must end with {EOB_SYMBOL}")
        for block in self.blocks():
            if len(block) > max_lines_per_block:
                raise GrammarViolation(
                    f"block has {len(block)} lines (max {max_lines_per_block})"
                )


def normalize_text(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def strip_breaks(sentence: AnnotatedSentence) -> str:
    """Plain sentence text: words joined by single spaces, breaks dropped."""
    return " ".join(sentence.words)


def extract_breaks(sentence: AnnotatedSentence) -> tuple[BreakPosition, ...]:
    """Break coordinates as (gap, kind) pairs, in sentence order."""
    return tuple(
        BreakPosition(gap, label)
        for gap, label in enumerate(sentence.labels, start=1)
        if label
    )


def apply_breaks(text: str, breaks: Sequence[BreakPosition]) -> AnnotatedSentence:
    """Insert breaks into plain ``text`` at the given gaps.

    Gaps must be strictly increasing and within 1..word count, and the
    result must satisfy the full grammar.
    """
    words = text.split()
    labels = [GapLabel.NONE] * len(words)
    last_gap = 0
    for position in breaks:
        if position.gap <= last_gap:
            raise InvalidGap(
                f"gaps must be strictly increasing, got {position.gap} after {last_gap}"
            )
        if position.gap > len(words):
            raise InvalidGap(f"gap {position.gap} beyond the {len(words)}-word sentence")
        last_gap = position.gap
        labels[last_gap - 1] = position.kind
    sentence = AnnotatedSentence(words, labels)
    sentence.validate_strict()
    return sentence


@dataclass(frozen=True, slots=True)
class _IndexedTalk:
    words: tuple[str, ...]
    labels: bytes  # the GapLabel after each word
    starts: dict[str, list[int]]  # a cue's first word -> ascending offsets of such cues


def build_index(docs: Iterable[SubtitleDocument]) -> dict[str, _IndexedTalk]:
    """Index the cues of every document by talk id and by first word.

    The index is read-only after build, so it is safe to query concurrently.
    For each talk it holds the words of its cues in document order,
    whitespace-split, the ``GapLabel`` after each word (``EOL`` ends a cue
    line, ``EOB`` ends the cue), and a map from a cue's first word to the
    ascending offsets where cues starting with it start.  Within a talk each
    distinct word is one string object, however many cues repeat it.
    """
    index: dict[str, _IndexedTalk] = {}
    for doc in docs:
        if doc.talk_id in index:
            raise DuplicateTalkId(doc.talk_id)
        words: list[str] = []
        labels = bytearray()
        starts: dict[str, list[int]] = {}
        shared: dict[str, str] = {}  # each word of the talk -> its one kept copy
        for sub in doc.subtitles:
            first = len(words)
            for line in sub.lines:
                split = line.split()
                words.extend(map(shared.setdefault, split, split))
                labels.extend(bytes(len(split) - 1))
                labels.append(GapLabel.EOL)
            labels[-1] = GapLabel.EOB
            starts.setdefault(words[first], []).append(first)
        index[doc.talk_id] = _IndexedTalk(tuple(words), bytes(labels), starts)
    return index


def align_sentence(
    sentence: str, talk_id: str, index: Mapping[str, _IndexedTalk]
) -> AnnotatedSentence:
    """Rebuild ``sentence`` as an annotated sentence from the talk's cues.

    One run of consecutive cues must hold exactly the words of the
    whitespace-normalized sentence; when several runs do, the earliest
    wins.  Every cue boundary becomes ``<eob>`` and every line boundary
    inside a cue becomes ``<eol>``.  Raises NoAlignment when no run does.
    """
    words = tuple(sentence.split())
    if not words:
        raise ValueError("sentence must be non-empty")
    talk = index.get(talk_id)
    if talk is None or not talk.words:
        raise NoAlignment(f"no subtitles indexed for talk {talk_id!r}")
    labels = talk.labels
    for first in talk.starts.get(words[0], ()):
        end = first + len(words)
        if end <= len(labels) and labels[end - 1] == GapLabel.EOB:
            run = talk.words[first:end]
            if run == words:
                if not _LABEL_OF_SYMBOL.keys().isdisjoint(run):
                    # a cue word is a break symbol: the checking constructor raises
                    return AnnotatedSentence(run, labels[first:end])
                run_labels = tuple(map(_LABEL_OF_BYTE.__getitem__, labels[first:end]))
                return AnnotatedSentence._of(run, run_labels)
    raise NoAlignment(f"no in-order tiling of talk {talk_id!r} cues reconstructs the sentence")


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
