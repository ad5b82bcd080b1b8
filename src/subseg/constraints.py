"""Spatial and temporal subtitle constraints and corpus conformity counts.

Character counts are over Unicode code points of the rendered line text
(words joined by single spaces); break symbols never count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple

from .annotate import AnnotatedSentence, GapLabel, strip_breaks
from .srt_io import SegmentDuration


@dataclass(frozen=True)
class ConstraintProfile:
    """Numeric subtitle limits (Latin-script defaults)."""

    cpl_limit: int = 42
    cps_limit: float = 21.0
    max_lines_per_block: int = 2
    orphan_threshold: int = 5

    def __post_init__(self):
        for field in fields(self):
            if not getattr(self, field.name) > 0:  # NaN fails every comparison
                raise ValueError(f"{field.name} must be positive")


DEFAULT_PROFILE = ConstraintProfile()


def sentence_lines(sentence: AnnotatedSentence) -> list[str]:
    """Rendered display lines: maximal word runs between break symbols."""
    return [" ".join(line) for block in sentence.blocks() for line in block]


class CplCheck(NamedTuple):
    line_lengths: tuple[int, ...]
    conforming: bool


def _block_line_lengths(sentence: AnnotatedSentence) -> list[list[int]]:
    """Each block's rendered line lengths, from one walk over the sentence:
    a line of n words is their lengths plus n - 1 spaces.  Trailing words
    without a final break form a line and block, as in ``blocks()``."""
    blocks: list[list[int]] = []
    block: list[int] = []
    chars = 0  # the line so far, one space counted after each word
    for word, label in zip(sentence.words, sentence.labels):
        chars += len(word) + 1
        if label:
            block.append(chars - 1)
            chars = 0
            if label is GapLabel.EOB:
                blocks.append(block)
                block = []
    if chars:
        block.append(chars - 1)
    if block:
        blocks.append(block)
    return blocks


def _block_length(line_lengths: list[int]) -> int:
    """A block's length with its lines joined by one space."""
    return sum(line_lengths) + len(line_lengths) - 1


def check_cpl(sentence: AnnotatedSentence, profile: ConstraintProfile = DEFAULT_PROFILE) -> CplCheck:
    """Per-line lengths and whether every line is within the line limit."""
    lengths = tuple(n for block in _block_line_lengths(sentence) for n in block)
    return CplCheck(lengths, all(n <= profile.cpl_limit for n in lengths))


class CpsCheck(NamedTuple):
    cps: float
    conforming: bool


def check_cps(
    sentence: AnnotatedSentence,
    window: SegmentDuration,
    profile: ConstraintProfile = DEFAULT_PROFILE,
) -> CpsCheck:
    """Characters per second of the plain text over the utterance window,
    whose duration is positive."""
    cps = len(strip_breaks(sentence)) / window.duration
    return CpsCheck(cps, cps <= profile.cps_limit)


def check_lines(sentence: AnnotatedSentence, profile: ConstraintProfile = DEFAULT_PROFILE) -> bool:
    """True iff no block has more lines than the profile allows."""
    return all(len(block) <= profile.max_lines_per_block for block in sentence.blocks())


@dataclass(frozen=True)
class ConformityReport:
    """Corpus-level conformity counts at the line and block length limits.

    A sentence is line-conforming only if every one of its lines is within
    the line limit, and block-conforming only if every block fits in twice
    the line limit.  ``cpl_limit`` is the line limit the counts were taken at.
    ``orphan_lines`` counts the lines shorter than the orphan threshold.
    """

    cpl_limit: int
    total_sentences: int
    conforming_sentences: int
    block_conforming_sentences: int
    total_lines: int
    conforming_lines: int
    sentences_with_eol: int
    orphan_lines: int = 0

    def line_conformity(self) -> float:
        """Fraction of lines within the line limit (1.0 for an empty corpus)."""
        return 1.0 if self.total_lines == 0 else self.conforming_lines / self.total_lines


def conformity_stats(
    corpus: Iterable[AnnotatedSentence], profile: ConstraintProfile = DEFAULT_PROFILE
) -> ConformityReport:
    """Count sentences conforming at the line limit, at twice the line limit
    (block level), and carrying at least one ``<eol>``, and orphan lines;
    each sentence's lines are measured once."""
    limit = profile.cpl_limit
    total = conforming = block_conforming = 0
    total_lines = conforming_lines = with_eol = orphan_lines = 0
    for sentence in corpus:
        total += 1
        blocks = _block_line_lengths(sentence)
        lengths = [n for block in blocks for n in block]
        lines_within = sum(1 for n in lengths if n <= limit)
        if lines_within == len(lengths):
            conforming += 1
        if all(_block_length(block) <= 2 * limit for block in blocks):
            block_conforming += 1
        total_lines += len(lengths)
        conforming_lines += lines_within
        orphan_lines += sum(1 for n in lengths if n < profile.orphan_threshold)
        if sentence.has_eol:
            with_eol += 1
    return ConformityReport(
        cpl_limit=profile.cpl_limit,
        total_sentences=total,
        conforming_sentences=conforming,
        block_conforming_sentences=block_conforming,
        total_lines=total_lines,
        conforming_lines=conforming_lines,
        sentences_with_eol=with_eol,
        orphan_lines=orphan_lines,
    )
