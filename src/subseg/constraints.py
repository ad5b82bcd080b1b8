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


class CplCheck(NamedTuple):
    line_lengths: tuple[int, ...]
    conforming: bool


def check_cpl(sentence: AnnotatedSentence, profile: ConstraintProfile = DEFAULT_PROFILE) -> CplCheck:
    """Per-line lengths and whether every line is within the line limit.  A
    line of n words is their lengths plus n - 1 spaces; the lines are those
    of ``blocks()``."""
    lengths: list[int] = []
    chars = 0  # the line so far, one space counted after each word
    for word, label in zip(sentence.words, sentence._closed_labels()):
        chars += len(word) + 1
        if label:
            lengths.append(chars - 1)
            chars = 0
    return CplCheck(tuple(lengths), all(n <= profile.cpl_limit for n in lengths))


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
    return all(lines <= profile.max_lines_per_block for lines in sentence._block_line_counts())


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
    each sentence is measured in one walk over its words."""
    # counted with one space after each word, a line is one longer than its
    # rendered length, and a block one longer than its lines joined by a space
    line_bound, orphan_bound = profile.cpl_limit + 1, profile.orphan_threshold
    block_bound = 2 * profile.cpl_limit + 1
    eob = GapLabel.EOB
    total = conforming = block_conforming = 0
    total_lines = conforming_lines = with_eol = orphan_lines = 0
    for sentence in corpus:
        total += 1
        lines = within = chars = block = 0
        fits = True
        for word, label in zip(sentence.words, sentence._closed_labels()):
            chars += len(word) + 1
            if label:
                lines += 1
                within += chars <= line_bound
                orphan_lines += chars <= orphan_bound
                block += chars
                chars = 0
                if label is eob:
                    fits = fits and block <= block_bound
                    block = 0
        conforming += within == lines
        block_conforming += fits
        total_lines += lines
        conforming_lines += within
        with_eol += sentence.has_eol
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
