"""End-to-end corpus workflows: alignment-based corpus construction,
corpus statistics, and the iterative line-break re-annotation loop.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from .annotate import AnnotatedSentence, align_sentence, build_index
from .constraints import (
    ConformityReport,
    ConstraintProfile,
    DEFAULT_PROFILE,
    check_cpl,
    check_cps,
    conformity_stats,
)
from .segmenters import LinearSegmenterModel, TrainingConfig, _checked_rate, fine_tune, segment_learned
from .srt_io import SegmentDuration, Subtitle, SubtitleDocument


class AlignmentLogEntry(NamedTuple):
    line_number: int
    talk_id: str
    aligned: bool
    detail: str = ""


_DOUBLE_SPACE_RE = re.compile(r"(?<=\S) {2,}(?=\S)")


class AnnotationWarning(UserWarning):
    """Recoverable oddity met while restoring collapsed line breaks."""


def preprocess_document(doc: SubtitleDocument) -> SubtitleDocument:
    """Restore collapsed line breaks.

    In a single-line cue, a run of two or more spaces between non-space
    text marks a removed line break, and the cue is split back into two
    lines there.  With several runs only the first one splits, the rest of
    the line is kept verbatim, and an AnnotationWarning names the talk and
    the cue.  Non-space characters are never altered.
    """
    subtitles = []
    for sub in doc.subtitles:
        if len(sub.lines) == 1 and "  " in sub.lines[0]:
            lines = _DOUBLE_SPACE_RE.split(sub.lines[0], maxsplit=1)
            if len(lines) == 2:
                if "  " in lines[1] and (more := len(_DOUBLE_SPACE_RE.findall(lines[1]))):
                    warnings.warn(
                        AnnotationWarning(
                            f"talk {doc.talk_id!r}, cue {sub.index}: line has {more + 1} "
                            "double-space split points; keeping only the first"
                        ),
                        stacklevel=2,
                    )
                sub = Subtitle(sub.index, sub.start, sub.end, tuple(lines))
        subtitles.append(sub)
    return replace(doc, subtitles=tuple(subtitles))


def build_corpus(
    docs: Iterable[SubtitleDocument],
    lines: Iterable[str],
    broken_talks: Mapping[str, str] | None = None,
) -> tuple[list[AnnotatedSentence], list[AlignmentLogEntry]]:
    """Align the sentence of each ``talk_id<TAB>sentence`` line against the
    indexed documents.

    Returns the successfully aligned sentences in input order plus a log
    entry per non-blank line, numbered from 1 by its place in ``lines``; a
    line without a tab, a blank sentence, a sentence of a talk in
    ``broken_talks`` (talk id -> why its subtitles could not be read), an
    alignment failure and a sentence that cannot be rebuilt as an annotated
    sentence (its cues hold a break symbol as a word) are logged, never
    fatal.  ``docs`` is consumed one document at a time before the first
    sentence is aligned, so it may be a generator that adds to
    ``broken_talks`` as it goes.
    """
    index = build_index(preprocess_document(doc) for doc in docs)
    if broken_talks is None:
        broken_talks = {}
    corpus: list[AnnotatedSentence] = []
    log: list[AlignmentLogEntry] = []
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        talk_id, tab, text = line.partition("\t")
        if not tab:
            talk_id, detail = "", "expected 'talk_id<TAB>sentence'"
        else:
            detail = "empty sentence" if not text.strip() else broken_talks.get(talk_id)
        if detail is not None:
            log.append(AlignmentLogEntry(line_number, talk_id, aligned=False, detail=detail))
            continue
        try:
            corpus.append(align_sentence(text, talk_id, index))
            log.append(AlignmentLogEntry(line_number, talk_id, aligned=True))
        except ValueError as exc:  # NoAlignment included
            log.append(AlignmentLogEntry(line_number, talk_id, aligned=False, detail=str(exc)))
    return corpus, log


@dataclass(frozen=True)
class IterationReport:
    iteration: int
    selected: int
    accepted: int
    conformity_before: float
    conformity_after: float
    pool_size: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def reannotate(
    corpus: Iterable[AnnotatedSentence],
    model: LinearSegmenterModel,
    profile: ConstraintProfile = DEFAULT_PROFILE,
    config: TrainingConfig | None = None,
    iterations: int = 1,
    learning_rate: float = 1.0,
) -> tuple[list[AnnotatedSentence], LinearSegmenterModel, list[IterationReport]]:
    """Iteratively re-annotate over-long sentences with missing line breaks.

    Each iteration fine-tunes the base ``model`` on the pool of sentences
    that carry ``<eol>`` (initially those already in the corpus), segments
    every sentence failing the per-line length check with the block
    structure frozen, keeps only the outputs that pass it, and folds them
    back into both the corpus and the pool.  The loop stops early once
    nothing is selected or accepted, and corpus line conformity never
    decreases.  ``config`` and ``learning_rate`` go to :func:`fine_tune`
    (a None config keeps its default); the rate is checked on entry.

    A kept output has an added ``<eol>`` and no block over the line cap:
    the ``eol_only`` decode never breaks past the cap and only turns open
    gaps into ``<eol>``, and a kept output passes the check its input failed.

    Every sentence must be strict, as for :func:`train`, so each selected
    one can be segmented; one that is not raises GrammarViolation before
    anything is fine-tuned.

    Only selected sentences change, and an accepted one conforms, so each
    iteration after the first selects the previous one's rejects and starts
    from its conformity: every sentence is measured once up front.
    """
    if isinstance(iterations, bool) or not isinstance(iterations, int):  # as in TrainingConfig
        raise ValueError(f"iterations is not an integer, got {iterations!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    _checked_rate(learning_rate)  # even when no iteration fine-tunes
    sentences = list(corpus)
    for sentence in sentences:
        sentence.validate_strict(profile.max_lines_per_block)
    pool = [s for s in sentences if s.has_eol]
    reports: list[IterationReport] = []
    current_model = model
    conformity = conformity_stats(sentences, profile).line_conformity()
    selected = [i for i, s in enumerate(sentences) if not check_cpl(s, profile).conforming]
    for iteration in range(1, iterations + 1):
        before = conformity
        if not selected or not pool:
            reports.append(
                IterationReport(iteration, len(selected), 0, before, before, len(pool))
            )
            break
        current_model = fine_tune(model, pool, config, profile, learning_rate)
        rejected: list[int] = []
        fresh: list[AnnotatedSentence] = []
        for i in selected:
            candidate = segment_learned(current_model, sentences[i], profile, mode="eol_only")
            if check_cpl(candidate, profile).conforming:
                sentences[i] = candidate
                fresh.append(candidate)
            else:
                rejected.append(i)
        pool.extend(fresh)
        conformity = conformity_stats(sentences, profile).line_conformity()
        reports.append(
            IterationReport(iteration, len(selected), len(fresh), before, conformity, len(pool))
        )
        if not fresh:
            break
        selected = rejected
    return sentences, current_model, reports


@dataclass(frozen=True)
class CorpusStats:
    """Corpus size and conformity summary; CPS fields are present only when
    duration metadata was supplied."""

    sentences: int
    words: int
    conformity: ConformityReport
    eol_fraction: float
    cps_measured: int | None = None
    cps_conforming: int | None = None

    def to_json_dict(self) -> dict:
        report = self.conformity
        data = {
            "sentences": self.sentences,
            "words": self.words,
            "eol_fraction": self.eol_fraction,
            "orphan_lines": report.orphan_lines,
            "conformity": {
                "totals": {"sentences": report.total_sentences, "lines": report.total_lines},
                f"conforming_{report.cpl_limit}": {
                    "sentences": report.conforming_sentences,
                    "lines": report.conforming_lines,
                },
                f"conforming_{2 * report.cpl_limit}": {
                    "sentences": report.block_conforming_sentences
                },
                "with_eol": report.sentences_with_eol,
            },
        }
        if self.cps_measured is not None:
            data["cps"] = {"measured": self.cps_measured, "conforming": self.cps_conforming}
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"sentences: {self.sentences}",
            f"words: {self.words}",
            f"eol_fraction: {self.eol_fraction:.4f}",
            f"orphan_lines: {self.conformity.orphan_lines}",
            f"conforming_sentences: {self.conformity.conforming_sentences}",
            f"conforming_lines: {self.conformity.conforming_lines}",
            f"block_conforming_sentences: {self.conformity.block_conforming_sentences}",
            f"sentences_with_eol: {self.conformity.sentences_with_eol}",
        ]
        if self.cps_measured is not None:
            lines.append(f"cps_measured: {self.cps_measured}")
            lines.append(f"cps_conforming: {self.cps_conforming}")
        return "\n".join(lines)


def stats(
    corpus: Iterable[AnnotatedSentence],
    metadata: Sequence[SegmentDuration] | None = None,
    profile: ConstraintProfile = DEFAULT_PROFILE,
) -> CorpusStats:
    """Sentence/word counts (break symbols excluded), conformity counts, the
    fraction of sentences carrying ``<eol>``, and reading speed when duration
    metadata is given, which must hold one entry per sentence (else ValueError)."""
    sentences = list(corpus)
    report = conformity_stats(sentences, profile)
    words = sum(len(s.words) for s in sentences)
    eol_fraction = 0.0 if not sentences else report.sentences_with_eol / len(sentences)
    cps_measured = cps_conforming = None
    if metadata is not None:
        if len(metadata) != len(sentences):
            raise ValueError(f"{len(metadata)} metadata entries, {len(sentences)} corpus sentences")
        cps_measured = len(sentences)
        cps_conforming = sum(
            1 for s, window in zip(sentences, metadata) if check_cps(s, window, profile).conforming
        )
    return CorpusStats(
        sentences=len(sentences),
        words=words,
        conformity=report,
        eol_fraction=eol_fraction,
        cps_measured=cps_measured,
        cps_conforming=cps_conforming,
    )
