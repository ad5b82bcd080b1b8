"""Scoring of segmentation hypotheses against references.

Three metric families: precision/recall/F1 of break placements (a break is
correct only when gap position and kind both match), BLEU over the token
stream with break symbols, and the percentage of hypothesis lines within
the line-length limit.  A segmenter never changes the words, so BLEU
without break symbols would always be 100 and is not reported.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .annotate import AnnotatedSentence
from .constraints import ConstraintProfile, DEFAULT_PROFILE, conformity_stats


class TextMismatch(ValueError):
    """Hypothesis and reference disagree on the underlying words."""

    def __init__(self, index: int):
        super().__init__(f"pair {index}: hypothesis and reference text differ")
        self.index = index


class BreakCounts(NamedTuple):
    correct: int
    hyp: int
    ref: int


class PrfScores(NamedTuple):
    precision: float
    recall: float
    f1: float
    counts: BreakCounts


def break_counts(hyp: AnnotatedSentence, ref: AnnotatedSentence) -> BreakCounts:
    """Correct/hypothesis/reference break counts; correct means both the gap
    index and the break kind match."""
    correct = sum(1 for h, r in zip(hyp.labels, ref.labels) if h and h == r)
    return BreakCounts(correct, sum(map(bool, hyp.labels)), sum(map(bool, ref.labels)))


def corpus_prf(pairs: Iterable[tuple[AnnotatedSentence, AnnotatedSentence]]) -> PrfScores:
    """Micro-averaged scores: break counts are summed over the corpus first.

    When one side has no breaks the corresponding ratio is 1.0 if the other
    side has none either, otherwise 0.0, so an empty corpus scores 1.0
    everywhere (vacuously perfect).
    """
    correct = hyp_total = ref_total = 0
    for i, (hyp, ref) in enumerate(pairs):
        if hyp.words != ref.words:
            raise TextMismatch(i)
        counts = break_counts(hyp, ref)
        correct += counts.correct
        hyp_total += counts.hyp
        ref_total += counts.ref
    precision = correct / hyp_total if hyp_total else (1.0 if ref_total == 0 else 0.0)
    recall = correct / ref_total if ref_total else (1.0 if hyp_total == 0 else 0.0)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PrfScores(precision, recall, f1, BreakCounts(correct, hyp_total, ref_total))


def corpus_bleu(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Corpus-level 4-gram BLEU in [0, 100].

    Uses the usual brevity penalty; n-gram precisions for n > 1 are add-one
    smoothed so short segments never zero out the score.

    The clipped counts are exact integers, so they may be taken the cheap
    way where it gives the same count: every n-gram of an identical pair
    matches, and where the hypothesis repeats no n-gram each of its n-grams
    that the reference holds at all matches once.
    """
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        if hyp == ref:
            for n in range(4):
                grams = max(len(hyp) - n, 0)
                matches[n] += grams
                totals[n] += grams
            continue
        for n in range(1, 5):
            hyp_grams = list(zip(*(hyp[i:] for i in range(n))))
            ref_grams = zip(*(ref[i:] for i in range(n)))
            distinct = set(hyp_grams)
            if len(distinct) == len(hyp_grams):
                matches[n - 1] += len(distinct.intersection(ref_grams))
            else:
                ref_counts = Counter(ref_grams)
                matches[n - 1] += sum(
                    min(count, ref_counts[gram]) for gram, count in Counter(hyp_grams).items()
                )
            totals[n - 1] += len(hyp_grams)
    if hyp_len == 0:
        return 100.0 if ref_len == 0 else 0.0
    log_precision = 0.0
    for n in range(4):
        m, t = matches[n], totals[n]
        if n > 0:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_precision += 0.25 * math.log(m / t)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate scores for a corpus of (hypothesis, reference) pairs."""

    precision: float
    recall: float
    f1: float
    bleu_with_breaks: float
    cpl_conformity_pct: float
    counts: BreakCounts

    def to_json_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "bleu_breaks": self.bleu_with_breaks,
            "cpl_conformity": self.cpl_conformity_pct,
            "counts": {
                "correct": self.counts.correct,
                "hyp": self.counts.hyp,
                "ref": self.counts.ref,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_table(self) -> str:
        rows = [
            ("precision", f"{self.precision:.4f}"),
            ("recall", f"{self.recall:.4f}"),
            ("f1", f"{self.f1:.4f}"),
            ("bleu_breaks", f"{self.bleu_with_breaks:.2f}"),
            ("cpl_conformity", f"{self.cpl_conformity_pct:.2f}"),
            ("breaks", f"{self.counts.correct}/{self.counts.hyp}/{self.counts.ref}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def evaluate(
    pairs: Iterable[tuple[AnnotatedSentence, AnnotatedSentence]],
    profile: ConstraintProfile = DEFAULT_PROFILE,
) -> EvalReport:
    """Micro-averaged break P/R/F1, corpus BLEU with break symbols, and the
    percentage of hypothesis lines within the line limit."""
    pairs = list(pairs)
    prf = corpus_prf(pairs)
    with_breaks = corpus_bleu((hyp.to_text().split(), ref.to_text().split()) for hyp, ref in pairs)
    lines = conformity_stats((hyp for hyp, _ in pairs), profile)
    # from the counts: 100.0 * lines.line_conformity() may differ in the last bit
    conformity = (
        100.0 if lines.total_lines == 0 else 100.0 * lines.conforming_lines / lines.total_lines
    )
    return EvalReport(
        precision=prf.precision,
        recall=prf.recall,
        f1=prf.f1,
        bleu_with_breaks=with_breaks,
        cpl_conformity_pct=conformity,
        counts=prf.counts,
    )
