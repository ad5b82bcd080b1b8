"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one PASS/FAIL line (visible with ``pytest -s``).
The trainable-segmenter criteria share one module-scoped experiment so the
suite stays within its time budget.
"""

import itertools
import random
from contextlib import contextmanager

import pytest

from subseg.annotate import (
    AnnotatedSentence,
    GapLabel,
    align_sentence,
    build_index,
    strip_breaks,
)
from subseg.constraints import ConstraintProfile, check_cpl, check_cps, conformity_stats
from subseg.evaluation import corpus_prf
from subseg.pipeline import reannotate
from subseg.segmenters import (
    TrainingConfig,
    fine_tune,
    segment_count_char,
    segment_learned,
    train,
)
from subseg.srt_io import (
    SegmentDuration,
    Subtitle,
    SubtitleDocument,
    parse_srt,
    serialize_srt,
)

import synth
from conftest import FIGURE_ANNOTATED, FIGURE_SENTENCE, FIGURE_SRT

PROFILE = ConstraintProfile()
EOL = GapLabel.EOL
EOB = GapLabel.EOB


@contextmanager
def criterion(number, name):
    """Print one PASS/FAIL line per criterion."""
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_figure_fixture_exact():
    with criterion(1, "figure fixture, byte-exact"):
        doc = parse_srt(FIGURE_SRT, talk_id="talk")
        index = build_index([doc])
        annotated = align_sentence(FIGURE_SENTENCE, "talk", index)
        assert annotated.to_text() == FIGURE_ANNOTATED


def _oracle_counts(hyp_labels, ref_labels):
    correct = sum(1 for h, r in zip(hyp_labels, ref_labels) if h and h == r)
    hyp = sum(1 for h in hyp_labels if h)
    ref = sum(1 for r in ref_labels if r)
    return correct, hyp, ref


def _oracle_prf(correct, hyp, ref):
    precision = (1.0 if ref == 0 else 0.0) if hyp == 0 else correct / hyp
    recall = (1.0 if hyp == 0 else 0.0) if ref == 0 else correct / ref
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def test_criterion_2_metrics_against_enumeration_oracle():
    with criterion(2, "break P/R/F1 equals the enumeration oracle"):
        for n in range(1, 7):
            words = tuple(f"w{i}" for i in range(n))
            if n < 6:
                assignments = list(itertools.product(GapLabel, repeat=n))
            else:
                # fix the terminal gap to <eob>: 3^5 assignments per side
                assignments = [
                    labels + (EOB,) for labels in itertools.product(GapLabel, repeat=n - 1)
                ]
            sentences = [AnnotatedSentence(words, labels) for labels in assignments]
            for hyp_labels, hyp in zip(assignments, sentences):
                for ref_labels, ref in zip(assignments, sentences):
                    scores = corpus_prf([(hyp, ref)])
                    correct, hyp_n, ref_n = _oracle_counts(hyp_labels, ref_labels)
                    assert tuple(scores.counts) == (correct, hyp_n, ref_n)
                    assert scores[:3] == _oracle_prf(correct, hyp_n, ref_n)


def test_criterion_3_baseline_conformity():
    with criterion(3, "count-char baseline yields 100% conforming lines"):
        rng = random.Random(4242)
        total_lines = conforming = 0
        for i in range(10_000):
            words = [
                "".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 12)))
                for _ in range(rng.randint(1, 28))
            ]
            out = segment_count_char(" ".join(words), PROFILE, seed=i)
            lengths, ok = check_cpl(out, PROFILE)
            total_lines += len(lengths)
            conforming += sum(1 for length in lengths if length <= PROFILE.cpl_limit)
            assert ok
        assert conforming == total_lines


@pytest.fixture(scope="module")
def ordering_experiment():
    """Shared train/fine-tune experiment for criteria 4, 5 and 6.

    5K training sentences from a hidden rule mixing punctuation and length
    cues, with 75% of them stripped of <eol> (the usual imbalance); the
    base model trains on everything, the fine-tuned one continues on the
    <eol>-bearing subset; 500 intact held-out sentences for scoring.
    """
    train_corpus, _ = synth.partially_collapsed_corpus(5000, seed=101, keep_eol_fraction=0.25)
    test_corpus = synth.make_corpus(500, seed=202)
    base = train(train_corpus, TrainingConfig(epochs=12, seed=7))
    pool = [s for s in train_corpus if s.has_eol]
    tuned = fine_tune(base, pool, TrainingConfig(epochs=6, seed=8))
    baseline_pairs = [
        (segment_count_char(strip_breaks(ref), PROFILE, seed=i), ref)
        for i, ref in enumerate(test_corpus)
    ]
    base_pairs = [(segment_learned(base, strip_breaks(ref), PROFILE), ref) for ref in test_corpus]
    tuned_pairs = [(segment_learned(tuned, strip_breaks(ref), PROFILE), ref) for ref in test_corpus]
    return {
        "base": base,
        "tuned": tuned,
        "baseline_pairs": baseline_pairs,
        "base_pairs": base_pairs,
        "tuned_pairs": tuned_pairs,
    }


def test_criterion_4_trained_segmenter_beats_baseline(ordering_experiment):
    with criterion(4, "fine-tuned segmenter F1 >= baseline F1 + 10 points"):
        baseline_f1 = corpus_prf(ordering_experiment["baseline_pairs"]).f1
        tuned_f1 = corpus_prf(ordering_experiment["tuned_pairs"]).f1
        print(f"[acceptance]   baseline F1 {100 * baseline_f1:.1f}, ft_eol F1 {100 * tuned_f1:.1f}")
        assert tuned_f1 >= baseline_f1 + 0.10


def test_criterion_5_fine_tuning_raises_recall(ordering_experiment):
    with criterion(5, "fine-tuning raises recall on an <eol>-rich held-out set"):
        eol_rich = [
            i
            for i, (_, ref) in enumerate(ordering_experiment["base_pairs"])
            if ref.has_eol
        ]
        assert len(eol_rich) >= 100
        base_recall = corpus_prf(
            [ordering_experiment["base_pairs"][i] for i in eol_rich]
        ).recall
        tuned_recall = corpus_prf(
            [ordering_experiment["tuned_pairs"][i] for i in eol_rich]
        ).recall
        print(f"[acceptance]   recall: base {base_recall:.3f}, ft_eol {tuned_recall:.3f}")
        assert tuned_recall > base_recall


def test_criterion_6_text_preservation(ordering_experiment):
    with criterion(6, "text preserved for 10K fuzzed sentences, both segmenters"):
        tuned = ordering_experiment["tuned"]
        for i, text in enumerate(synth.make_plain_sentences(10_000, seed=313)):
            expected = " ".join(text.split())
            assert strip_breaks(segment_count_char(text, PROFILE, seed=i)) == expected
            assert strip_breaks(segment_learned(tuned, text, PROFILE)) == expected


def test_criterion_7_iterative_reannotation():
    with criterion(7, "one re-annotation iteration lifts conformity to >= 80%"):
        corpus, _ = synth.reannotation_corpus(900, seed=301)
        start = conformity_stats(corpus, PROFILE).line_conformity()
        print(f"[acceptance]   starting line conformity {start:.3f}")
        assert start <= 0.5
        base = train(corpus, TrainingConfig(epochs=12, seed=5), PROFILE)
        config = TrainingConfig(epochs=6, seed=6)
        out, _, reports = reannotate(corpus, base, PROFILE, config, iterations=3)
        assert reports[0].conformity_after >= 0.80
        for report in reports:
            assert report.conformity_after >= report.conformity_before
        for left, right in zip(reports, reports[1:]):
            assert right.conformity_before >= left.conformity_after - 1e-12
        print(
            "[acceptance]   conformity after iteration 1: "
            f"{reports[0].conformity_after:.3f}"
        )


def _random_document(rng, talk_id):
    subtitles = []
    start = rng.randint(0, 1_000_000)
    for index in range(1, rng.randint(1, 8) + 1):
        end = start + rng.randint(1, 5_000)
        lines = []
        for _ in range(rng.randint(1, 2)):
            lines.append(
                " ".join(
                    "".join(rng.choice("abcdefgh'") for _ in range(rng.randint(1, 9)))
                    for _ in range(rng.randint(1, 6))
                )
            )
        subtitles.append(Subtitle(index, start, end, tuple(lines)))
        start = end + rng.randint(1, 2_000)
    return SubtitleDocument(talk_id, tuple(subtitles))


def _random_strict_sentence(rng):
    words = [
        "".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(1, 9)))
        for _ in range(rng.randint(1, 14))
    ]
    labels = [GapLabel.NONE] * len(words)
    eols_in_block = 0
    for gap in range(len(words) - 1):
        roll = rng.random()
        if roll < 0.15 and eols_in_block == 0:
            labels[gap] = EOL
            eols_in_block = 1
        elif roll < 0.3:
            labels[gap] = EOB
            eols_in_block = 0
    labels[-1] = EOB
    sentence = AnnotatedSentence(words, labels)
    sentence.validate_strict()
    return sentence


def test_criterion_8_round_trip_suites():
    with criterion(8, "SRT byte-identity and corpus-line inverse pairs"):
        rng = random.Random(808)
        for i in range(200):
            doc = _random_document(rng, f"talk{i}")
            text = serialize_srt(doc)
            assert parse_srt(text, talk_id=doc.talk_id) == doc
            assert serialize_srt(parse_srt(text, talk_id=doc.talk_id)) == text
        for _ in range(10_000):
            sentence = _random_strict_sentence(rng)
            assert AnnotatedSentence.from_text(sentence.to_text()) == sentence
            assert AnnotatedSentence(sentence.words, sentence.labels) == sentence


def test_criterion_9_reading_speed_arithmetic():
    with criterion(9, "figure cue reads at ~20.60 characters per second"):
        sentence = AnnotatedSentence.from_text("I wanted to challenge the idea <eob>")
        window = SegmentDuration("talk.wav", 537.020, 1.456)
        result = check_cps(sentence, window, PROFILE)
        assert result.cps == pytest.approx(20.60, abs=0.01)
        assert result.conforming
