import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from subseg.annotate import AnnotatedSentence, GapLabel, extract_breaks
from subseg.constraints import ConstraintProfile
from subseg.evaluation import (
    BreakCounts,
    TextMismatch,
    break_counts,
    break_prf,
    corpus_bleu,
    corpus_prf,
    evaluate,
)

from test_annotate import strict_sentences

EOL = GapLabel.EOL
EOB = GapLabel.EOB


def with_breaks(text, breaks):
    """``text`` with a break of kind ``k`` after word ``g`` for each ``(g, k)``;
    the sentence need not be strict."""
    words = text.split()
    labels = [GapLabel.NONE] * len(words)
    for gap, kind in breaks:
        labels[gap - 1] = kind
    return AnnotatedSentence(words, labels)


TWELVE = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12"


class TestBreakPrf:
    def test_half_recall(self):
        hyp = with_breaks(TWELVE, [(6, EOB)])
        ref = with_breaks(TWELVE, [(6, EOB), (12, EOL)])
        scores = break_prf(hyp, ref)
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(2 / 3)
        assert scores.counts == BreakCounts(1, 1, 2)

    def test_identity(self, figure_annotated):
        sentence = AnnotatedSentence.from_text(figure_annotated)
        assert break_prf(sentence, sentence)[:3] == (1.0, 1.0, 1.0)

    def test_kind_mismatch_at_same_gap(self):
        hyp = with_breaks(TWELVE, [(6, EOL)])
        ref = with_breaks(TWELVE, [(6, EOB)])
        scores = break_prf(hyp, ref)
        assert scores[:3] == (0.0, 0.0, 0.0)
        assert scores.counts == BreakCounts(0, 1, 1)

    def test_zero_zero_convention(self):
        bare = with_breaks("a b", [])
        breaky = with_breaks("a b", [(2, EOB)])
        assert break_prf(bare, bare)[:3] == (1.0, 1.0, 1.0)
        assert break_prf(bare, breaky).precision == 0.0
        assert break_prf(breaky, bare).recall == 0.0

    def test_text_mismatch(self):
        with pytest.raises(TextMismatch):
            break_prf(with_breaks("a b", []), with_breaks("a c", []))

    def test_text_mismatch_names_pair_0(self):
        with pytest.raises(TextMismatch) as err:
            break_prf(with_breaks("a b", []), with_breaks("a c", []))
        assert err.value.index == 0
        assert str(err.value) == "pair 0: hypothesis and reference text differ"


def _oracle_counts(hyp_labels, ref_labels):
    """Brute-force counting straight off the label tuples."""
    correct = sum(1 for h, r in zip(hyp_labels, ref_labels) if h == r and h)
    return correct, sum(1 for h in hyp_labels if h), sum(1 for r in ref_labels if r)


def _oracle_prf(counts):
    correct, hyp, ref = counts
    precision = (1.0 if ref == 0 else 0.0) if hyp == 0 else correct / hyp
    recall = (1.0 if hyp == 0 else 0.0) if ref == 0 else correct / ref
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


class TestExhaustiveOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force_enumeration(self, n):
        words = tuple(f"w{i}" for i in range(n))
        assignments = list(itertools.product(GapLabel, repeat=n))
        for hyp_labels in assignments:
            hyp = AnnotatedSentence(words, hyp_labels)
            for ref_labels in assignments:
                ref = AnnotatedSentence(words, ref_labels)
                scores = break_prf(hyp, ref)
                counts = _oracle_counts(hyp_labels, ref_labels)
                assert tuple(scores.counts) == counts
                assert scores[:3] == _oracle_prf(counts)


@st.composite
def label_assignments(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    hyp = draw(st.lists(st.sampled_from(GapLabel), min_size=n, max_size=n))
    ref = draw(st.lists(st.sampled_from(GapLabel), min_size=n, max_size=n))
    words = tuple(f"w{i}" for i in range(n))
    return AnnotatedSentence(words, hyp), AnnotatedSentence(words, ref)


def _set_counts(hyp, ref):
    """The counts as sets of ``BreakPosition``s: correct is their intersection."""
    hyp_set, ref_set = set(extract_breaks(hyp)), set(extract_breaks(ref))
    return len(hyp_set & ref_set), len(hyp_set), len(ref_set)


class TestPrfProperties:
    @given(label_assignments())
    @settings(max_examples=300)
    def test_counts_match_the_break_position_sets(self, pair):
        hyp, ref = pair
        assert tuple(break_counts(hyp, ref)) == _set_counts(hyp, ref)

    @given(label_assignments())
    @settings(max_examples=300)
    def test_precision_recall_symmetry(self, pair):
        hyp, ref = pair
        assert break_prf(hyp, ref).precision == break_prf(ref, hyp).recall
        assert break_prf(hyp, ref).recall == break_prf(ref, hyp).precision

    @given(label_assignments())
    @settings(max_examples=300)
    def test_f1_swap_invariance(self, pair):
        hyp, ref = pair
        assert break_prf(hyp, ref).f1 == pytest.approx(break_prf(ref, hyp).f1)


class TestCorpusPrf:
    def test_micro_average(self):
        hyp = with_breaks(TWELVE, [(6, EOB)])
        ref = with_breaks(TWELVE, [(6, EOB), (12, EOL)])
        scores = corpus_prf([(hyp, ref), (hyp, ref)])
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.counts == BreakCounts(2, 2, 4)

    def test_empty_corpus_is_vacuously_perfect(self):
        assert corpus_prf([])[:3] == (1.0, 1.0, 1.0)

    def test_perfect_plus_all_wrong(self):
        ref_a = with_breaks("a b c d", [(2, EOB), (4, EOB)])
        hyp_b = with_breaks("e f g h", [(1, EOB), (3, EOB)])
        ref_b = with_breaks("e f g h", [(2, EOB), (4, EOB)])
        scores = corpus_prf([(ref_a, ref_a), (hyp_b, ref_b)])
        assert scores.recall == 0.5

    def test_mismatch_reports_index(self):
        good = with_breaks("a b", [])
        with pytest.raises(TextMismatch) as err:
            corpus_prf([(good, good), (with_breaks("a c", []), good)])
        assert err.value.index == 1


class TestBleu:
    def test_identity_is_100(self):
        tokens = "the quick brown fox jumps".split()
        assert corpus_bleu([(tokens, tokens)]) == 100.0

    def test_single_token_identity(self):
        assert corpus_bleu([(["hi"], ["hi"])]) == 100.0

    def test_hand_checked_toy_case(self):
        # hyp "a b x d e" vs ref "a b c d e":
        #   p1 = 4/5, p2 = (2+1)/(4+1), p3 = (0+1)/(3+1), p4 = (0+1)/(2+1), BP = 1
        expected = 100.0 * (0.8 * 0.6 * 0.25 * (1 / 3)) ** 0.25
        assert corpus_bleu([("a b x d e".split(), "a b c d e".split())]) == pytest.approx(expected)
        assert expected == pytest.approx(44.7214, abs=1e-3)

    def test_brevity_penalty(self):
        # hyp "a b" vs ref "a b c": p1 = 1, p2 = (1+1)/(1+1) = 1,
        # p3, p4 smoothed to 1 on empty totals; BP = exp(1 - 3/2)
        assert corpus_bleu([("a b".split(), "a b c".split())]) == pytest.approx(100.0 * math.exp(1 - 3 / 2))

    def test_break_position_shift_stays_high(self):
        ref = "w1 w2 w3 w4 w5 w6 w7 w8 <eol> w9 w10 w11 w12 w13 w14 w15 w16 w17 w18 <eob>"
        hyp = "w1 w2 w3 w4 w5 w6 w7 w8 w9 <eol> w10 w11 w12 w13 w14 w15 w16 w17 w18 <eob>"
        score = corpus_bleu([(hyp.split(), ref.split())])
        assert 50.0 < score < 100.0

    def test_permutation_sensitive(self):
        ref = "a b c d e f".split()
        assert corpus_bleu([(list(reversed(ref)), ref)]) < corpus_bleu([(ref, ref)])

    def test_empty_inputs(self):
        assert corpus_bleu([]) == 100.0
        assert corpus_bleu([([], ["a"])]) == 0.0

    def test_no_unigram_in_common_scores_zero(self):
        assert corpus_bleu([("a b".split(), "c d".split()), (["e"], ["f"])]) == 0.0

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_self_bleu_always_100(self, tokens):
        assert corpus_bleu([(tokens, tokens)]) == 100.0

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "cd", "<eol>"]), max_size=6), max_size=8))
    @settings(max_examples=300)
    def test_corpus_bleu_of_identical_pairs_is_exactly_100(self, sentences):
        # empty and one- to three-token sentences included
        assert corpus_bleu((tokens, list(tokens)) for tokens in sentences) == 100.0


class TestEvaluate:
    def test_perfect_hypotheses(self, figure_annotated):
        sentence = AnnotatedSentence.from_text(figure_annotated)
        report = evaluate([(sentence, sentence)])
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.bleu_with_breaks == 100.0
        assert report.cpl_conformity_pct == 100.0

    def test_terminal_only_hypotheses(self):
        refs = [
            with_breaks(TWELVE, [(4, EOB), (8, EOB), (12, EOB)]),
            with_breaks(TWELVE, [(6, EOL), (12, EOB)]),
        ]
        hyps = [with_breaks(TWELVE, [(12, EOB)]) for _ in refs]
        report = evaluate(list(zip(hyps, refs)))
        assert report.precision == 1.0  # the terminal <eob> always matches
        assert report.recall == pytest.approx(2 / 5)

    def test_order_invariant(self):
        pairs = [
            (with_breaks(TWELVE, [(6, EOB), (12, EOB)]), with_breaks(TWELVE, [(12, EOB)])),
            (with_breaks("a b", [(2, EOB)]), with_breaks("a b", [(1, EOL), (2, EOB)])),
        ]
        assert evaluate(pairs) == evaluate(list(reversed(pairs)))
        assert evaluate(pairs).bleu_with_breaks < 100.0

    def test_conformity_percentage_of_hand_counted_lines(self):
        # lines "aa bb" (5) and "d" (1) are within 5 characters, "cccccc" (6) is not
        pairs = [
            (AnnotatedSentence.from_text(text), AnnotatedSentence.from_text(text))
            for text in ("aa bb <eol> cccccc <eob>", "d <eob>")
        ]
        report = evaluate(pairs, ConstraintProfile(cpl_limit=5))
        assert report.cpl_conformity_pct == 66.66666666666667  # 100.0 * 2 / 3, not 100.0 * (2 / 3)
        assert '"cpl_conformity": 66.66666666666667' in report.to_json()
        assert "cpl_conformity  66.67" in report.to_table()

    def test_json_keys(self):
        sentence = with_breaks("a b", [(2, EOB)])
        data = evaluate([(sentence, sentence)]).to_json_dict()
        assert set(data) == {
            "precision", "recall", "f1", "bleu_breaks", "cpl_conformity", "counts",
        }

    @given(strict_sentences())
    @settings(max_examples=50)
    def test_self_evaluation_is_perfect(self, sentence):
        report = evaluate([(sentence, sentence)])
        assert report.f1 == 1.0
        assert report.bleu_with_breaks == 100.0
