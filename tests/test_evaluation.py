import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from subseg.annotate import AnnotatedSentence, GapLabel
from subseg.constraints import ConstraintProfile
from subseg.evaluation import (
    BreakCounts,
    TextMismatch,
    break_counts,
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
        scores = corpus_prf([(hyp, ref)])
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(2 / 3)
        assert scores.counts == BreakCounts(1, 1, 2)

    def test_identity(self, figure_annotated):
        sentence = AnnotatedSentence.from_text(figure_annotated)
        assert corpus_prf([(sentence, sentence)])[:3] == (1.0, 1.0, 1.0)

    def test_kind_mismatch_at_same_gap(self):
        hyp = with_breaks(TWELVE, [(6, EOL)])
        ref = with_breaks(TWELVE, [(6, EOB)])
        scores = corpus_prf([(hyp, ref)])
        assert scores[:3] == (0.0, 0.0, 0.0)
        assert scores.counts == BreakCounts(0, 1, 1)

    def test_zero_zero_convention(self):
        bare = with_breaks("a b", [])
        breaky = with_breaks("a b", [(2, EOB)])
        assert corpus_prf([(bare, bare)])[:3] == (1.0, 1.0, 1.0)
        assert corpus_prf([(bare, breaky)]).precision == 0.0
        assert corpus_prf([(breaky, bare)]).recall == 0.0

    def test_text_mismatch(self):
        with pytest.raises(TextMismatch):
            corpus_prf([(with_breaks("a b", []), with_breaks("a c", []))])

    def test_text_mismatch_names_pair_0(self):
        with pytest.raises(TextMismatch) as err:
            corpus_prf([(with_breaks("a b", []), with_breaks("a c", []))])
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
                scores = corpus_prf([(hyp, ref)])
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
    """The counts as sets of (gap, label) pairs: correct is their intersection."""
    hyp_set, ref_set = (
        {(gap, label) for gap, label in enumerate(s.labels, start=1) if label} for s in (hyp, ref)
    )
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
        assert corpus_prf([(hyp, ref)]).precision == corpus_prf([(ref, hyp)]).recall
        assert corpus_prf([(hyp, ref)]).recall == corpus_prf([(ref, hyp)]).precision

    @given(label_assignments())
    @settings(max_examples=300)
    def test_f1_swap_invariance(self, pair):
        hyp, ref = pair
        assert corpus_prf([(hyp, ref)]).f1 == pytest.approx(corpus_prf([(ref, hyp)]).f1)


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


def _reference_corpus_bleu(pairs):
    """Corpus BLEU with every pair's n-grams counted and clipped, as
    ``corpus_bleu`` did before it took its shortcuts."""
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_ngrams = Counter(zip(*(hyp[i:] for i in range(n))))
            ref_ngrams = Counter(zip(*(ref[i:] for i in range(n))))
            matches[n - 1] += sum(min(count, ref_ngrams[gram]) for gram, count in hyp_ngrams.items())
            totals[n - 1] += sum(hyp_ngrams.values())
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


# few tokens, so n-grams repeat, break symbols among them, and many, so
# whole sentences go without a repeat
_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "<eol>", "<eob>"]), st.text("cdefghij", min_size=1, max_size=3)
)


@st.composite
def _bleu_pairs(draw):
    ref = draw(st.lists(_TOKENS, max_size=12))
    kind = draw(st.sampled_from(["same", "edited", "other"]))
    if kind == "same":
        return list(ref), ref
    if kind == "other":
        return draw(st.lists(_TOKENS, max_size=12)), ref
    # mostly ref's tokens, some replaced or dropped, some appended
    edits = draw(st.lists(st.one_of(st.none(), st.just(""), _TOKENS), min_size=len(ref), max_size=len(ref)))
    hyp = [token if edit is None else edit for token, edit in zip(ref, edits) if edit != ""]
    return hyp + draw(st.lists(_TOKENS, max_size=3)), ref


class TestBleuCounts:
    @given(st.lists(_bleu_pairs(), max_size=6))
    @settings(max_examples=500)
    def test_matches_the_fully_counted_reference(self, pairs):
        assert repr(corpus_bleu(pairs)) == repr(_reference_corpus_bleu(pairs))


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
