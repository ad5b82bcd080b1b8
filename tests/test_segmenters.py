import functools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subseg import segmenters
from subseg.annotate import (
    AnnotatedSentence,
    GrammarViolation,
    extract_breaks,
    normalize_text,
    strip_breaks,
)
from subseg.constraints import ConstraintProfile, check_cpl, check_lines
from subseg.evaluation import corpus_prf
from subseg.segmenters import (
    EmptyCorpus,
    GapLabel,
    LinearSegmenterModel,
    ModelFormatError,
    SubsetViolation,
    TrainingConfig,
    _ALL_LABELS,
    _AveragedWeights,
    _EOL_ONLY_LABELS,
    _KEYS,
    _char_clamp,
    _decode,
    _gap_features,
    _path_differences,
    _score,
    _sentence_pass,
    _state_features,
    _table,
    dump_model,
    extract_features,
    fine_tune,
    load_model,
    parse_model,
    save_model,
    segment_count_char,
    segment_learned,
    train,
)

import synth
from test_annotate import assert_as_checked

PROFILE = ConstraintProfile()


def sent(text):
    return AnnotatedSentence.from_text(text)


class TestCountCharBaseline:
    def test_short_sentence_gets_terminal_eob_only(self):
        out = segment_count_char("C'est donc toujours plus difficile.", seed=0)
        assert out.to_text() == "C'est donc toujours plus difficile. <eob>"

    def test_single_word(self):
        assert segment_count_char("hi", seed=0).to_text() == "hi <eob>"

    def test_first_break_lands_after_last_word_that_fits(self):
        # 17 five-char words: 7 words fill 41 chars, the 8th would hit 47
        out = segment_count_char(" ".join(["abcde"] * 17), seed=4)
        breaks = extract_breaks(out)
        assert breaks[0].gap == 7
        assert breaks[-1] == extract_breaks(out)[-1]
        assert breaks[-1].kind is GapLabel.EOB
        lengths, conforming = check_cpl(out, PROFILE)
        assert conforming
        assert all(n <= 41 for n in lengths)

    def test_eol_is_always_followed_by_eob(self):
        for seed in range(30):
            out = segment_count_char(" ".join(["abcde"] * 30), seed=seed)
            kinds = [b.kind for b in extract_breaks(out)]
            for left, right in zip(kinds, kinds[1:]):
                assert not (left is GapLabel.EOL and right is GapLabel.EOL)
            assert kinds[-1] is GapLabel.EOB
            out.validate_strict()

    def test_deterministic_under_seed(self):
        text = " ".join(["word"] * 40)
        assert segment_count_char(text, seed=9) == segment_count_char(text, seed=9)

    def test_seed_changes_kind_choices(self):
        text = " ".join(["abcde"] * 40)
        outputs = {segment_count_char(text, seed=s).to_text() for s in range(12)}
        assert len(outputs) > 1

    def test_word_longer_than_the_limit_gets_its_own_line(self):
        long_word = "x" * 43
        text = f"ok then {long_word} and more"
        for seed in range(6):
            out = segment_count_char(text, seed=seed)
            assert strip_breaks(out) == text
            out.validate_strict()
            lines = [line for block in out.blocks() for line in block]
            assert (long_word,) in lines
        assert segment_count_char(long_word, seed=0).to_text() == f"{long_word} <eob>"

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            segment_count_char("   ", seed=0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100)
    def test_lines_always_within_limit(self, seed):
        rng = random.Random(seed)
        words = [
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(1, 30))
        ]
        out = segment_count_char(" ".join(words), seed=seed)
        assert check_cpl(out, PROFILE).conforming
        out.validate_strict()
        assert strip_breaks(out) == " ".join(words)

    @staticmethod
    def _greedy_reference(sentence, profile, seed):
        """The baseline as a private line counter plus a pass that promotes
        every ``<eol>`` that would overfill a block, kept as an oracle."""
        words = normalize_text(sentence).split()
        rng = random.Random(seed)
        labels = [GapLabel.NONE] * len(words)
        prev = GapLabel.EOB
        line_chars = len(words[0])
        for j in range(1, len(words)):
            if line_chars + 1 + len(words[j]) > profile.cpl_limit:
                if prev is GapLabel.EOB:
                    kind = rng.choice((GapLabel.EOB, GapLabel.EOL))
                else:
                    kind = GapLabel.EOB
                labels[j - 1] = kind
                prev = kind
                line_chars = len(words[j])
            else:
                line_chars += 1 + len(words[j])
        labels[-1] = GapLabel.EOB
        eols_in_block = 0
        for i, label in enumerate(labels):
            if label is GapLabel.EOL:
                if eols_in_block + 2 > profile.max_lines_per_block:
                    labels[i] = GapLabel.EOB
                    eols_in_block = 0
                else:
                    eols_in_block += 1
            elif label is GapLabel.EOB:
                eols_in_block = 0
        return " ".join(word + ("", " <eol>", " <eob>")[label] for word, label in zip(words, labels))

    @settings(max_examples=300, deadline=None)
    @given(
        words=st.lists(st.text("abc,.", min_size=1, max_size=80), min_size=1, max_size=40),
        seed=st.integers(0, 2**32),
        cpl_limit=st.integers(3, 70),
        max_lines=st.integers(1, 3),
    )
    def test_matches_the_greedy_reference(self, words, seed, cpl_limit, max_lines):
        profile = ConstraintProfile(cpl_limit=cpl_limit, max_lines_per_block=max_lines)
        sentence = " ".join(words)
        out = segment_count_char(sentence, profile, seed=seed)
        assert out.to_text() == self._greedy_reference(sentence, profile, seed)

    # the cases of test_matches_the_greedy_reference
    CASES = dict(
        words=st.lists(st.text("abc,.", min_size=1, max_size=80), min_size=1, max_size=40),
        seed=st.integers(0, 2**32),
        cpl_limit=st.integers(3, 70),
        max_lines=st.integers(1, 3),
    )
    ROLLS = st.lists(st.sampled_from([0, 0, 0, 0, 1, 2]), max_size=39)

    @staticmethod
    def _with_breaks(words, rolls, max_lines, eol_only):
        frozen = TestTableDecode._frozen(len(words), rolls, max_lines, eol_only)
        labels = [frozen.get(gap, GapLabel.NONE) for gap in range(1, len(words) + 1)]
        return AnnotatedSentence(words, labels)

    @settings(max_examples=300, deadline=None)
    @given(**CASES, other_seed=st.integers(0, 2**32))
    def test_its_own_output_is_kept_under_any_seed(self, words, seed, cpl_limit, max_lines, other_seed):
        profile = ConstraintProfile(cpl_limit=cpl_limit, max_lines_per_block=max_lines)
        out = segment_count_char(" ".join(words), profile, seed=seed)
        assert segment_count_char(out, profile, seed=other_seed) == out
        assert segment_count_char(out.to_text(), profile, seed=other_seed) == out

    @settings(max_examples=300, deadline=None)
    @given(**CASES, rolls=ROLLS, eol_only=st.booleans())
    def test_keeps_every_input_break(self, words, seed, cpl_limit, max_lines, rolls, eol_only):
        profile = ConstraintProfile(cpl_limit=cpl_limit, max_lines_per_block=max_lines)
        source = self._with_breaks(words, rolls, max_lines, eol_only)
        out = segment_count_char(source, profile, seed, "eol_only" if eol_only else "full")
        assert out.words == source.words
        assert set(extract_breaks(source)) <= set(extract_breaks(out))
        out.validate_strict(max_lines)

    @settings(max_examples=300, deadline=None)
    @given(**CASES, rolls=ROLLS, other_seed=st.integers(0, 2**32))
    def test_eol_only_keeps_the_blocks_and_draws_nothing(
        self, words, seed, cpl_limit, max_lines, rolls, other_seed
    ):
        profile = ConstraintProfile(cpl_limit=cpl_limit, max_lines_per_block=max_lines)
        source = self._with_breaks(words, rolls, max_lines, eol_only=True)
        out = segment_count_char(source, profile, seed, "eol_only")
        eobs = lambda s: [b.gap for b in extract_breaks(s) if b.kind is GapLabel.EOB]
        assert eobs(out) == eobs(source)
        assert segment_count_char(source, profile, other_seed, "eol_only") == out

    @settings(max_examples=200, deadline=None)
    @given(**CASES, rolls=ROLLS, eol_only=st.booleans())
    def test_output_equals_the_checked_construction(
        self, words, seed, cpl_limit, max_lines, rolls, eol_only
    ):
        profile = ConstraintProfile(cpl_limit=cpl_limit, max_lines_per_block=max_lines)
        source = self._with_breaks(words, rolls, max_lines, eol_only)
        assert_as_checked(segment_count_char(source, profile, seed, "eol_only" if eol_only else "full"))
        assert_as_checked(segment_count_char(" ".join(words), profile, seed))

    def test_an_added_line_break_leaves_room_for_the_frozen_ones(self):
        # the 8th word overflows the line, but the frozen <eol> already gives
        # the block its second line
        seven, three = " ".join(["abcde"] * 7), " ".join(["abcde"] * 3)
        source = f"{seven} {three} <eol> end <eob>"
        for seed in range(8):
            out = segment_count_char(source, PROFILE, seed)
            assert out.to_text() == f"{seven} <eob> {three} <eol> end <eob>"
        assert segment_count_char(source, PROFILE, 0, "eol_only").to_text() == source

    def test_eol_only_breaks_an_overflowing_line_of_a_roomy_block(self):
        seven, three = " ".join(["abcde"] * 7), " ".join(["abcde"] * 3)
        out = segment_count_char(f"{seven} {three} <eob>", PROFILE, 0, "eol_only")
        assert out.to_text() == f"{seven} <eol> {three} <eob>"
        with pytest.raises(GrammarViolation):
            segment_count_char(f"{seven} {three}", PROFILE, 0, "eol_only")

    def test_one_line_blocks_promote_every_drawn_line_break(self):
        # 30 five-char words at the default limit break every 7 words; seed 1
        # draws <eol> for some of them, which one-line blocks turn into <eob>
        text = " ".join(["abcde"] * 30)
        one_line = ConstraintProfile(max_lines_per_block=1)
        two = segment_count_char(text, PROFILE, seed=1)
        one = segment_count_char(text, one_line, seed=1)
        assert two.has_eol
        assert [b.gap for b in extract_breaks(one)] == [b.gap for b in extract_breaks(two)]
        assert all(b.kind is GapLabel.EOB for b in extract_breaks(one))
        assert one.to_text() == self._greedy_reference(text, one_line, 1)


class TestExtractFeatures:
    FIGURE_WORDS = (
        "I wanted to challenge the idea that design is but a tool "
        "to create function and beauty."
    ).split()

    def test_gap_after_idea(self):
        features = extract_features(self.FIGURE_WORDS, 6, 30, GapLabel.EOB, PROFILE)
        assert "punct=0" in features
        assert "n=that" in features
        assert "w=idea" in features

    def test_last_gap_has_only_state_features(self):
        words = self.FIGURE_WORDS
        features = extract_features(words, len(words), 30, GapLabel.EOB, PROFILE)
        assert features == (
            "since=7 prev=EOB over=0 over&punct=0&1 since&prev=7&EOB punct&tail&since=1&.&7".split()
        )
        every_gap = {
            feature
            for gap in range(1, len(words) + 1)
            for feature in extract_features(words, gap, 0, GapLabel.EOB, PROFILE)
        }
        assert not every_gap & {"end_of_sentence", "n=</s>", "nlen=0", "pos=10"}

    def test_deterministic(self):
        a = extract_features(self.FIGURE_WORDS, 6, 30, GapLabel.EOB, PROFILE)
        b = extract_features(self.FIGURE_WORDS, 6, 30, GapLabel.EOB, PROFILE)
        assert a == b

    def test_overflow_indicator(self):
        hot = extract_features(self.FIGURE_WORDS, 6, PROFILE.cpl_limit, GapLabel.EOB, PROFILE)
        cold = extract_features(self.FIGURE_WORDS, 6, 0, GapLabel.EOB, PROFILE)
        assert "over=1" in hot
        assert "over=0" in cold

    def test_gap_out_of_range(self):
        with pytest.raises(ValueError):
            extract_features(("a",), 2, 0, GapLabel.EOB)

    def test_negative_line_characters(self):
        with pytest.raises(ValueError, match="chars_since_break must be non-negative, got -1"):
            extract_features(("a", "b"), 1, -1, GapLabel.EOB)

    # Feature strings are the keys of persisted weights: these sets, one per
    # (gap, line characters, previous break), must never change.  The last
    # gap has only the state features; its old gap features are never read.
    PERSISTED_WORDS = ("Well,", "design", "matters", "today.")
    PERSISTED_FEATURES = {
        (1, 5, "EOB"): "since=1 to_end=5 w=Well, wlen=5 n=design nlen=6 punct=1 tail=, prev=EOB pos=2 over=0 over&punct=0&1 since&prev=1&EOB punct&tail&since=1&,&1",
        (1, 38, "EOL"): "since=9 to_end=5 w=Well, wlen=5 n=design nlen=6 punct=1 tail=, prev=EOL pos=2 over=1 over&punct=1&1 since&prev=9&EOL punct&tail&since=1&,&9",
        (1, 64, "EOB"): "since=15 to_end=5 w=Well, wlen=5 n=design nlen=6 punct=1 tail=, prev=EOB pos=2 over=1 over&punct=1&1 since&prev=15&EOB punct&tail&since=1&,&15",
        (2, 5, "EOB"): "since=1 to_end=3 w=design wlen=6 n=matters nlen=7 punct=0 tail= prev=EOB pos=5 over=0 over&punct=0&0 since&prev=1&EOB punct&tail&since=0&&1",
        (2, 38, "EOL"): "since=9 to_end=3 w=design wlen=6 n=matters nlen=7 punct=0 tail= prev=EOL pos=5 over=1 over&punct=1&0 since&prev=9&EOL punct&tail&since=0&&9",
        (2, 64, "EOB"): "since=15 to_end=3 w=design wlen=6 n=matters nlen=7 punct=0 tail= prev=EOB pos=5 over=1 over&punct=1&0 since&prev=15&EOB punct&tail&since=0&&15",
        (3, 5, "EOB"): "since=1 to_end=1 w=matters wlen=7 n=today. nlen=6 punct=0 tail= prev=EOB pos=7 over=0 over&punct=0&0 since&prev=1&EOB punct&tail&since=0&&1",
        (3, 38, "EOL"): "since=9 to_end=1 w=matters wlen=7 n=today. nlen=6 punct=0 tail= prev=EOL pos=7 over=1 over&punct=1&0 since&prev=9&EOL punct&tail&since=0&&9",
        (3, 64, "EOB"): "since=15 to_end=1 w=matters wlen=7 n=today. nlen=6 punct=0 tail= prev=EOB pos=7 over=1 over&punct=1&0 since&prev=15&EOB punct&tail&since=0&&15",
        (4, 5, "EOB"): "since=1 prev=EOB over=0 over&punct=0&1 since&prev=1&EOB punct&tail&since=1&.&1",
        (4, 38, "EOL"): "since=9 prev=EOL over=0 over&punct=0&1 since&prev=9&EOL punct&tail&since=1&.&9",
        (4, 64, "EOB"): "since=15 prev=EOB over=0 over&punct=0&1 since&prev=15&EOB punct&tail&since=1&.&15",
    }

    @pytest.mark.parametrize("gap, chars, prev", sorted(PERSISTED_FEATURES))
    def test_feature_strings_match_persisted_models(self, gap, chars, prev):
        features = extract_features(self.PERSISTED_WORDS, gap, chars, GapLabel[prev], PROFILE)
        assert len(features) == len(set(features))
        assert set(features) == set(self.PERSISTED_FEATURES[gap, chars, prev].split())


def _pairs(rows):
    """A feature -> row mapping as non-zero (feature, label) -> weight pairs."""
    return {
        (feature, label): value
        for feature, row in rows.items()
        for label, value in zip(GapLabel, row)
        if value != 0.0
    }


class TestAveragedWeights:
    def test_matches_naive_snapshot_average(self):
        # oracle: replay the same updates keeping explicit snapshots
        script = [
            (1, ("f1", GapLabel.EOL), 1.0),
            (1, ("f2", GapLabel.EOB), 2.0),
            (3, ("f1", GapLabel.EOL), -0.5),
            (4, ("f1", GapLabel.EOL), 0.25),
            (4, ("f3", GapLabel.NONE), 1.0),
        ]
        total_steps = 6

        state = _AveragedWeights({"f0": (3.0, 0.0, 0.0)})
        naive = {("f0", GapLabel.NONE): 3.0}
        snapshots = []
        for step in range(1, total_steps + 1):
            state.step = step
            for at, key, delta in script:
                if at == step:
                    feature, label = key
                    state.bump([feature], label, delta)
                    naive[key] = naive.get(key, 0.0) + delta
            snapshots.append(dict(naive))

        keys = {key for snap in snapshots for key in snap}
        expected = {
            key: sum(snap.get(key, 0.0) for snap in snapshots) / total_steps for key in keys
        }
        expected = {k: v for k, v in expected.items() if v != 0.0}
        averaged = _pairs(state.averaged())
        assert set(averaged) == set(expected)
        for key in expected:
            assert averaged[key] == pytest.approx(expected[key])


@pytest.fixture(scope="module")
def gold_model():
    corpus = synth.make_corpus(150, seed=21)
    return train(corpus, TrainingConfig(epochs=8, seed=2)), corpus


@pytest.fixture(scope="module")
def collapsed_models():
    corpus, _ = synth.partially_collapsed_corpus(250, seed=5, keep_eol_fraction=0.2)
    base = train(corpus, TrainingConfig(epochs=6, seed=1))
    ft = fine_tune(base, [s for s in corpus if s.has_eol], TrainingConfig(epochs=4, seed=2))
    return base, ft


class TestTrain:
    def test_self_fit_reproduces_break_positions(self):
        rng = random.Random(11)
        plain = [
            " ".join(
                "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, 9)))
                for _ in range(rng.randint(4, 22))
            )
            for _ in range(300)
        ]
        corpus = [segment_count_char(text, seed=i) for i, text in enumerate(plain)]
        model = train(corpus, TrainingConfig(epochs=12, seed=3))
        gold_positions = matched = 0
        for reference in corpus:
            decoded = segment_learned(model, strip_breaks(reference))
            gold = {b.gap for b in extract_breaks(reference)}
            hyp = {b.gap for b in extract_breaks(decoded)}
            gold_positions += len(gold)
            matched += len(gold & hyp)
        assert matched / gold_positions >= 0.95

    def test_single_sentence_memorized_at_convergence(self):
        sentence = sent("the quick brown fox <eol> jumps over the lazy dog <eob>")
        model = train([sentence], TrainingConfig(epochs=10, seed=0))
        assert segment_learned(model, strip_breaks(sentence)) == sentence

    def test_deterministic_same_seed(self):
        corpus = synth.make_corpus(40, seed=8)
        one = train(corpus, TrainingConfig(epochs=3, seed=5))
        two = train(corpus, TrainingConfig(epochs=3, seed=5))
        assert one.weights == two.weights

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train([])

    def test_rejects_lenient_sentences(self):
        with pytest.raises(GrammarViolation):
            train([sent("a b c")])

    def test_meta_recorded(self, gold_model):
        model, _ = gold_model
        assert model.config == TrainingConfig(epochs=8, learning_rate=1.0, seed=2)
        assert not model.fine_tuned


class TestFineTune:
    def test_empty_subset(self, gold_model):
        with pytest.raises(EmptyCorpus):
            fine_tune(gold_model[0], [])

    def test_subset_violation(self, gold_model):
        with pytest.raises(SubsetViolation):
            fine_tune(gold_model[0], [sent("no line breaks here <eob>")])

    def test_zero_learning_rate_is_noop(self, gold_model):
        model, corpus = gold_model
        subset = [s for s in corpus if s.has_eol][:20]
        tuned = fine_tune(model, subset, TrainingConfig(epochs=2, learning_rate=0.0, seed=1))
        assert set(tuned.weights) == set(model.weights)
        for key, value in model.weights.items():
            assert tuned.weights[key] == pytest.approx(value)
        assert tuned.fine_tuned

    def test_fine_tuning_raises_eol_recall(self, collapsed_models):
        base, tuned = collapsed_models
        held_out = [s for s in synth.make_corpus(80, seed=77) if s.has_eol]

        def decode_pairs(model):
            return [(segment_learned(model, strip_breaks(ref)), ref) for ref in held_out]

        def eol_count(pairs):
            return sum(hyp.labels.count(GapLabel.EOL) for hyp, _ in pairs)

        base_pairs, tuned_pairs = decode_pairs(base), decode_pairs(tuned)
        assert eol_count(tuned_pairs) > eol_count(base_pairs)
        assert corpus_prf(tuned_pairs).recall > corpus_prf(base_pairs).recall


class TestSegmentLearned:
    def test_short_sentence_gets_terminal_eob_only(self, gold_model):
        model, _ = gold_model
        out = segment_learned(model, "tiny words here.")
        assert out.to_text() == "tiny words here. <eob>"

    def test_already_segmented_input_unchanged(self, gold_model):
        model, corpus = gold_model
        reference = next(s for s in corpus if s.has_eol)
        assert segment_learned(model, reference) == reference

    def test_existing_breaks_are_frozen(self, gold_model):
        model, _ = gold_model
        out = segment_learned(model, "one <eob> two three")
        assert extract_breaks(out)[0].gap == 1
        assert extract_breaks(out)[0].kind is GapLabel.EOB

    def test_output_equals_the_checked_construction(self, gold_model, collapsed_models):
        model, corpus = gold_model
        for sentence in corpus[:40]:
            assert_as_checked(segment_learned(model, " ".join(sentence.words)))
            assert_as_checked(segment_learned(model, sentence))
        base, _ = collapsed_models
        for sentence in corpus[:40]:
            assert_as_checked(segment_learned(base, sentence, mode="eol_only"))

    def test_eol_only_keeps_eobs(self, collapsed_models):
        _, tuned = collapsed_models
        collapsed = synth.strip_eols(synth.make_corpus(30, seed=123)[0])
        out = segment_learned(tuned, collapsed, mode="eol_only")
        assert [b for b in extract_breaks(out) if b.kind is GapLabel.EOB] == [
            b for b in extract_breaks(collapsed) if b.kind is GapLabel.EOB
        ]
        assert strip_breaks(out) == strip_breaks(collapsed)

    def test_eol_only_requires_terminal_eob(self, gold_model):
        with pytest.raises(GrammarViolation):
            segment_learned(gold_model[0], "a b c", mode="eol_only")

    @pytest.mark.parametrize("mode", ["full", "eol_only"])
    def test_rejects_a_final_line_break(self, gold_model, mode):
        with pytest.raises(GrammarViolation, match="input must not end with <eol>"):
            segment_learned(gold_model[0], "a b <eol>", mode=mode)

    def test_rejects_overfull_input_block(self, gold_model):
        with pytest.raises(GrammarViolation, match="more than 2 lines"):
            segment_learned(gold_model[0], "a <eol> b <eol> c <eob>")

    def test_frozen_line_break_counts_toward_the_block(self):
        # an added <eol> before the frozen one would make a three-line block
        model = LinearSegmenterModel(
            weights={"w=alpha": (0.0, 5.0, 0.0)}, config=TrainingConfig(1), fine_tuned=False
        )
        source = "alpha bravo <eol> charlie <eob>"
        assert segment_learned(model, source, mode="eol_only").to_text() == source
        assert segment_learned(model, "alpha bravo <eol> charlie").to_text() == source
        assert segment_learned(model, "alpha bravo charlie").to_text() == (
            "alpha <eol> bravo charlie <eob>"
        )

    def test_unknown_mode(self, gold_model):
        with pytest.raises(ValueError):
            segment_learned(gold_model[0], "a b", mode="both")

    def test_text_preservation_fuzz(self, collapsed_models):
        _, tuned = collapsed_models
        for i, text in enumerate(synth.make_plain_sentences(150, seed=31)):
            out = segment_learned(tuned, text)
            assert strip_breaks(out) == normalize_text(text)
            out.validate_strict()
            out_baseline = segment_count_char(text, seed=i)
            assert strip_breaks(out_baseline) == normalize_text(text)

    def test_outputs_respect_line_cap_even_with_weird_profiles(self, collapsed_models):
        _, tuned = collapsed_models
        profile = ConstraintProfile(cpl_limit=30, max_lines_per_block=3)
        for text in synth.make_plain_sentences(40, seed=32):
            out = segment_learned(tuned, text, profile)
            assert check_lines(out, profile)
            assert out.labels[-1] is GapLabel.EOB


def _legal_label_paths(n_gaps, frozen, open_labels, max_lines=2):
    """Independent enumeration of every grammatical label assignment."""
    paths = []

    def walk(prefix, eols_in_block):
        gap = len(prefix) + 1
        if gap > n_gaps:
            paths.append(tuple(prefix))
            return
        if gap in frozen:
            options = (frozen[gap],)
        elif gap == n_gaps:
            options = (GapLabel.EOB,)
        else:
            options = open_labels
        for label in options:
            if label is GapLabel.EOL and eols_in_block + 2 > max_lines:
                continue
            if label is GapLabel.EOL:
                walk(prefix + [label], eols_in_block + 1)
            elif label is GapLabel.EOB:
                walk(prefix + [label], 0)
            else:
                walk(prefix + [label], eols_in_block)

    walk([], 0)
    return paths


@functools.lru_cache(maxsize=None)
def _oracle_features(words, gap, chars, prev, profile):
    return tuple(extract_features(words, gap, chars, prev, profile))


def _path_features(words, labels, profile):
    """Independent walk of the state machine: the features of every gap."""
    chars = len(words[0])
    prev = GapLabel.EOB
    for gap in range(1, len(words) + 1):
        label = labels[gap - 1]
        yield _oracle_features(words, gap, chars, prev, profile), label
        if gap < len(words):
            if label is GapLabel.NONE:
                chars += 1 + len(words[gap])
            else:
                chars, prev = len(words[gap]), label


def _path_score(words, labels, weights, profile=PROFILE):
    """Independent scorer: sums the weights along the walked path."""
    score = 0.0
    for features, label in _path_features(words, labels, profile):
        for feature in features:
            score += weights.get(feature, (0.0, 0.0, 0.0))[label]
    return score


def _random_model(words_sets, seed, profile=PROFILE, integer=False):
    """Weights for every feature reachable on a legal path; ``integer``
    weights in -1..1 make many paths tie exactly."""
    rng = random.Random(seed)
    features = set()
    for words in words_sets:
        paths = _legal_label_paths(
            len(words), {}, (GapLabel.NONE, GapLabel.EOL, GapLabel.EOB), profile.max_lines_per_block
        )
        for labels in paths:
            for gap_features, _ in _path_features(words, labels, profile):
                features.update(gap_features)
    weights = {
        feature: tuple(rng.randint(-1, 1) if integer else rng.uniform(-1, 1) for _ in GapLabel)
        for feature in sorted(features)
    }
    return LinearSegmenterModel(weights, TrainingConfig(1, 1.0, seed), fine_tuned=False)


class TestDecodeAgainstEnumeration:
    WORD_SETS = [
        ("aa", "bb", "cc"),
        ("one", "two,", "three", "four."),
        ("al", "be", "ce", "de", "ee", "ef"),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_full_mode_matches_exhaustive_argmax(self, seed):
        for words in self.WORD_SETS:
            model = _random_model([words], seed)
            paths = _legal_label_paths(len(words), {}, (GapLabel.NONE, GapLabel.EOL, GapLabel.EOB))
            best = min(
                paths, key=lambda labels: (-_path_score(words, labels, model.weights), labels)
            )
            decoded = segment_learned(model, " ".join(words))
            assert segment_learned(model, " ".join(words)) == decoded
            assert decoded.labels == best

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_eol_only_matches_exhaustive_argmax(self, seed):
        words = ("aaa", "bb", "cc", "dd", "ee", "ff")
        frozen = {3: GapLabel.EOB, 6: GapLabel.EOB}
        model = _random_model([words], seed)
        paths = _legal_label_paths(len(words), frozen, (GapLabel.NONE, GapLabel.EOL))
        best = min(paths, key=lambda labels: (-_path_score(words, labels, model.weights), labels))
        source = AnnotatedSentence(words, (0, 0, GapLabel.EOB, 0, 0, GapLabel.EOB))
        decoded = segment_learned(model, source, mode="eol_only")
        assert decoded.labels == best


class TestExactDecode:
    """The decoder returns the exhaustive-search argmax, ties going to the
    lexicographically smallest label sequence, on random models and short
    sentences with random frozen breaks."""

    # (profile, fewest words, shortest word, longest word); eight words of
    # 8-12 characters make lines longer than the 60-character feature clamp
    # and than a 70-character line limit
    PROFILES = {
        "default": (PROFILE, 1, 1, 9),
        "narrow": (ConstraintProfile(cpl_limit=12), 8, 8, 12),
        "wide": (ConstraintProfile(cpl_limit=70, max_lines_per_block=3), 8, 8, 12),
    }

    @staticmethod
    def _case(rng, profile, min_words, min_len, max_len, mode):
        n = rng.randint(min_words, 8)
        words = tuple(
            "".join(rng.choice("abcdef") for _ in range(rng.randint(min_len, max_len)))
            + ("" if rng.random() < 0.7 else rng.choice(",."))
            for _ in range(n)
        )
        frozen, eols = {}, 0
        for gap in range(1, n):
            roll = rng.random()
            if roll < 0.15:
                frozen[gap], eols = GapLabel.EOB, 0
            elif roll < 0.3 and eols + 2 <= profile.max_lines_per_block:
                frozen[gap], eols = GapLabel.EOL, eols + 1
        if mode == "eol_only" or rng.random() < 0.5:
            frozen[n] = GapLabel.EOB
        labels = [frozen.get(gap, GapLabel.NONE) for gap in range(1, n + 1)]
        return words, frozen, AnnotatedSentence(words, labels)

    @pytest.mark.parametrize("integer", [False, True], ids=["uniform", "integer"])
    @pytest.mark.parametrize("mode", ["full", "eol_only"])
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_matches_exhaustive_argmax(self, profile_name, mode, integer):
        profile, min_words, min_len, max_len = self.PROFILES[profile_name]
        open_labels = (
            (GapLabel.NONE, GapLabel.EOL, GapLabel.EOB) if mode == "full"
            else (GapLabel.NONE, GapLabel.EOL)
        )
        rng = random.Random(f"{profile_name}-{mode}-{integer}")
        for seed in range(6):
            words, frozen, source = self._case(rng, profile, min_words, min_len, max_len, mode)
            model = _random_model([words], seed, profile, integer)
            paths = _legal_label_paths(len(words), frozen, open_labels, profile.max_lines_per_block)
            best = min(
                paths,
                key=lambda labels: (-_path_score(words, labels, model.weights, profile), labels),
            )
            decoded = segment_learned(model, source, profile, mode=mode)
            assert decoded.labels == best
            assert segment_learned(model, source, profile, mode=mode) == decoded
            assert check_lines(decoded, profile)

    def test_zero_model_takes_smallest_labels(self):
        empty = LinearSegmenterModel(weights={}, config=TrainingConfig(1), fine_tuned=False)
        out = segment_learned(empty, "one two <eol> three four five")
        assert out.to_text() == "one two <eol> three four five <eob>"


class TestDecoderCaches:
    """The decoder's caches change no result: state rows kept on a model
    score like fresh ones, and the transition cache stays bounded."""

    WORDS = st.text("ab,.", min_size=1, max_size=13)

    @settings(max_examples=60, deadline=None)
    @given(
        sentences=st.lists(
            st.lists(WORDS, min_size=1, max_size=6).map(tuple), min_size=2, max_size=3
        ),
        seed=st.integers(0, 2**16),
        profile_name=st.sampled_from(sorted(TestExactDecode.PROFILES)),
        open_labels=st.sampled_from([_ALL_LABELS, _EOL_ONLY_LABELS]),
    )
    def test_warm_state_rows_decode_like_cold_ones(self, sentences, seed, profile_name, open_labels):
        profile = TestExactDecode.PROFILES[profile_name][0]
        model = _random_model(sentences, seed, profile)
        # the second round reads every state row from the model's cache,
        # filled by sentences with other punctuation tails
        for words in sentences + sentences:
            warm = _decode(words, model.weights, profile, {}, open_labels, model._state_rows)
            cold = _decode(words, model.weights, profile, {}, open_labels, {})
            assert warm == cold

    def test_cached_rows_are_not_part_of_the_model(self, gold_model):
        model, corpus = gold_model
        segment_learned(model, strip_breaks(corpus[0]))
        assert model._state_rows
        assert parse_model(dump_model(model)) == model

    def test_tail_key_tables_hold_the_state_features_of_every_key(self):
        tails = ["", *sorted(segmenters._PUNCTUATION)]
        assert segmenters._tail_keys.cache_info().maxsize == len(tails)
        for tail in tails:
            table = segmenters._tail_keys(tail)
            assert len(table) == len(_KEYS) == 96
            for key, features in enumerate(table):
                assert features == _state_features(tail, *_KEYS[key])

    def test_transition_cache_is_bounded_by_the_profile(self):
        def run(long_word):
            words = ["a", "bb,", long_word, "cc", "d.", "e", long_word, "f"]
            model = LinearSegmenterModel({}, TrainingConfig(1), fine_tuned=False)
            segment_learned(model, " ".join(words), PROFILE)
            train([sent(" ".join(words[:3]) + " <eob> " + " ".join(words[3:]) + " <eob>")],
                  TrainingConfig(epochs=1), PROFILE)
            return _table.cache_info().currsize

        _table.cache_clear()
        tables = run("x" * 500)
        clamp = _char_clamp(PROFILE)
        # one decoder table per clamped next-word length
        assert 0 < tables <= clamp + 1
        # a longer word is clamped to the same line length: no new entries
        assert run("y" * 700) == tables


def _step(state, next_len, clamp, cpl_limit):
    """Reference transition on (chars, prev, eols) state tuples: the state's
    feature key, and the states after labelling its gap NONE, EOL and EOB
    when the next word has ``next_len`` (clamped) characters.  The decoder
    packs the same machine into integer ids; this copy is the oracle its
    tables are checked against, so it is kept out of the package."""
    chars, prev, eols = state
    overflow = next_len > 0 and chars + 1 + next_len > cpl_limit
    return (min(chars // 4, 15), prev, overflow), (
        (min(chars + 1 + next_len, clamp), prev, eols),
        (next_len, GapLabel.EOL, eols + 1),
        (next_len, GapLabel.EOB, 0),
    )


def _start(words, clamp, cpl_limit):
    """Reference start state: a sentence starts as if after an ``<eob>``."""
    return _step((0, GapLabel.EOB, 0), min(len(words[0]), clamp), clamp, cpl_limit)[1][GapLabel.EOB]


class TestTransitionTables:
    """The packed transition tables are ``_step`` for every state and every
    clamped next length, the ``<eol>`` past the line cap marked -1."""

    @staticmethod
    def _unpack(state_id, max_lines):
        chars, rest = divmod(state_id, 3 * max_lines)
        prev, eols = divmod(rest, max_lines)
        return chars, GapLabel(prev), eols

    @pytest.mark.parametrize("profile_name", ["default", "narrow", "wide", "one-line"])
    def test_tables_match_the_reference_step(self, profile_name):
        profile = TestTableDecode.PROFILES[profile_name]
        clamp, cpl_limit = _char_clamp(profile), profile.cpl_limit
        max_lines = profile.max_lines_per_block
        states = (clamp + 1) * 3 * max_lines
        for next_len in range(clamp + 1):
            key_ids, *successors = _table(next_len, clamp, cpl_limit, max_lines)
            assert len(key_ids) == states
            for state_id in range(states):
                state = self._unpack(state_id, max_lines)
                key, expected = _step(state, next_len, clamp, cpl_limit)
                assert _KEYS[key_ids[state_id]] == key
                for ids, after in zip(successors, expected):
                    if after[2] < max_lines:
                        assert self._unpack(ids[state_id], max_lines) == after
                    else:
                        assert ids[state_id] == -1
        # a first word past the clamp starts like a clamped one
        for first_len in range(1, clamp + 3):
            words = ["x" * first_len, "y"]
            start = segmenters._start(words, clamp, cpl_limit, max_lines)
            assert self._unpack(start, max_lines) == _start(words, clamp, cpl_limit)


def _dict_decode(words, weights, profile, frozen, open_labels, state_rows):
    """Reference decode over state tuples, with state rows keyed by the state
    key tuple: the decoder as it was before the transition tables."""
    clamp = _char_clamp(profile)
    cpl_limit = profile.cpl_limit
    max_eols = profile.max_lines_per_block - 1
    last = len(words)
    frontier = {_start(words, clamp, cpl_limit): (0.0, ())}
    to_end = len(" ".join(words))
    for gap, word in enumerate(words, start=1):
        to_end = max(to_end - len(word) - 1, 0)
        features, tail, next_len = _gap_features(words, gap, to_end)
        next_len = min(next_len, clamp)
        gap_row = _score(features, weights)
        rows = state_rows.setdefault(tail, {})
        forced = frozen.get(gap, GapLabel.EOB if gap == last else None)
        options = open_labels if forced is None else (forced,)
        closed = tuple(label for label in options if label is not GapLabel.EOL)
        expanded = {}
        for state, (cost, labels) in frontier.items():
            key, successors = _step(state, next_len, clamp, cpl_limit)
            state_row = rows.get(key)
            if state_row is None:
                state_row = rows[key] = _score(_state_features(tail, *key), weights)
            for label in closed if state[2] >= max_eols else options:
                new_cost = cost - gap_row[label] - state_row[label]
                after = successors[label]
                held = expanded.get(after)
                if (
                    held is None
                    or new_cost < held[0]
                    or (new_cost == held[0] and labels + (label,) < held[1])
                ):
                    expanded[after] = (new_cost, labels + (label,))
        frontier = expanded
    cost, labels = min(frontier.values())
    return labels, -cost


class _SeededWeights:
    """A weight row for any feature string, drawn from the string and a seed;
    about one feature in five has none.  ``integer`` rows, half of them 0 and
    the rest -1 or 1, make many paths tie exactly."""

    def __init__(self, seed, integer):
        self.seed, self.integer, self.rows = seed, integer, {}

    def get(self, feature, default=None):
        if feature not in self.rows:
            rng = random.Random(f"{self.seed}:{feature}")
            if rng.random() < 0.2:
                self.rows[feature] = None
            elif self.integer:
                self.rows[feature] = tuple(float(rng.choice((-1, 0, 0, 1))) for _ in GapLabel)
            else:
                self.rows[feature] = tuple(rng.uniform(-1, 1) for _ in GapLabel)
        row = self.rows[feature]
        return default if row is None else row


class TestTableDecode:
    """The table-driven decoder gives the dict-based reference's labels and
    score bit for bit, on sentences too long for the exhaustive oracle."""

    PROFILES = {
        "default": PROFILE,
        "narrow": ConstraintProfile(cpl_limit=12),
        "wide": ConstraintProfile(cpl_limit=70, max_lines_per_block=3),
        "one-line": ConstraintProfile(max_lines_per_block=1),
    }
    # up to 70 characters: lines pass the clamp, and a next word of clamp
    # length sends a line break and a NONE into the same state
    WORDS = st.one_of(
        st.text("ab,.", min_size=1, max_size=8),
        st.text("ab,.", min_size=1, max_size=70),
        st.sampled_from([59, 60, 61, 69, 70]).map(lambda n: "a" * n),
    )

    @staticmethod
    def _frozen(n, rolls, max_lines, eol_only):
        frozen, eols = {}, 0
        for gap, roll in zip(range(1, n), rolls):
            if roll == 1:
                frozen[gap], eols = GapLabel.EOB, 0
            elif roll == 2 and eols + 2 <= max_lines:
                frozen[gap], eols = GapLabel.EOL, eols + 1
        if eol_only:
            frozen[n] = GapLabel.EOB
        return frozen

    @settings(max_examples=300, deadline=None)
    @given(
        sentences=st.lists(st.lists(WORDS, min_size=1, max_size=30), min_size=1, max_size=3),
        rolls=st.lists(st.sampled_from([0, 0, 0, 0, 1, 2]), max_size=29),
        profile_name=st.sampled_from(sorted(PROFILES)),
        eol_only=st.booleans(),
        integer=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_dict_decoder(self, sentences, rolls, profile_name, eol_only, integer, seed):
        profile = self.PROFILES[profile_name]
        open_labels = _EOL_ONLY_LABELS if eol_only else _ALL_LABELS
        weights = _SeededWeights(seed, integer)
        warm_rows = {}
        # the second round reads the state rows the first one left
        for words in sentences + sentences:
            frozen = self._frozen(len(words), rolls, profile.max_lines_per_block, eol_only)
            expected = _dict_decode(words, weights, profile, frozen, open_labels, {})
            for rows in (warm_rows, {}):
                labels, score = _decode(words, weights, profile, frozen, open_labels, rows)
                assert (labels, score) == expected
                assert all(type(label) is GapLabel for label in labels)
                assert repr(score) == repr(expected[1])

    # gap 1 is "a"*10, gap 2 is "b"*5 and its next word has the clamp's 60
    # characters, so after gap 2 every line is clamped
    CLAMPED = ("a" * 10, "b" * 5, "c" * 60, "d")

    @pytest.mark.parametrize(
        "weights, expected",
        [
            # at (60, EOL, 1) the NONE after an <eol> beats the <eol> after a NONE
            ({"w=" + "a" * 10: (0.0, 2.0, 0.0)}, ("EOL", "NONE", "NONE", "EOB")),
            # there the <eol> wins
            ({"n=" + "c" * 60: (0.0, 1.0, 0.0)}, ("NONE", "EOL", "NONE", "EOB")),
            # at (60, EOB, 0) two NONEs and the best <eob> meet; the first NONE
            # ties the <eob> and wins as the smaller path
            ({"w=" + "a" * 10: (2.0, 0.0, 0.0)}, ("NONE", "NONE", "NONE", "EOB")),
            # at (60, EOL, 1) the NONE after an <eol> and the <eol> after a
            # NONE tie; the <eol> is on the smaller path
            ({"w=" + "a" * 10: (0.0, 1.0, 0.0), "n=" + "c" * 60: (0.0, 1.0, 0.0)},
             ("NONE", "EOL", "NONE", "EOB")),
        ],
    )
    def test_a_clamped_none_meets_a_line_break(self, weights, expected):
        clamp = _char_clamp(PROFILE)
        key_ids, none_ids, eol_ids, eob_ids = _table(clamp, clamp, PROFILE.cpl_limit, 2)
        state = segmenters._state_id
        assert none_ids[state(5, GapLabel.EOL, 1, 2)] == eol_ids[state(16, GapLabel.EOB, 0, 2)]
        assert none_ids[state(5, GapLabel.EOB, 0, 2)] == none_ids[state(16, GapLabel.EOB, 0, 2)]
        assert none_ids[state(16, GapLabel.EOB, 0, 2)] == eob_ids[0]
        labels, score = _decode(self.CLAMPED, weights, PROFILE, {}, _ALL_LABELS, {})
        assert (labels, score) == _dict_decode(self.CLAMPED, weights, PROFILE, {}, _ALL_LABELS, {})
        assert tuple(label.name for label in labels) == expected

    @pytest.mark.parametrize(
        "weights, expected",
        [
            # every state after gap 2 has scored 0, so all their <eob>s tie at 1
            ({"w=c": (0.0, 0.0, 1.0)}, ("NONE", "NONE", "EOB", "NONE", "EOB")),
            # an <eob> after an <eol> scores 1 more, so those <eob>s tie
            # among themselves at gap 3 and the last gap's <eob> wants one too
            ({"w=c": (0.0, 0.0, 1.0), "prev=EOL": (0.0, 0.0, 1.0)}, ("NONE", "EOL", "EOB", "EOL", "EOB")),
        ],
    )
    def test_tied_eob_moves_keep_the_smallest_path(self, weights, expected):
        words = ("a", "b", "c", "d", "e")
        labels, score = _decode(words, weights, PROFILE, {}, _ALL_LABELS, {})
        assert (labels, score) == _dict_decode(words, weights, PROFILE, {}, _ALL_LABELS, {})
        assert tuple(label.name for label in labels) == expected


def _reference_extract_features(words, gap, chars, prev, profile):
    """Reference feature extraction, spelled out per call: the gap features
    from their own f-strings, with ``words[gap:]`` joined for ``to_end``, and
    the state key from ``_step``."""
    word = words[gap - 1]
    tail = word[-1] if word[-1] in ".,;:!?…\"')»]}" else ""
    next_len = len(words[gap]) if gap < len(words) else 0
    clamp = _char_clamp(profile)
    key, _ = _step((min(chars, clamp), prev, 0), min(next_len, clamp), clamp, profile.cpl_limit)
    if gap == len(words):
        return list(_state_features(tail, *key))
    nxt = words[gap]
    return [
        f"to_end={min(len(' '.join(words[gap:])) // 4, 15)}",
        f"w={word}",
        f"wlen={len(word)}",
        f"n={nxt}",
        f"nlen={len(nxt)}",
        f"punct={int(bool(tail))}",
        f"tail={tail}",
        f"pos={(10 * gap) // len(words)}",
        *_state_features(tail, *key),
    ]


def _reference_path_steps(words, labels, profile):
    """Reference path walk over state tuples stepped by ``_step``."""
    clamp = _char_clamp(profile)
    state = _start(words, clamp, profile.cpl_limit)
    for gap, label in enumerate(labels, start=1):
        chars, prev, _ = state
        yield _reference_extract_features(words, gap, chars, prev, profile), label
        next_len = min(len(words[gap]), clamp) if gap < len(words) else 0
        state = _step(state, next_len, clamp, profile.cpl_limit)[1][label]


def _reference_update(weights, words, gold, predicted, profile, rate):
    """The dense perceptron update: every gap of the gold path bumped by
    ``rate``, then every gap of the predicted path by ``-rate``."""
    for features, label in _reference_path_steps(words, gold, profile):
        weights.bump(features, label, rate)
    for features, label in _reference_path_steps(words, predicted, profile):
        weights.bump(features, label, -rate)


def _settled(weights):
    """Each feature's weights and its sums over the snapshots before the
    current step, bit for bit; rows that hold only zeros are left out."""
    settled = {}
    for feature, row in weights.rows.items():
        sums = [row[label + 3] + (weights.step - row[label + 6]) * row[label] for label in _ALL_LABELS]
        if any(row[:3]) or any(sums):
            settled[feature] = repr((*row[:3], *sums))
    return settled


def _grammatical(labels, max_lines):
    """``labels`` with every ``<eol>`` that would pass the line cap made an ``<eob>``."""
    fixed, eols = [], 0
    for label in labels:
        if label is GapLabel.EOL and eols + 2 > max_lines:
            label = GapLabel.EOB
        eols = eols + 1 if label is GapLabel.EOL else 0 if label is GapLabel.EOB else eols
        fixed.append(label)
    return fixed


class TestFeaturePass:
    """``extract_features`` and the training update read the shared
    sentence pass and the transition tables, and give the per-call
    reference's feature lists and weights."""

    # every punctuation tail, on words up to past the prebuilt length strings
    WORDS = st.one_of(
        st.text("ab" + "".join(sorted(segmenters._PUNCTUATION)), min_size=1, max_size=8),
        TestTableDecode.WORDS,
    )

    @settings(max_examples=300, deadline=None)
    @given(
        words=st.lists(WORDS, min_size=1, max_size=20),
        profile_name=st.sampled_from(sorted(TestTableDecode.PROFILES)),
        data=st.data(),
    )
    def test_extract_features_matches_the_reference(self, words, profile_name, data):
        profile = TestTableDecode.PROFILES[profile_name]
        gap = data.draw(st.integers(1, len(words)), label="gap")
        # line characters run past the clamp
        chars = data.draw(st.integers(0, 2 * _char_clamp(profile)), label="chars")
        prev = data.draw(st.sampled_from(_ALL_LABELS), label="prev")
        expected = _reference_extract_features(words, gap, chars, prev, profile)
        assert extract_features(words, gap, chars, prev, profile) == expected
        assert extract_features(tuple(words), gap, chars, prev, profile) == expected

    def test_long_words_format_their_own_lengths(self):
        words = ("x" * 700, "y" * 700, "z")
        features = extract_features(words, 1, 0, GapLabel.EOB, PROFILE)
        assert {"wlen=700", "nlen=700"} <= set(features)
        assert features == _reference_extract_features(words, 1, 0, GapLabel.EOB, PROFILE)

    @settings(max_examples=300, deadline=None)
    @given(
        words=st.lists(WORDS, min_size=1, max_size=30),
        profile_name=st.sampled_from(sorted(TestTableDecode.PROFILES)),
        rate=st.sampled_from([0.5, 1.0, 2.0]),
        data=st.data(),
    )
    def test_sparse_update_matches_the_dense_reference(self, words, profile_name, rate, data):
        profile = TestTableDecode.PROFILES[profile_name]
        max_lines = profile.max_lines_per_block
        labels = st.sampled_from(_ALL_LABELS)
        gold = _grammatical(data.draw(st.lists(labels, min_size=len(words), max_size=len(words))), max_lines)
        # mostly gold's labels, so the paths share stretches, part and meet again
        edits = data.draw(st.lists(st.one_of(st.none(), labels), min_size=len(words), max_size=len(words)))
        predicted = _grammatical([g if e is None else e for g, e in zip(gold, edits)], max_lines)
        features = sorted({
            feature
            for path in (gold, predicted)
            for gap_features, _ in _reference_path_steps(words, path, profile)
            for feature in gap_features
        })
        rows = st.tuples(*[st.integers(-3, 3).map(float)] * 3)
        initial = data.draw(st.dictionaries(st.sampled_from(features), rows), label="initial")
        step = data.draw(st.integers(1, 5), label="step")

        dense, sparse = _AveragedWeights(initial), _AveragedWeights(initial)
        dense.step = sparse.step = step
        _reference_update(dense, words, gold, predicted, profile, rate)
        for features, label, sign in _path_differences(words, gold, predicted, profile):
            sparse.bump(features, label, sign * rate)
        assert _settled(sparse) == _settled(dense)
        averaged = sparse.averaged()
        assert averaged == dense.averaged()
        assert {f: repr(row) for f, row in averaged.items()} == {
            f: repr(row) for f, row in dense.averaged().items()
        }

    def test_path_past_the_line_cap_fails(self):
        over = (GapLabel.EOL, GapLabel.EOL, GapLabel.EOB)
        fine = (GapLabel.NONE, GapLabel.EOL, GapLabel.EOB)
        # on either side, and where the paths agree up to the bad gap
        for gold, predicted in ((over, fine), (fine, over), (over, over)):
            with pytest.raises(ValueError, match="^gap 2: an <eol> past the block's line cap$"):
                list(_path_differences(("a", "b", "c"), gold, predicted, PROFILE))

    def test_holds_only_the_latest_sentence(self):
        assert _sentence_pass.cache_info().maxsize == 1

    def test_one_fill_serves_a_training_step(self):
        gold = sent("alpha bravo <eol> charlie delta <eob>")
        predicted = (GapLabel.NONE, GapLabel.NONE, GapLabel.NONE, GapLabel.EOB)
        # the paths part at gap 2 and stay in different states to the end
        clamp = _char_clamp(PROFILE)
        differing = 0
        mine = theirs = _start(gold.words, clamp, PROFILE.cpl_limit)
        for gap, (label, guess) in enumerate(zip(gold.labels, predicted), start=1):
            differing += mine != theirs or label != guess
            next_len = len(gold.words[gap]) if gap < len(gold.words) else 0
            mine = _step(mine, next_len, clamp, PROFILE.cpl_limit)[1][label]
            theirs = _step(theirs, next_len, clamp, PROFILE.cpl_limit)[1][guess]
        assert differing == 3
        _sentence_pass.cache_clear()
        # the zero model decodes no <eol>: a mistake, and each side of every
        # gap where the paths differ reads the decode's pass once
        train([gold], TrainingConfig(epochs=1), PROFILE)
        info = _sentence_pass.cache_info()
        assert info.misses == 1
        assert info.hits == 2 * differing
        assert _decode(gold.words, {}, PROFILE, {}, _ALL_LABELS, {})[0] == predicted

    def test_concurrent_decodes_match_serial(self, gold_model):
        model, corpus = gold_model
        sentences = [strip_breaks(sentence) for sentence in corpus[:40]]

        def fresh():  # cold state rows, filled by the decodes themselves
            return LinearSegmenterModel(model.weights, model.config, model.fine_tuned)

        serial_model, shared = fresh(), fresh()
        serial = [segment_learned(serial_model, sentence) for sentence in sentences]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(pool.map(lambda s: segment_learned(shared, s), sentences, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial


class TestModelPersistence:
    def test_round_trip(self, gold_model):
        model, _ = gold_model
        loaded = parse_model(dump_model(model))
        assert loaded.weights == model.weights
        assert loaded.config == model.config
        assert loaded.fine_tuned == model.fine_tuned

    def test_file_round_trip(self, tmp_path, gold_model):
        model, corpus = gold_model
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        text = strip_breaks(corpus[0])
        assert segment_learned(loaded, text) == segment_learned(model, text)

    def test_dump_is_deterministic(self, gold_model):
        model, _ = gold_model
        assert dump_model(model) == dump_model(model)

    def test_unknown_version_fails(self, gold_model):
        dumped = dump_model(gold_model[0]).replace("version\t1", "version\t99", 1)
        with pytest.raises(ModelFormatError):
            parse_model(dumped)

    def test_truncated_file_fails(self):
        with pytest.raises(ModelFormatError):
            parse_model("version\t1\nepochs\t3\n")

    def test_header_is_checked_like_a_training_config(self, gold_model):
        dumped = dump_model(gold_model[0]).replace("epochs\t8\n", "epochs\t0\n", 1)
        with pytest.raises(ModelFormatError, match="epochs must be >= 1"):
            parse_model(dumped)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_header_rejects_a_non_finite_learning_rate(self, gold_model, value):
        dumped = dump_model(gold_model[0]).replace(
            "learning_rate\t1.0\n", f"learning_rate\t{value}\n", 1
        )
        assert f"learning_rate\t{value}\n" in dumped
        with pytest.raises(ModelFormatError, match="learning rate must be finite"):
            parse_model(dumped)

    V1_MODEL = Path(__file__).parent / "data" / "model_v1.tsv"

    def test_version_1_file_still_loads_and_decodes(self):
        text = self.V1_MODEL.read_text(encoding="utf-8")
        model = parse_model(text)
        assert model.config == TrainingConfig(epochs=2, learning_rate=1.0, seed=1)
        assert not model.fine_tuned
        assert len(model.weights) == 115  # features, holding 230 (feature, label) weights
        assert len(_pairs(model.weights)) == 230
        assert dump_model(model) == text
        for reference in synth.make_corpus(3, seed=2):
            decoded = segment_learned(model, strip_breaks(reference))
            assert decoded == reference
            assert segment_learned(model, strip_breaks(reference)) == decoded

    def test_bad_record_fails(self, gold_model):
        dumped = dump_model(gold_model[0]) + "broken record line\n"
        with pytest.raises(ModelFormatError):
            parse_model(dumped)

    HEADER = "version\t1\nepochs\t2\nlearning_rate\t1.0\nseed\t1\nfine_tuned\tfalse\n"

    @pytest.mark.parametrize("value", ["yes", "True", "1", ""])
    def test_fine_tuned_must_be_true_or_false(self, value):
        text = self.HEADER.replace("fine_tuned\tfalse", f"fine_tuned\t{value}") + "weights\n"
        with pytest.raises(ModelFormatError, match=rf"model line 5: .*'fine_tuned\\t{value}'"):
            parse_model(text)

    def test_header_line_without_a_tab_fails(self):
        with pytest.raises(ModelFormatError, match=r"model line 6: bad header line 'seed 2'"):
            parse_model(self.HEADER + "seed 2\nweights\n")

    def test_blank_lines_among_the_weights_are_skipped(self):
        model = parse_model(self.HEADER + "weights\nw=a\tEOL\t1.0\n\nw=b\tEOB\t2.0\n\n")
        assert model.weights == {"w=a": (0.0, 1.0, 0.0), "w=b": (0.0, 0.0, 2.0)}

    def test_unknown_header_key_fails(self):
        with pytest.raises(ModelFormatError, match=r"model line 6: unknown header key 'bogus\\tx'"):
            parse_model(self.HEADER + "bogus\tx\nweights\n")

    def test_repeated_header_key_fails(self):
        with pytest.raises(ModelFormatError, match=r"model line 6: repeated header key 'seed\\t2'"):
            parse_model(self.HEADER + "seed\t2\nweights\n")

    def test_bad_record_names_its_line(self):
        with pytest.raises(ModelFormatError, match=r"model line 8: bad weight record 'w=a\\tMAYBE\\t1.0'"):
            parse_model(self.HEADER + "weights\nw=a\tEOL\t1.0\nw=a\tMAYBE\t1.0\n")

    def test_repeated_weight_record_fails(self):
        text = self.HEADER + "weights\nw=a\tEOL\t1.0\nw=a\tEOB\t2.0\nw=a\tEOL\t5.0\n"
        with pytest.raises(ModelFormatError, match=r"model line 9: repeated weight record 'w=a\\tEOL\\t5.0'"):
            parse_model(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_weight_fails(self, value):
        text = self.HEADER + f"weights\nw=a\tEOL\t1.0\nw=b\tNONE\t{value}\n"
        with pytest.raises(ModelFormatError, match=rf"model line 8: non-finite weight 'w=b\\tNONE\\t{value}'"):
            parse_model(text)

    def test_weights_of_one_feature_may_come_in_any_order(self):
        text = self.HEADER + "weights\nw=a\tEOB\t2.0\nw=b\tEOL\t-0.5\nw=a\tNONE\t1.0\n"
        model = parse_model(text)
        assert model.weights == {"w=a": (1.0, 0.0, 2.0), "w=b": (0.0, -0.5, 0.0)}


class TestGoldenTraining:
    """Training and fine-tuning reproduce models committed from an earlier
    implementation of the trainer byte for byte, and decode like it."""

    DATA = Path(__file__).parent / "data"

    @pytest.fixture(scope="class")
    def models(self):
        corpus = synth.make_corpus(40, seed=8)
        base = train(corpus, TrainingConfig(epochs=3, seed=5))
        tuned = fine_tune(base, [s for s in corpus if s.has_eol], TrainingConfig(epochs=2, seed=5))
        return {"train": base, "fine_tune": tuned}

    @pytest.mark.parametrize("name", ["train", "fine_tune"])
    def test_dump_is_byte_identical(self, models, name):
        golden = (self.DATA / f"golden_{name}.tsv").read_text(encoding="utf-8")
        assert dump_model(models[name]) == golden
        assert parse_model(golden).weights == models[name].weights

    def test_decodes_held_out_sentences_as_before(self, models):
        records = (self.DATA / "golden_decodes.tsv").read_text(encoding="utf-8").splitlines()
        held_out = synth.make_corpus(20, seed=9)
        assert len(records) == 3 * len(held_out)
        for i, reference in enumerate(held_out):
            inputs = {
                "full": strip_breaks(reference),
                "eol_only": synth.strip_eols(reference),
            }
            for record in records[3 * i : 3 * i + 3]:
                name, mode, expected = record.split("\t")
                assert segment_learned(models[name], inputs[mode], mode=mode).to_text() == expected
