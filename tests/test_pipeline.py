import pytest

from subseg.annotate import (
    AnnotatedSentence,
    BreakToken,
    GrammarViolation,
    extract_breaks,
    render_srt,
    strip_breaks,
)
from subseg import pipeline
from subseg.constraints import ConstraintProfile, check_cpl, conformity_stats
from subseg.pipeline import (
    AlignmentLogEntry,
    IterationReport,
    build_corpus,
    preprocess_document,
    reannotate,
    reannotation_filter,
    stats,
)
from subseg.segmenters import DEFAULT_FINE_TUNE_EPOCHS, TrainingConfig, fine_tune, train
from subseg.srt_io import SegmentDuration, Subtitle, SubtitleDocument, Timestamp, parse_srt

import synth

PROFILE = ConstraintProfile()


def sent(text):
    return AnnotatedSentence.from_text(text)


class TestPreprocessDocument:
    def test_restores_collapsed_line(self):
        doc = SubtitleDocument(
            "t",
            (
                Subtitle(
                    1,
                    Timestamp(0),
                    Timestamp(1000),
                    ("that design is but a tool  to create function and beauty.",),
                ),
            ),
        )
        restored = preprocess_document(doc)
        assert restored.subtitles[0].lines == (
            "that design is but a tool",
            "to create function and beauty.",
        )

    def test_leaves_two_line_cues_alone(self):
        doc = SubtitleDocument(
            "t", (Subtitle(1, Timestamp(0), Timestamp(1000), ("has  double", "spaces  too")),)
        )
        assert preprocess_document(doc) == doc


class TestBuildCorpus:
    def test_figure_fragment(self, figure_srt, figure_sentence, figure_annotated):
        docs = [parse_srt(figure_srt, talk_id="talk1")]
        corpus, log = build_corpus(docs, [f"talk1\t{figure_sentence}"])
        assert [s.to_text() for s in corpus] == [figure_annotated]
        assert log[0].aligned

    def test_collapsed_cue_is_restored_before_alignment(self, figure_sentence, figure_annotated):
        collapsed = (
            "164\n00:08:57,020 --> 00:08:58,476\nI wanted to challenge the idea\n\n"
            "165\n00:08:58,500 --> 00:09:02,060\n"
            "that design is but a tool  to create function and beauty.\n\n"
        )
        corpus, log = build_corpus(
            [parse_srt(collapsed, talk_id="t")], [f"t\t{figure_sentence}"]
        )
        assert [s.to_text() for s in corpus] == [figure_annotated]

    def test_empty_inputs(self):
        corpus, log = build_corpus([], [])
        assert corpus == [] and log == []

    def test_failures_logged_not_fatal(self, figure_srt, figure_sentence):
        docs = [parse_srt(figure_srt, talk_id="talk1")]
        corpus, log = build_corpus(
            docs,
            [f"talk1\t{figure_sentence}", "talk1\ttotally unrelated words", "nope\tx"],
        )
        assert len(corpus) == 1
        assert [entry.aligned for entry in log] == [True, False, False]
        assert log[1].detail

    def test_given_line_numbers_and_broken_talks(self, figure_srt, figure_sentence):
        docs = [parse_srt(figure_srt, talk_id="talk1")]
        corpus, log = build_corpus(
            docs,
            ["", f"talk1\t{figure_sentence}", "", " ", f"talk2\t{figure_sentence}", "", "", "",
             "talk1\t "],
            broken_talks={"talk2": "talk2.srt: bad cue"},
        )
        assert len(corpus) == 1
        assert log == [
            AlignmentLogEntry(2, "talk1", aligned=True),
            AlignmentLogEntry(5, "talk2", aligned=False, detail="talk2.srt: bad cue"),
            AlignmentLogEntry(9, "talk1", aligned=False, detail="empty sentence"),
        ]

    def test_realigns_rendered_corpus(self):
        sentences = synth.make_corpus(50, seed=40)
        docs = []
        for i, sentence in enumerate(sentences):
            window = SegmentDuration(f"w{i}", 10.0 * i, 5.0)
            docs.append(SubtitleDocument(f"talk{i}", tuple(render_srt(sentence, window))))
        lines = [f"talk{i}\t{strip_breaks(s)}" for i, s in enumerate(sentences)]
        corpus, log = build_corpus(docs, lines)
        assert all(entry.aligned for entry in log)
        assert corpus == sentences


class TestReannotationFilter:
    def test_accepts_conforming_with_eol(self):
        assert reannotation_filter(sent("a tool <eol> of beauty <eob>"), PROFILE)

    def test_rejects_missing_eol(self):
        assert not reannotation_filter(sent("a tool of beauty <eob>"), PROFILE)

    def test_rejects_consecutive_eols(self):
        candidate = sent("a <eol> b <eol> c <eob>")
        assert not reannotation_filter(candidate, PROFILE)

    def test_rejects_overlong_line(self):
        candidate = AnnotatedSentence(("x" * 43, BreakToken.EOL, "y", BreakToken.EOB))
        assert not reannotation_filter(candidate, PROFILE)


@pytest.fixture(scope="module")
def collapsed_setup():
    corpus, gold = synth.partially_collapsed_corpus(160, seed=61, keep_eol_fraction=0.3)
    base = train(corpus, TrainingConfig(epochs=6, seed=3))
    return corpus, gold, base


class TestReannotate:
    def test_fully_conforming_corpus_is_untouched(self, collapsed_setup):
        _, gold, base = collapsed_setup
        out, model, reports = reannotate(gold, base, PROFILE, iterations=3)
        assert out == list(gold)
        assert reports[0].selected == 0
        assert reports[0].accepted == 0
        assert len(reports) == 1  # loop exits early

    def test_conformity_rises_and_never_falls(self, collapsed_setup):
        corpus, _, base = collapsed_setup
        before = conformity_stats(corpus, PROFILE).line_conformity()
        config = TrainingConfig(epochs=4, seed=3)
        out, model, reports = reannotate(corpus, base, PROFILE, config, iterations=3)
        after = conformity_stats(out, PROFILE).line_conformity()
        assert after > before
        for report in reports:
            assert report.conformity_after >= report.conformity_before
        for left, right in zip(reports, reports[1:]):
            assert right.conformity_before == left.conformity_after
        assert model.fine_tuned

    def test_rejected_sentences_unchanged_and_eobs_preserved(self, collapsed_setup):
        corpus, _, base = collapsed_setup
        config = TrainingConfig(epochs=4, seed=3)
        out, _, reports = reannotate(corpus, base, PROFILE, config)
        changed = 0
        for original, result in zip(corpus, out):
            if result == original:
                continue
            changed += 1
            original_eobs = [b for b in extract_breaks(original) if b.kind is BreakToken.EOB]
            result_eobs = [b for b in extract_breaks(result) if b.kind is BreakToken.EOB]
            assert result_eobs == original_eobs
            assert strip_breaks(result) == strip_breaks(original)
            assert result.has_eol
        assert changed == reports[0].accepted

    def test_pool_grows_cumulatively(self, collapsed_setup):
        corpus, _, base = collapsed_setup
        initial_pool = sum(1 for s in corpus if s.has_eol)
        config = TrainingConfig(epochs=4, seed=3)
        _, _, reports = reannotate(corpus, base, PROFILE, config, iterations=2)
        assert reports[0].pool_size == initial_pool + reports[0].accepted
        if len(reports) > 1:
            assert reports[1].pool_size >= reports[0].pool_size

    def test_zero_iterations(self, collapsed_setup):
        corpus, _, base = collapsed_setup
        out, model, reports = reannotate(corpus, base, PROFILE, iterations=0)
        assert out == list(corpus)
        assert reports == []
        assert model is base

    def test_measures_each_sentence_once_per_iteration(self, monkeypatch):
        corpus, _ = synth.reannotation_corpus(300, seed=5)
        base = train(corpus, TrainingConfig(epochs=2, seed=5))
        walked, checked = [], []

        def counted_stats(sentences, profile):
            sentences = list(sentences)
            walked.extend(sentences)
            return conformity_stats(sentences, profile)

        def counted_check(sentence, profile):
            checked.append(sentence)
            return check_cpl(sentence, profile)

        monkeypatch.setattr(pipeline, "conformity_stats", counted_stats)
        monkeypatch.setattr(pipeline, "check_cpl", counted_check)
        config = TrainingConfig(epochs=2, seed=6)
        _, _, reports = reannotate(corpus, base, PROFILE, config, iterations=3)
        assert [(r.selected, r.accepted) for r in reports] == [(247, 247), (0, 0)]
        # once up front, then once after the one iteration that fine-tuned
        assert len(walked) == 2 * len(corpus)
        # selection once per sentence, then the filter once per candidate
        assert len(checked) == len(corpus) + 247

    @pytest.mark.parametrize(
        "lenient, reason",
        [("a b c", "sentence must end with <eob>"), ("a <eol> b <eol> c <eob>", "block has 3 lines")],
    )
    def test_every_sentence_must_be_strict(self, collapsed_setup, lenient, reason):
        corpus, _, base = collapsed_setup
        with pytest.raises(GrammarViolation, match=reason):
            reannotate([*corpus, sent(lenient)], base, PROFILE)

    def test_an_iteration_that_accepts_nothing_ends_the_loop(self, collapsed_setup):
        _, _, base = collapsed_setup
        # no break can shorten a single over-long word, so nothing is accepted
        corpus = [sent("a tool <eol> of beauty <eob>"), sent(f"{'x' * 50} <eob>")]
        before = conformity_stats(corpus, PROFILE).line_conformity()
        out, _, reports = reannotate(corpus, base, PROFILE, TrainingConfig(epochs=1), iterations=3)
        assert out == corpus
        assert reports == [IterationReport(1, 1, 0, before, before, 1)]

    def test_fine_tunes_for_the_default_epochs_without_a_config(self, collapsed_setup):
        corpus, _, base = collapsed_setup
        pool = [s for s in corpus if s.has_eol]
        default = fine_tune(base, pool, TrainingConfig(epochs=DEFAULT_FINE_TUNE_EPOCHS), PROFILE)
        assert fine_tune(base, pool) == default
        assert reannotate(corpus, base, PROFILE)[1] == default

    def test_config_reaches_fine_tuning_unchanged(self, collapsed_setup):
        corpus, _, base = collapsed_setup
        config = TrainingConfig(epochs=1, seed=3)
        _, model, _ = reannotate(corpus, base, PROFILE, config)
        assert model.config == config
        assert model.fine_tuned


class TestStats:
    def test_empty_corpus(self):
        report = stats([])
        assert report.sentences == 0
        assert report.words == 0
        assert report.eol_fraction == 0.0

    def test_hand_counted_fixture(self):
        corpus = [
            sent("one two three <eob>"),
            sent("four five <eol> six <eob>"),
            sent("seven <eob> eight nine ten <eob>"),
        ]
        report = stats(corpus)
        assert report.sentences == 3
        assert report.words == 10  # break symbols excluded
        assert report.eol_fraction == pytest.approx(1 / 3)
        assert report.conformity.total_lines == 5
        assert report.conformity.orphan_lines == 1  # "six" is shorter than 5 characters

    def test_orphan_lines_counted(self):
        report = stats([sent("hi <eob> a much longer line here <eob>")])
        assert report.conformity.orphan_lines == 1  # "hi" has fewer than 5 characters

    def test_with_metadata(self):
        corpus = [sent("I wanted to challenge the idea <eob>")]
        metadata = [SegmentDuration("w", 537.02, 1.456)]
        report = stats(corpus, metadata)
        assert report.cps_measured == 1
        assert report.cps_conforming == 1

    @pytest.mark.parametrize("entries", [0, 2])
    def test_metadata_count_mismatch_raises(self, entries):
        metadata = [SegmentDuration("w", 0.0, 1.0)] * entries
        with pytest.raises(ValueError, match=f"^{entries} metadata entries, 1 corpus sentences$"):
            stats([sent("a <eob>")], metadata)

    def test_json_shape(self):
        data = stats([sent("a b <eob>")]).to_json_dict()
        assert {"sentences", "words", "eol_fraction", "orphan_lines", "conformity"} <= set(data)
