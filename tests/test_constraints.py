import pytest
from hypothesis import given, settings, strategies as st

from subseg.annotate import AnnotatedSentence
from subseg.constraints import (
    ConformityReport,
    ConstraintProfile,
    _block_line_lengths,
    check_cpl,
    check_cps,
    check_lines,
    conformity_stats,
    sentence_lines,
)
from subseg.pipeline import stats
from subseg.srt_io import SegmentDuration

from test_annotate import lenient_sentences, strict_sentences

PROFILE = ConstraintProfile()


def sent(text):
    return AnnotatedSentence.from_text(text)


class TestProfile:
    def test_defaults(self):
        assert (PROFILE.cpl_limit, PROFILE.cps_limit) == (42, 21.0)
        assert (PROFILE.max_lines_per_block, PROFILE.orphan_threshold) == (2, 5)

    @pytest.mark.parametrize(
        "kwargs", [{"cpl_limit": 0}, {"cps_limit": -1.0}, {"cps_limit": float("nan")}]
    )
    def test_rejects_non_positive_limits(self, kwargs):
        with pytest.raises(ValueError):
            ConstraintProfile(**kwargs)

    def test_the_first_non_positive_limit_is_named(self):
        with pytest.raises(ValueError, match="^max_lines_per_block must be positive$"):
            ConstraintProfile(max_lines_per_block=0, orphan_threshold=0)


class TestCheckCpl:
    def test_figure_cue_lines(self):
        result = check_cpl(sent("that design is but a tool <eol> to create function and beauty. <eob>"))
        assert result.line_lengths == (25, 30)
        assert result.conforming

    def test_empty_sentence_vacuously_conforms(self):
        result = check_cpl(sent(""))
        assert result.line_lengths == ()
        assert result.conforming

    def test_boundary_just_over(self):
        word = "x" * 43
        assert not check_cpl(AnnotatedSentence((word,), (0,))).conforming
        assert check_cpl(AnnotatedSentence(("x" * 42,), (0,))).conforming

    def test_counts_spaces_not_breaks(self):
        with_break = sent("ab cd <eob> ef <eob>")
        assert check_cpl(with_break).line_lengths == (5, 2)


class TestBlockLineLengths:
    @staticmethod
    def _joined(sentence):
        return [[len(" ".join(line)) for line in block] for block in sentence.blocks()]

    @given(st.one_of(strict_sentences(), lenient_sentences()))
    @settings(max_examples=300)
    def test_matches_the_joined_lines(self, sentence):
        assert _block_line_lengths(sentence) == self._joined(sentence)

    def test_empty_sentence(self):
        empty = AnnotatedSentence((), ())
        assert _block_line_lengths(empty) == self._joined(empty) == []


class TestCheckBlockCpl:
    """Block conformity: every block, its lines joined by one space, within
    twice the line limit."""

    @staticmethod
    def fits(sentence, cpl_limit=42):
        report = conformity_stats([sentence], ConstraintProfile(cpl_limit=cpl_limit))
        return report.block_conforming_sentences == 1

    def test_figure_block_at_84(self):
        block = sent("that design is but a tool <eol> to create function and beauty. <eob>")
        assert self.fits(block)
        assert self.fits(block, 28)
        assert not self.fits(block, 27)  # the block holds 56 characters

    def test_empty_sentence(self):
        assert self.fits(sent(""))

    def test_boundary_at_85(self):
        at_84 = "x" * 41 + " <eol> " + "y" * 42 + " <eob>"  # 41 + 1 + 42 = 84
        at_85 = "x" * 42 + " <eol> " + "y" * 42 + " <eob>"  # 42 + 1 + 42 = 85
        assert self.fits(sent(at_84))
        assert not self.fits(sent(at_85))
        assert self.fits(sent(at_85), 43)


class TestCheckCps:
    def test_figure_cue(self):
        # 30 characters over 538.476 - 537.020 = 1.456 seconds
        sentence = sent("I wanted to challenge the idea <eob>")
        result = check_cps(sentence, SegmentDuration("w", 537.02, 1.456))
        assert result.cps == pytest.approx(30 / 1.456, abs=1e-9)
        assert result.cps == pytest.approx(20.60, abs=0.01)
        assert result.conforming

    def test_empty_sentence(self):
        result = check_cps(sent(""), SegmentDuration("w", 0.0, 1.0))
        assert result == (0.0, True)

    def test_over_limit(self):
        result = check_cps(AnnotatedSentence(("x" * 43,), (0,)), SegmentDuration("w", 0.0, 1.0))
        assert result.cps == 43.0
        assert not result.conforming

    @given(strict_sentences(), st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=100)
    def test_scales_linearly(self, sentence, duration):
        one = check_cps(sentence, SegmentDuration("w", 0.0, duration)).cps
        two = check_cps(sentence, SegmentDuration("w", 0.0, 2 * duration)).cps
        assert two == pytest.approx(one / 2)


class TestCheckLinesAndBalance:
    def test_figure_sentence(self, figure_annotated):
        assert check_lines(sent(figure_annotated))

    def test_lenient_single_block(self):
        assert check_lines(sent("no breaks at all"))

    def test_three_line_block_fails(self):
        assert not check_lines(sent("a <eol> b <eol> c <eob>"))


class TestConformityStats:
    def test_figure_corpus(self, figure_annotated):
        report = conformity_stats([sent(figure_annotated)])
        assert report.total_sentences == 1
        assert report.conforming_sentences == 1
        assert report.block_conforming_sentences == 1
        assert report.sentences_with_eol == 1

    def test_empty_corpus(self):
        report = conformity_stats([])
        assert report == ConformityReport(42, 0, 0, 0, 0, 0, 0)
        assert report.line_conformity() == 1.0

    def test_mixed_corpus(self):
        good = sent("short line <eob>")
        bad = AnnotatedSentence(("x" * 43, "y" * 43), (0, 0))
        report = conformity_stats([good] * 7 + [bad] * 3)
        assert report.total_sentences == 10
        assert report.conforming_sentences == 7
        assert report.total_lines == 10
        assert report.conforming_lines == 7

    def test_json_keys(self):
        data = stats([sent("a <eob>")]).to_json_dict()["conformity"]
        assert set(data) == {"totals", "conforming_42", "conforming_84", "with_eol"}

    def test_json_keys_follow_the_profile(self):
        data = stats([sent("a <eob>")], profile=ConstraintProfile(cpl_limit=37)).to_json_dict()
        data = data["conformity"]
        assert set(data) == {"totals", "conforming_37", "conforming_74", "with_eol"}

    @given(
        st.lists(strict_sentences(), max_size=6),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=100)
    def test_counts_agree_with_the_rendered_lines_and_blocks(self, corpus, limit, orphan):
        profile = ConstraintProfile(cpl_limit=limit, orphan_threshold=orphan)
        report = conformity_stats(corpus, profile)
        lines = [[len(line) for line in sentence_lines(s)] for s in corpus]
        lengths = [n for sentence in lines for n in sentence]
        blocks_fit = [
            all(len(" ".join(" ".join(line) for line in b)) <= 2 * limit for b in s.blocks())
            for s in corpus
        ]
        assert report.conforming_sentences == sum(max(s, default=0) <= limit for s in lines)
        assert report.block_conforming_sentences == sum(blocks_fit)
        assert report.total_lines == len(lengths)
        assert report.conforming_lines == sum(n <= limit for n in lengths)
        assert report.orphan_lines == sum(n < orphan for n in lengths)

    @given(strict_sentences(), st.integers(min_value=1, max_value=60))
    @settings(max_examples=150)
    def test_raising_limit_is_monotone(self, sentence, limit):
        small = ConstraintProfile(cpl_limit=limit)
        large = ConstraintProfile(cpl_limit=limit + 5)
        if check_cpl(sentence, small).conforming:
            assert check_cpl(sentence, large).conforming

    @given(strict_sentences())
    @settings(max_examples=150)
    def test_line_limit_implies_block_limit(self, sentence):
        # lines a, b <= L means a + 1 + b <= 2L + 1 for two-line blocks
        limit = max(check_cpl(sentence).line_lengths, default=0)
        profile = ConstraintProfile(cpl_limit=max(limit, 1))
        if check_cpl(sentence, profile).conforming and check_lines(sentence, profile):
            for block in sentence.blocks():
                assert len(" ".join(" ".join(line) for line in block)) <= 2 * profile.cpl_limit + 1

    @given(strict_sentences())
    @settings(max_examples=100)
    def test_breaks_never_count_as_characters(self, sentence):
        total_line_chars = sum(check_cpl(sentence).line_lengths)
        lines = sentence_lines(sentence)
        plain_chars = len(" ".join(sentence.words))
        assert total_line_chars == plain_chars - (len(lines) - 1 if lines else 0)
