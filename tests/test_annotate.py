import pytest
from hypothesis import given, settings, strategies as st

from subseg.annotate import (
    AnnotatedSentence,
    DuplicateTalkId,
    GapLabel,
    GrammarViolation,
    NoAlignment,
    align_sentence,
    build_index,
    render_srt,
    strip_breaks,
)
from subseg.pipeline import AnnotationWarning, preprocess_document
from subseg.srt_io import SegmentDuration, Subtitle, SubtitleDocument, parse_srt

NONE = GapLabel.NONE
EOL = GapLabel.EOL
EOB = GapLabel.EOB


def sent(text):
    return AnnotatedSentence.from_text(text)


class TestAnnotatedSentence:
    def test_round_trips_corpus_format(self, figure_annotated):
        assert sent(figure_annotated).to_text() == figure_annotated

    def test_rejects_adjacent_breaks(self):
        with pytest.raises(GrammarViolation):
            sent("a <eol> <eob>")

    def test_rejects_leading_break(self):
        with pytest.raises(GrammarViolation):
            sent("<eob> a")

    def test_rejects_whitespace_in_word(self):
        with pytest.raises(ValueError):
            AnnotatedSentence(("a b",), (NONE,))

    @given(st.text(alphabet=st.sampled_from("ab \t\n\u00a0\u2003\x1c\x85\u200b"), max_size=4))
    def test_word_check_matches_per_character_whitespace_test(self, word):
        if word and not any(c.isspace() for c in word):
            AnnotatedSentence((word,), (NONE,))
        else:
            with pytest.raises(ValueError, match="bad word token"):
                AnnotatedSentence((word,), (NONE,))

    @pytest.mark.parametrize(
        "words, labels",
        [
            (("a",), (3,)),
            (("a",), (-1,)),  # must not index from the end
            ((1,), (NONE,)),
            (("<eol>",), (NONE,)),
            (("<eob>",), (EOB,)),
        ],
        ids=["label 3", "label -1", "not a str", "eol symbol", "eob symbol"],
    )
    def test_constructor_rejects_bad_input(self, words, labels):
        with pytest.raises(ValueError):
            AnnotatedSentence(words, labels)

    def test_blocks_of_figure_sentence(self, figure_annotated):
        blocks = sent(figure_annotated).blocks()
        assert len(blocks) == 2
        assert blocks[0] == (("I", "wanted", "to", "challenge", "the", "idea"),)
        assert len(blocks[1]) == 2

    def test_strictness(self, figure_annotated):
        sent(figure_annotated).validate_strict()
        labelled = AnnotatedSentence(("a", "b", "c"), (EOL, NONE, EOB))
        labelled.validate_strict()
        assert labelled.to_text() == "a <eol> b c <eob>"
        with pytest.raises(GrammarViolation):
            sent("a b c").validate_strict()  # no terminal <eob>
        with pytest.raises(GrammarViolation):
            sent("a <eol> b <eol> c <eob>").validate_strict()  # 3-line block
        with pytest.raises(GrammarViolation):
            sent("").validate_strict()
        for labels in [(NONE, NONE, NONE), (EOL, EOL, EOB), (EOL, NONE, NONE)]:
            with pytest.raises(GrammarViolation):
                AnnotatedSentence(("a", "b", "c"), labels).validate_strict()

    def test_lenient_trailing_block(self):
        assert sent("a <eob> b c").blocks() == ((("a",),), (("b", "c"),))


class TestStripAndBreaks:
    def test_strip_figure_cue(self):
        assert strip_breaks(sent("I wanted to challenge the idea <eob>")) == (
            "I wanted to challenge the idea"
        )

    def test_strip_no_breaks_is_identity(self):
        assert strip_breaks(sent("just some words")) == "just some words"

    def test_strip_full_figure_sentence(self, figure_annotated, figure_sentence):
        plain = strip_breaks(sent(figure_annotated))
        assert plain == figure_sentence
        assert len(plain.split()) == 17

    def test_extract_breaks(self, figure_annotated):
        labels = sent(figure_annotated).labels
        breaks = [(gap, label) for gap, label in enumerate(labels, start=1) if label]
        assert breaks == [(6, EOB), (12, EOL), (17, EOB)]


_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz'.,!?", min_size=1, max_size=9).filter(
    lambda w: w not in ("<eol>", "<eob>")
)


@st.composite
def strict_sentences(draw, max_words=14):
    words = draw(st.lists(_word, min_size=1, max_size=max_words))
    labels = []
    eols_in_block = 0
    for i in range(len(words)):
        if i + 1 == len(words):
            label = EOB
        else:
            label = draw(st.sampled_from([NONE, EOB] + ([EOL] if eols_in_block == 0 else [])))
        if label is EOL:
            eols_in_block += 1
        elif label is EOB:
            eols_in_block = 0
        labels.append(label)
    return AnnotatedSentence(words, labels)


@st.composite
def lenient_sentences(draw, max_words=14):
    """Any break after any word: blocks of any height, no final break needed."""
    words = draw(st.lists(_word, max_size=max_words))
    labels = draw(st.lists(st.sampled_from(GapLabel), min_size=len(words), max_size=len(words)))
    return AnnotatedSentence(words, labels)


_break = st.sampled_from(["<eol>", "<eob>"])


class TestStrictnessByLabels:
    @given(st.one_of(strict_sentences(), lenient_sentences()), st.integers(1, 3))
    @settings(max_examples=300)
    def test_matches_a_check_of_the_blocks(self, sentence, max_lines):
        def reference():
            if not sentence.labels:
                raise GrammarViolation("empty sentence")
            if sentence.labels[-1] is not EOB:
                raise GrammarViolation("sentence must end with <eob>")
            for block in sentence.blocks():
                if len(block) > max_lines:
                    raise GrammarViolation(f"block has {len(block)} lines (max {max_lines})")

        def verdict(check):
            try:
                check()
            except GrammarViolation as exc:
                return str(exc)
            return None

        assert verdict(lambda: sentence.validate_strict(max_lines)) == verdict(reference)


class TestFromTextGrammar:
    @given(st.lists(st.tuples(st.sampled_from([" ", "  ", "\t", " \n "]), st.one_of(_word, _break))))
    @settings(max_examples=300)
    def test_rejects_exactly_a_break_that_follows_no_word(self, parts):
        line = "".join(space + token for space, token in parts)
        is_break = [token in ("<eol>", "<eob>") for _, token in parts]
        misplaced = any(b and (i == 0 or is_break[i - 1]) for i, b in enumerate(is_break))
        if misplaced:
            with pytest.raises(GrammarViolation, match="a break token must follow a word"):
                AnnotatedSentence.from_text(line)
        else:
            assert AnnotatedSentence.from_text(line).to_text() == " ".join(line.split())


class TestInversePairs:
    @given(strict_sentences())
    def test_corpus_text_round_trip(self, sentence):
        # break symbols are written as their values, the symbols from_text reads
        assert AnnotatedSentence.from_text(sentence.to_text()) == sentence

    def test_labels_of_figure_sentence(self, figure_annotated):
        none, eol, eob = GapLabel.NONE, GapLabel.EOL, GapLabel.EOB
        assert sent("a b <eol> c <eob> d").labels == (none, eol, eob, none)
        labels = sent(figure_annotated).labels
        assert [gap for gap, label in enumerate(labels, start=1) if label] == [6, 12, 17]
        assert (labels[5], labels[11], labels[16]) == (eob, eol, eob)

    @given(st.one_of(strict_sentences(), lenient_sentences()))
    @settings(max_examples=300)
    def test_labels_round_trip(self, sentence):
        # the cue index hands its labels over as the ints of a bytes slice
        labels = sentence.labels
        assert len(labels) == len(sentence.words)
        assert all(type(label) is GapLabel for label in labels)
        rebuilt = AnnotatedSentence(sentence.words, bytes(labels))
        assert rebuilt == sentence
        assert all(type(label) is GapLabel for label in rebuilt.labels)

    @given(st.one_of(strict_sentences(), lenient_sentences()), st.booleans())
    def test_constructor_rejects_mismatched_lengths(self, sentence, longer):
        labels = sentence.labels
        labels = labels + (NONE,) if longer or not labels else labels[:-1]
        with pytest.raises(ValueError):
            AnnotatedSentence(sentence.words, labels)


def restored(line):
    """The lines ``preprocess_document`` makes of a one-cue document holding ``line``."""
    doc = SubtitleDocument("t", (Subtitle(1, 0, 1000, (line,)),))
    return list(preprocess_document(doc).subtitles[0].lines)


def cue_lines(alphabet):
    """Lines a cue can hold: non-empty, with no trailing whitespace."""
    last = st.sampled_from([c for c in alphabet if not c.isspace()])
    return st.builds(str.__add__, st.text(alphabet=st.sampled_from(alphabet), max_size=29), last)


class TestRestoreEol:
    def test_figure_collapsed_line(self):
        assert restored(
            "that design is but a tool  to create function and beauty."
        ) == ["that design is but a tool", "to create function and beauty."]

    def test_no_double_space_identity(self):
        assert restored("no double spaces here") == ["no double spaces here"]

    def test_three_way_split_keeps_first_and_warns(self):
        with pytest.warns(AnnotationWarning):
            assert restored("a  b  c") == ["a", "b  c"]

    def test_warning_counts_every_split_point(self):
        with pytest.warns(AnnotationWarning) as record:
            assert restored("a  b   c  d") == ["a", "b   c  d"]
        assert [str(w.message) for w in record] == [
            "talk 't', cue 1: line has 3 double-space split points; keeping only the first"
        ]

    def test_longer_runs_count_once(self):
        assert restored("left    right") == ["left", "right"]

    def test_leading_trailing_runs_do_not_split(self):
        # a cue line cannot end in whitespace, so only a leading run can reach restoration
        assert restored("  padded") == ["  padded"]

    @pytest.mark.filterwarnings("ignore::subseg.pipeline.AnnotationWarning")
    @given(cue_lines("ab ."))
    def test_never_changes_non_space_characters(self, text):
        joined = "".join(restored(text))
        assert joined.replace(" ", "") == text.replace(" ", "")

    @pytest.mark.filterwarnings("ignore::subseg.pipeline.AnnotationWarning")
    @given(cue_lines("ab. \t\u00a0\u2003"))
    def test_every_part_holds_a_non_space_character(self, text):
        # so preprocess_document never gets a blank line back from a line with words
        assert all(part.strip() for part in restored(text))


class TestIndexAndAlign:
    def test_figure_alignment(self, figure_srt, figure_sentence, figure_annotated):
        index = build_index([parse_srt(figure_srt, talk_id="talk")])
        aligned = align_sentence(figure_sentence, "talk", index)
        assert aligned.to_text() == figure_annotated

    def test_index_covers_all_cues(self, figure_srt):
        docs = [
            parse_srt(figure_srt, talk_id="a"),
            parse_srt(figure_srt, talk_id="b"),
            parse_srt(figure_srt.replace("164", "9").replace("165", "10"), talk_id="c"),
        ]
        index = build_index(docs)
        assert sum(talk.labels.count(EOB) for talk in index.values()) == 6
        assert set(index) == {"a", "b", "c"}

    def test_index_keeps_one_copy_of_each_word_of_a_talk(self):
        srt = (
            "1\n00:00:00,000 --> 00:00:01,000\nrepeated words here\n\n"
            "2\n00:00:01,000 --> 00:00:02,000\nonce more  repeated\n\n"
        )
        doc = parse_srt(srt, talk_id="t")
        talk = build_index([doc])["t"]
        assert talk.words[0] == talk.words[5] == "repeated"
        assert talk.words[0] is talk.words[5]
        for record in (talk, doc.subtitles[0], doc.subtitles[0].start):
            assert not hasattr(record, "__dict__")

    def test_empty_index(self):
        index = build_index([])
        assert len(index) == 0
        with pytest.raises(NoAlignment):
            align_sentence("anything", "talk", index)

    def test_duplicate_talk_id(self, figure_srt):
        doc = parse_srt(figure_srt, talk_id="talk")
        with pytest.raises(DuplicateTalkId):
            build_index([doc, doc])

    def test_single_cue_identity(self):
        doc = SubtitleDocument(
            "t", (Subtitle(1, 0, 1000, ("hello there friend",)),)
        )
        aligned = align_sentence("hello there friend", "t", build_index([doc]))
        assert aligned.to_text() == "hello there friend <eob>"

    def test_altered_word_fails(self, figure_srt, figure_sentence):
        index = build_index([parse_srt(figure_srt, talk_id="talk")])
        with pytest.raises(NoAlignment):
            align_sentence(figure_sentence.replace("design", "designs"), "talk", index)

    def test_partial_overlap_fails(self):
        doc = SubtitleDocument("t", (Subtitle(1, 0, 1000, ("c d",)),))
        with pytest.raises(NoAlignment):
            align_sentence("a b c", "t", build_index([doc]))

    def test_backtracks_over_decoy_cue(self):
        doc = SubtitleDocument(
            "t",
            (
                Subtitle(1, 0, 1000, ("a",)),  # decoy from another sentence
                Subtitle(2, 1000, 2000, ("a b",)),
                Subtitle(3, 2000, 3000, ("c",)),
            ),
        )
        aligned = align_sentence("a b c", "t", build_index([doc]))
        assert aligned.to_text() == "a b <eob> c <eob>"

    def test_sentence_does_not_borrow_cues_of_other_sentences(self):
        doc = SubtitleDocument(
            "t",
            tuple(
                Subtitle(i + 1, i * 1000, i * 1000 + 1000, (text,))
                for i, text in enumerate(("uan", "zz", "gobalh.", "uan gobalh."))
            ),
        )
        aligned = align_sentence("uan gobalh.", "t", build_index([doc]))
        assert aligned.to_text() == "uan gobalh. <eob>"

    def test_cues_interrupted_by_another_cue_fail(self):
        doc = SubtitleDocument(
            "t",
            (
                Subtitle(1, 0, 1000, ("a b",)),
                Subtitle(2, 1000, 2000, ("x",)),
                Subtitle(3, 2000, 3000, ("c",)),
            ),
        )
        with pytest.raises(NoAlignment):
            align_sentence("a b c", "t", build_index([doc]))

    def test_whitespace_normalized_query(self, figure_srt, figure_sentence, figure_annotated):
        index = build_index([parse_srt(figure_srt, talk_id="talk")])
        messy = figure_sentence.replace(" that", "   that")
        assert align_sentence(messy, "talk", index).to_text() == figure_annotated
        assert strip_breaks(align_sentence(messy, "talk", index)) == " ".join(messy.split())

    def test_tiling_longer_than_the_recursion_limit(self):
        words = [f"w{i % 7}" for i in range(1200)]
        doc = SubtitleDocument(
            "t",
            tuple(
                Subtitle(i + 1, i * 10, i * 10 + 10, (word,))
                for i, word in enumerate(words)
            ),
        )
        aligned = align_sentence(" ".join(words), "t", build_index([doc]))
        assert aligned.to_text() == " ".join(f"{word} <eob>" for word in words)

    @given(st.data())
    @settings(max_examples=400)
    def test_index_agrees_with_full_scan(self, data):
        vocabulary = "abcd"[: data.draw(st.integers(2, 4), label="vocabulary size")]
        a_word = st.sampled_from(vocabulary)
        cue_lines = data.draw(
            st.lists(
                st.lists(st.lists(a_word, min_size=1, max_size=3), min_size=1, max_size=2),
                min_size=1,
                max_size=25,
            ),
            label="cues",
        )
        doc = SubtitleDocument(
            "t",
            tuple(
                Subtitle(i + 1, i * 10, i * 10 + 10, tuple(map(" ".join, ls)))
                for i, ls in enumerate(cue_lines)
            ),
        )
        cues = [[word for line in lines for word in line] for lines in cue_lines]
        picked = data.draw(st.lists(st.integers(0, len(cues) - 1), min_size=1, max_size=6))
        from_cues = [word for i in sorted(picked) for word in cues[i]]
        query = data.draw(
            st.one_of(st.just(from_cues), st.lists(a_word, min_size=1, max_size=10)), label="query"
        )

        chosen = _full_scan_tile(query, cues)
        expected = None if chosen is None else " ".join(
            " <eol> ".join(map(" ".join, cue_lines[j])) + " <eob>" for j in chosen
        )
        try:
            got = align_sentence(" ".join(query), "t", build_index([doc])).to_text()
        except NoAlignment:
            got = None
        assert got == expected


def assert_as_checked(sentence):
    """``sentence`` equals what the checking constructor builds from its
    fields, and holds a word tuple and ``GapLabel`` members."""
    assert sentence == AnnotatedSentence(sentence.words, sentence.labels)
    assert type(sentence.words) is tuple and type(sentence.labels) is tuple
    assert all(type(label) is GapLabel for label in sentence.labels)


_unicode_spaces = st.text(alphabet=" \t\u00a0\u2003\u3000\x1c\x85", min_size=1, max_size=3)
_unicode_word = st.text(alphabet="ab\u00e9\u0660<>eolb", min_size=1, max_size=5)


class TestUncheckedConstruction:
    """from_text and align_sentence build their sentences without checking
    the words again; they must equal the checked construction."""

    @given(st.lists(st.tuples(_unicode_spaces, st.one_of(_unicode_word, _break))))
    @settings(max_examples=300)
    def test_from_text(self, parts):
        line = "".join(space + token for space, token in parts)
        try:
            sentence = AnnotatedSentence.from_text(line)
        except GrammarViolation:
            return
        assert_as_checked(sentence)
        assert sentence.to_text() == " ".join(line.split())

    @given(st.data())
    @settings(max_examples=300)
    def test_align_sentence(self, data):
        a_word = st.one_of(_unicode_word, st.sampled_from(["w", "w", "<eob>"]))
        cue_lines = data.draw(
            st.lists(
                st.lists(st.lists(a_word, min_size=1, max_size=3), min_size=1, max_size=2),
                min_size=1,
                max_size=8,
            ),
            label="cues",
        )
        space = data.draw(_unicode_spaces, label="space")
        doc = SubtitleDocument(
            "t",
            tuple(
                Subtitle(i + 1, i * 10, i * 10 + 10, tuple(map(space.join, ls)))
                for i, ls in enumerate(cue_lines)
            ),
        )
        first = data.draw(st.integers(0, len(cue_lines) - 1))
        last = data.draw(st.integers(first, len(cue_lines) - 1))
        words = [w for ls in cue_lines[first : last + 1] for line in ls for w in line]
        symbols = [w for w in words if w in ("<eol>", "<eob>")]
        try:
            sentence = align_sentence(space.join(words), "t", build_index([doc]))
        except ValueError as exc:
            if symbols:  # the word check of the checking constructor
                assert str(exc) == f"word token {symbols[0]!r} collides with a break symbol"
            else:
                assert isinstance(exc, NoAlignment)
            return
        assert not symbols
        assert_as_checked(sentence)
        assert sentence.words == tuple(words)


def _full_scan_tile(words, cues):
    """Reference alignment: every cue position is tried, in order, as the
    start of a run of consecutive cues; returns the positions of the first
    run whose words are exactly ``words``, or None."""
    for first in range(len(cues)):
        for last in range(first, len(cues)):
            if [word for j in range(first, last + 1) for word in cues[j]] == words:
                return list(range(first, last + 1))
    return None


class TestRenderSrt:
    def test_figure_window_proportions(self, figure_annotated):
        sentence = sent(figure_annotated)
        window = SegmentDuration("talk.wav", 537.020, 5.040)
        cues = render_srt(sentence, window, start_index=164)
        assert [c.index for c in cues] == [164, 165]
        assert cues[0].lines == ("I wanted to challenge the idea",)
        assert cues[1].lines == ("that design is but a tool", "to create function and beauty.")
        # independently counted block sizes: 30 and 25 + 1 + 30 = 56 characters
        assert len(cues[0].lines[0]) == 30
        assert sum(len(line) for line in cues[1].lines) + 1 == 56
        d0 = cues[0].end - cues[0].start
        d1 = cues[1].end - cues[1].start
        assert cues[0].start == 537020
        assert cues[1].end == 542060
        assert d0 == pytest.approx(5040 * 30 / 86, abs=1)
        assert d1 == pytest.approx(5040 * 56 / 86, abs=1)

    def test_single_block_spans_window(self):
        cues = render_srt(sent("short one <eob>"), SegmentDuration("w", 1.0, 2.0))
        assert len(cues) == 1
        assert (cues[0].start, cues[0].end) == (1000, 3000)

    def test_rejects_lenient_sentence(self):
        with pytest.raises(GrammarViolation):
            render_srt(sent("a b c"), SegmentDuration("w", 0.0, 1.0))

    def test_tiny_window_still_orders_cues(self):
        cues = render_srt(
            sent("a <eob> b <eob> c <eob>"), SegmentDuration("w", 0.0, 0.001)
        )
        for cue in cues:
            assert cue.start < cue.end

    @given(strict_sentences(max_words=10))
    @settings(max_examples=200)
    def test_alignment_round_trip(self, sentence):
        window = SegmentDuration("w", 2.0, 4.0)
        doc = SubtitleDocument("t", tuple(render_srt(sentence, window)))
        index = build_index([doc])
        assert align_sentence(strip_breaks(sentence), "t", index) == sentence
