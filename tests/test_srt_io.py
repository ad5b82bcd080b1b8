import dataclasses
import re
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from subseg.srt_io import (
    _THREE_DIGIT_VALUE,
    _THREE_DIGITS,
    _TWO_DIGIT_VALUE,
    _TWO_DIGITS,
    MalformedCue,
    MalformedMetadata,
    MalformedTimestamp,
    NonMonotonicTiming,
    SegmentDuration,
    Subtitle,
    SubtitleDocument,
    format_timestamp,
    load_segments_metadata,
    parse_srt,
    parse_timestamp,
    serialize_srt,
)


class TestParseTimestamp:
    @pytest.mark.parametrize(
        "text,millis",
        [
            ("00:08:57,020", 537020),
            ("00:00:00,000", 0),
            ("01:02:03,004", 3723004),  # (1*3600 + 2*60 + 3) * 1000 + 4
            ("99:59:59,999", ((99 * 60 + 59) * 60 + 59) * 1000 + 999),
        ],
    )
    def test_values(self, text, millis):
        assert parse_timestamp(text) == millis

    @pytest.mark.parametrize(
        "text",
        [
            "0:08:57,020",  # missing padding
            "00:08:57.020",  # dot instead of comma
            "00:60:00,000",  # minutes out of range
            "00:00:60,000",  # seconds out of range
            "00:08:57,20",  # short millis
            "00:08:57,0200",
            " 00:08:57,020",
            "00:08:57,020\n",  # a final newline, which "$" would let through
            "garbage",
            "",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(MalformedTimestamp):
            parse_timestamp(text)

    @given(
        st.one_of(
            st.integers(min_value=0, max_value=99 * 3600 * 1000 + 59 * 60 * 1000 + 59 * 1000 + 999),
            st.integers(min_value=0, max_value=10**12),  # hours of three or more digits
        )
    )
    def test_round_trip(self, millis):
        assert parse_timestamp(format_timestamp(millis)) == millis

    @pytest.mark.parametrize(
        "millis,text",
        [
            (0, "00:00:00,000"),
            (((99 * 60 + 59) * 60 + 59) * 1000 + 999, "99:59:59,999"),
            (100 * 3600 * 1000, "100:00:00,000"),
            (10**15, "277777777:46:40,000"),
        ],
    )
    def test_format_values(self, millis, text):
        assert format_timestamp(millis) == text

    @pytest.mark.parametrize("hours", ["99", "100", "9" * 640, "0" * 639 + "1"])
    def test_hours_of_any_length_read_as_int(self, hours):
        assert parse_timestamp(f"{hours}:59:58,123") == ((int(hours) * 60 + 59) * 60 + 58) * 1000 + 123

    @pytest.mark.parametrize(
        "text",
        [
            "\u0660\u0661:0\u0662:0\u0663,\u0664\u0665\u0666",  # Arabic-Indic digits 01:02:03,456
            "\u0660\u0660:\u0660\u0660:\u0660\u0660,\u0660\u0660\u0660",
            "00:00:01,\uff10\uff10\uff10",  # fullwidth digits
        ],
    )
    def test_takes_ascii_digits_only(self, text):
        # format_timestamp writes ASCII digits, so any other digit would not round-trip
        with pytest.raises(MalformedTimestamp):
            parse_timestamp(text)
        with pytest.raises(MalformedTimestamp):
            parse_srt(f"1\n{text} --> 99:00:00,000\nhi\n")


class TestFieldTables:
    def test_every_two_and_three_digit_text_has_its_int(self):
        for digits, texts, values in ((2, _TWO_DIGITS, _TWO_DIGIT_VALUE), (3, _THREE_DIGITS, _THREE_DIGIT_VALUE)):
            every = [str(n).zfill(digits) for n in range(10**digits)]
            assert list(texts) == every
            assert values == {text: int(text) for text in every}

    def test_every_field_value_reads_and_writes_back(self):
        for hours in range(100):
            text = f"{hours:02d}:00:00,000"
            assert parse_timestamp(text) == hours * 3_600_000
            assert format_timestamp(hours * 3_600_000) == text
        for value in range(60):
            text = f"00:{value:02d}:{value:02d},000"
            assert parse_timestamp(text) == value * 61_000
            assert format_timestamp(value * 61_000) == text
        for ms in range(1000):
            text = f"00:00:00,{ms:03d}"
            assert parse_timestamp(text) == ms
            assert format_timestamp(ms) == text


class TestParseSrt:
    def test_figure_file(self, figure_srt):
        doc = parse_srt(figure_srt, talk_id="talk")
        assert doc.talk_id == "talk"
        assert doc.subtitles == (
            Subtitle(164, 537020, 538476, ("I wanted to challenge the idea",)),
            Subtitle(
                165,
                538500,
                542060,
                ("that design is but a tool", "to create function and beauty."),
            ),
        )

    def test_empty_input(self):
        assert parse_srt("") == SubtitleDocument("", ())

    def test_bom_tolerated(self, figure_srt):
        assert parse_srt("﻿" + figure_srt) == parse_srt(figure_srt)

    def test_double_space_preserved(self):
        text = "1\n00:00:00,000 --> 00:00:01,000\na tool  to create\n\n"
        doc = parse_srt(text)
        assert doc.subtitles[0].lines == ("a tool  to create",)
        assert parse_srt(serialize_srt(doc)) == doc

    def test_trailing_whitespace_stripped(self):
        text = "1\n00:00:00,000 --> 00:00:01,000\nhello   \n\n"
        assert parse_srt(text).subtitles[0].lines == ("hello",)

    def test_crlf_input(self, figure_srt):
        assert parse_srt(figure_srt.replace("\n", "\r\n")) == parse_srt(figure_srt)

    def test_missing_timing_line(self):
        with pytest.raises(MalformedCue):
            parse_srt("1\njust text\n\n")

    def test_empty_text(self):
        with pytest.raises(MalformedCue):
            parse_srt("1\n00:00:00,000 --> 00:00:01,000\n\n")

    def test_bad_index(self):
        with pytest.raises(MalformedCue):
            parse_srt("x\n00:00:00,000 --> 00:00:01,000\nhi\n\n")

    def test_cue_ending_before_start(self):
        with pytest.raises(MalformedCue):
            parse_srt("1\n00:00:02,000 --> 00:00:01,000\nhi\n\n")

    @pytest.mark.parametrize(
        "block, reason",
        [
            ("0\n00:00:00,000 --> 00:00:01,000\nhi", "cue index must be positive, got 0"),
            ("2\n00:00:00,000 --> 00:00:01,000", "cue has no text"),
            (
                "2\n00:00:02,000 --> 00:00:01,000\nhi",
                "cue ends before it starts (00:00:02,000 --> 00:00:01,000)",
            ),
            (
                "2\n00:00:01,000 --> 00:00:01,000\nhi",
                "cue ends before it starts (00:00:01,000 --> 00:00:01,000)",
            ),
            ("2\njust text", "missing timing line, got 'just text'"),
            ("2", "missing timing line"),
            ("x\n00:00:00,000 --> 00:00:01,000\nhi", "cue index is not a number: 'x'"),
            ("2\n00:00:01,000 --> 00:00:02,000\nfoo\rbar", "bad cue line 'foo\\rbar'"),
            # the shape of the block is checked before its index value
            ("0\nno timing\nhi", "missing timing line, got 'no timing'"),
        ],
        ids=[
            "index 0", "no text", "end before start", "end at start", "text for timing",
            "no timing line", "index not a number", "bare carriage return",
            "index 0 and text for timing",
        ],
    )
    def test_malformed_cue_message(self, block, reason):
        # a good first block, so the number counts blocks
        with pytest.raises(MalformedCue) as err:
            parse_srt(f"1\n00:00:00,000 --> 00:00:01,000\nok\n\n{block}\n")
        assert str(err.value) == f"cue block 2: {reason}"

    def test_timing_line_without_an_end_time(self):
        with pytest.raises(MalformedTimestamp, match="missing end timestamp"):
            parse_srt("1\n00:00:00,000 -->  \nhi\n\n")

    def test_bad_timestamp_propagates(self):
        with pytest.raises(MalformedTimestamp):
            parse_srt("1\n00:00:00.000 --> 00:00:01,000\nhi\n\n")

    @pytest.mark.parametrize(
        "timing, reason",
        [
            ("00:00:4,000 --> 00:00:05,000", "expected HH:MM:SS,mmm, got '00:00:4,000'"),
            ("00:00:04,000 --> 00:00:05.000", "expected HH:MM:SS,mmm, got '00:00:05.000'"),
            ("00:00:04,000 -->", "missing end timestamp"),
        ],
        ids=["bad start", "bad end", "no end"],
    )
    def test_timestamp_error_names_its_cue(self, timing, reason):
        # a good first block, so the number counts blocks
        with pytest.raises(MalformedTimestamp) as err:
            parse_srt(f"1\n00:00:00,000 --> 00:00:01,000\nok\n\n2\n{timing}\nhi\n")
        assert str(err.value) == f"cue block 2: {reason}"

    # one digit more than a cue index or an hours field may have
    LONG = "1" * 641

    @pytest.mark.parametrize(
        "block, error, reason",
        [
            (f"{LONG}\n00:00:04,000 --> 00:00:05,000\nhi", MalformedCue, "cue index has more than 640 digits"),
            (
                f"2\n{LONG}:00:04,000 --> 00:00:05,000\nhi",
                MalformedTimestamp,
                f"expected HH:MM:SS,mmm, got '{LONG}:00:04,000'",
            ),
            (
                f"2\n00:00:04,000 --> {LONG}:00:05,000\nhi",
                MalformedTimestamp,
                f"expected HH:MM:SS,mmm, got '{LONG}:00:05,000'",
            ),
        ],
        ids=["index", "start hours", "end hours"],
    )
    def test_an_over_long_number_names_its_cue(self, block, error, reason):
        # a good first block, so the number counts blocks
        with pytest.raises(error) as err:
            parse_srt(f"1\n00:00:00,000 --> 00:00:01,000\nok\n\n{block}\n")
        assert str(err.value) == f"cue block 2: {reason}"
        with pytest.raises(MalformedTimestamp, match="^expected HH:MM:SS,mmm"):
            parse_timestamp(f"{self.LONG}:00:04,000")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer-string limit")
    @pytest.mark.parametrize("digits", [640, 641])
    def test_the_integer_string_limit_does_not_change_a_parse(self, digits):
        number = "9" * digits
        texts = [
            f"{number}\n00:00:04,000 --> 00:00:05,000\nhi\n",
            f"2\n00:00:04,000 --> {number}:00:05,000\nhi\n",
            f"2\n{number}:00:04,000 --> {number}:00:05,000\nhi\n",
        ]

        def outcomes():
            results = []
            for text in texts:
                try:
                    results.append(parse_srt(text))
                except ValueError as exc:
                    results.append((type(exc), str(exc)))
            return results

        default = outcomes()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            limited = outcomes()
        finally:
            sys.set_int_max_str_digits(limit)
        assert limited == default
        accepted = [not isinstance(result, tuple) for result in default]
        assert accepted == [digits == 640] * 3

    @pytest.mark.parametrize("space", [" ", "\t", "\u00a0", "\u3000", "\x1c", "\x85", ""])
    def test_any_whitespace_around_the_arrow(self, space):
        line = f"{space}00:00:01,000{space}-->{space}00:00:02,500{space} X1:40 X2:600"
        cue = parse_srt(f"1\n{line}\nhi\n").subtitles[0]
        assert (cue.start, cue.end) == (1000, 2500)

    def test_non_monotonic_start_warns(self):
        text = (
            "1\n00:00:05,000 --> 00:00:06,000\nlate\n\n"
            "2\n00:00:01,000 --> 00:00:02,000\nearly\n\n"
        )
        with pytest.warns(NonMonotonicTiming):
            doc = parse_srt(text)
        assert [s.index for s in doc.subtitles] == [1, 2]

    @given(st.text(max_size=300))
    @settings(max_examples=300)
    def test_total_over_error_contract(self, text):
        try:
            parse_srt(text)
        except (MalformedCue, MalformedTimestamp):
            pass


# Today's steps for a timing line, kept here as the reference for parse_srt's
# one-match reading: strip, split at the first arrow, take the end time's
# first token, and parse both timestamps (in ASCII digits).
_REFERENCE_TIMESTAMP = re.compile(r"^([0-9]{2,}):([0-5][0-9]):([0-5][0-9]),([0-9]{3})$")


def _reference_timing(line, number):
    timing = line.strip()
    if "-->" not in timing:
        raise MalformedCue(number, f"missing timing line, got {timing!r}")
    left, right = timing.split("-->", 1)
    end_tokens = right.split()
    if not end_tokens:
        raise MalformedTimestamp(f"cue block {number}: missing end timestamp")

    def millis(text):
        match = _REFERENCE_TIMESTAMP.match(text)
        if match is None:
            raise MalformedTimestamp(f"cue block {number}: expected HH:MM:SS,mmm, got {text!r}")
        hh, mm, ss, ms = map(int, match.groups())
        return ((hh * 60 + mm) * 60 + ss) * 1000 + ms

    return millis(left.strip()), millis(end_tokens[0])


_spaces = st.text(alphabet=" \t\u00a0\u2003\u3000\x0b\x1c\x85\u2028", max_size=2)
_digit_run = st.text(alphabet="0123456789\u0660\u0665\uff11", min_size=1, max_size=4)


@st.composite
def _timestamp_texts(draw):
    if draw(st.booleans()):  # a well-formed one, hours past 99 included
        return format_timestamp(draw(st.integers(0, 10**9)))
    a_part = st.one_of(_digit_run, st.sampled_from(["00", "05", "59", "60", "000"]))
    parts = [draw(a_part) for _ in range(4)]
    separators = [draw(st.sampled_from([":", ":", ",", "."])) for _ in range(3)]
    return "".join(part + sep for part, sep in zip(parts, separators + [""]))


@st.composite
def _timing_lines(draw):
    pieces = [
        draw(_spaces),
        draw(_timestamp_texts()),
        draw(_spaces),
        draw(st.sampled_from(["-->", "-->", "-->", "->", "--> -->", ""])),
        draw(_spaces),
        draw(_timestamp_texts()),
        draw(st.sampled_from(["", "", " X1:40", "X1:40", "-->", "0", "\u00a0tail"])),
    ]
    return "".join(pieces)


class TestTimingLine:
    @given(_timing_lines())
    @settings(max_examples=600)
    def test_accepts_what_the_stepwise_reading_accepts(self, line):
        line = line.rstrip()  # as parse_srt reads every line
        if not line:
            return
        text = f"1\n{line}\nhi\n"
        try:
            expected = _reference_timing(line, 1)
        except (MalformedCue, MalformedTimestamp) as exc:
            with pytest.raises(type(exc)) as err:
                parse_srt(text)
            assert str(err.value) == str(exc)
            return
        start, end = expected
        if start < end:
            cue = parse_srt(text).subtitles[0]
            assert (cue.start, cue.end) == expected
        else:
            with pytest.raises(MalformedCue, match="cue ends before it starts"):
                parse_srt(text)


_line = (
    st.text(
        alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=40,
    )
    .map(str.rstrip)
    .filter(bool)
)


@st.composite
def documents(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    starts = sorted(draw(st.lists(st.integers(0, 10_000_000), min_size=n, max_size=n)))
    subtitles = []
    for i, start in enumerate(starts):
        duration = draw(st.integers(min_value=1, max_value=60_000))
        lines = tuple(draw(st.lists(_line, min_size=1, max_size=3)))
        subtitles.append(Subtitle(i + 1, start, start + duration, lines))
    talk_id = draw(st.text(max_size=10))
    return SubtitleDocument(talk_id, tuple(subtitles))


class TestSerializeSrt:
    def test_single_cue(self):
        doc = SubtitleDocument(
            "t",
            (Subtitle(164, 537020, 538476, ("I wanted to challenge the idea",)),),
        )
        assert serialize_srt(doc) == (
            "164\n00:08:57,020 --> 00:08:58,476\nI wanted to challenge the idea\n\n"
        )

    def test_empty_document(self):
        assert serialize_srt(SubtitleDocument("t", ())) == ""

    @given(documents())
    @settings(max_examples=200)
    def test_round_trip(self, doc):
        assert parse_srt(serialize_srt(doc), talk_id=doc.talk_id) == doc

    @given(documents())
    @settings(max_examples=100)
    def test_canonical_serialization_is_stable(self, doc):
        once = serialize_srt(doc)
        assert serialize_srt(parse_srt(once, talk_id=doc.talk_id)) == once


def _reference_parse(text):
    """parse_srt's reading of BOM-free text, each timing line read step by
    step and each cue built by Subtitle(...): the reference for its
    one-match timing read and for the cue errors it raises."""
    blocks, block = [], []
    for raw in text.split("\n") + [""]:
        line = raw.rstrip()
        if line:
            block.append(line)
        elif block:
            blocks.append(block)
            block = []
    subtitles = []
    for number, lines in enumerate(blocks, start=1):
        index_text = lines[0].strip()
        if not (index_text.isascii() and index_text.isdigit()):
            raise MalformedCue(number, f"cue index is not a number: {index_text!r}")
        if len(lines) < 2:
            raise MalformedCue(number, "missing timing line")
        start, end = _reference_timing(lines[1], number)
        try:
            cue = Subtitle(int(index_text), start, end, tuple(lines[2:]))
        except ValueError as exc:
            raise MalformedCue(number, str(exc)) from None
        subtitles.append(cue)
    return tuple(subtitles)


_BROKEN_RULES = ["index 0", "no text", "end not after start", "carriage return", "index not digits"]


@st.composite
def _cue_blocks(draw):
    """A well-formed cue block, or one that breaks exactly one cue rule."""
    rule = draw(st.sampled_from([None] * 5 + _BROKEN_RULES))
    if rule == "index 0":
        index = draw(st.sampled_from(["0", "00"]))
    elif rule == "index not digits":
        index = "x1"
    else:
        index = str(draw(st.integers(1, 10**6)))
    start = draw(st.integers(0, 10**7))
    if rule == "end not after start":
        end = draw(st.integers(max(start - 5000, 0), start))
    else:
        end = draw(st.integers(start + 1, start + 60_000))
    lines = [] if rule == "no text" else draw(st.lists(_line, min_size=1, max_size=3))
    if rule == "carriage return":
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = "a\r" + lines[at]
    timing = f"{format_timestamp(start)} --> {format_timestamp(end)}"
    return "\n".join([index, timing, *lines])


class TestCueRules:
    @given(st.lists(_cue_blocks(), max_size=4))
    @settings(max_examples=300)
    def test_parses_as_the_checking_constructor_does(self, blocks):
        text = "\n\n".join(blocks) + "\n"
        try:
            expected = _reference_parse(text)
        except MalformedCue as exc:
            with pytest.raises(MalformedCue) as err:
                parse_srt(text)
            assert str(err.value) == str(exc)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonMonotonicTiming)
            cues = parse_srt(text).subtitles
        assert cues == expected
        for cue in cues:
            assert type(cue.lines) is tuple
            assert type(cue.start) is int and type(cue.end) is int


# every character that str.split() (and so the cue index) separates words on
WHITESPACE = "".join(c for c in map(chr, range(0x110000)) if c.isspace())


class TestSubtitleInvariants:
    def test_rejects_equal_start_end(self):
        with pytest.raises(ValueError):
            Subtitle(1, 5, 5, ("x",))

    @pytest.mark.parametrize("bad", [-1, 0.0, 1.5, "0", True, False])
    @pytest.mark.parametrize("field", ["start", "end"])
    def test_rejects_a_time_that_is_not_non_negative_int_millis(self, field, bad):
        times = {"start": 0, "end": 1000, field: bad}
        with pytest.raises(ValueError, match="cue times are non-negative integer milliseconds"):
            Subtitle(1, times["start"], times["end"], ("x",))

    def test_rejects_empty_lines(self):
        with pytest.raises(ValueError):
            Subtitle(1, 0, 1, ())

    def test_rejects_newline_in_line(self):
        with pytest.raises(ValueError):
            Subtitle(1, 0, 1, ("a\nb",))

    def test_rejects_non_positive_index(self):
        with pytest.raises(ValueError):
            Subtitle(0, 0, 1, ("x",))

    @given(st.text(alphabet=WHITESPACE))
    def test_rejects_a_line_without_words(self, line):
        assert not line.split()
        with pytest.raises(ValueError):
            Subtitle(1, 0, 1, ("x", line))

    @pytest.mark.parametrize("index", [True, False, 1.5, 1.0, "3", None])
    def test_rejects_an_index_that_is_not_an_int(self, index):
        # a bool or float index would be written as "True" or "1.5", which
        # parse_srt rejects, so serialize_srt's output would not read back
        with pytest.raises(ValueError, match=re.escape(f"cue index is not an integer, got {index!r}")):
            Subtitle(index, 0, 1, ("x",))

    @pytest.mark.parametrize(
        "fields,message",
        [
            ((0, 0, 1, ("x",)), "cue index must be positive, got 0"),
            ((-3, 0, 1, ("x",)), "cue index must be positive, got -3"),
            ((True, 0, 1, ("x",)), "cue index is not an integer, got True"),
            ((1, 0, 1, ()), "cue has no text"),
            ((1, -1, 1, ("x",)), "cue times are non-negative integer milliseconds, got -1"),
            ((1, 0, 1.5, ("x",)), "cue times are non-negative integer milliseconds, got 1.5"),
            ((1, 0, True, ("x",)), "cue times are non-negative integer milliseconds, got True"),
            ((1, 5000, 5000, ("x",)), "cue ends before it starts (00:00:05,000 --> 00:00:05,000)"),
            ((1, 0, 1, ("x", "")), "bad cue line ''"),
            ((1, 0, 1, ("x ",)), "bad cue line 'x '"),
            ((1, 0, 1, ("a\nb",)), "bad cue line 'a\\nb'"),
            ((1, 0, 1, ("a\rb",)), "bad cue line 'a\\rb'"),
        ],
    )
    def test_message_names_the_broken_rule(self, fields, message):
        with pytest.raises(ValueError) as err:
            Subtitle(*fields)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "fields,message",
        [
            ((0, 0, 1, ()), "cue index must be positive, got 0"),
            ((0, -1, 1, ("x",)), "cue index must be positive, got 0"),
            ((1, -1, 1, ()), "cue has no text"),
            ((1, 5, 5, ()), "cue has no text"),
            ((1, -1, -2, ("x",)), "cue times are non-negative integer milliseconds, got -1"),
            ((1, 0, -1, ("",)), "cue times are non-negative integer milliseconds, got -1"),
            ((1, 9, 5, ("",)), "cue ends before it starts (00:00:00,009 --> 00:00:00,005)"),
            ((1, 0, 1, ("a\r", "")), "bad cue line 'a\\r'"),
        ],
    )
    def test_a_cue_with_two_faults_names_the_first_rule(self, fields, message):
        with pytest.raises(ValueError) as err:
            Subtitle(*fields)
        assert str(err.value) == message

    def test_replace_runs_the_checks(self):
        cue = Subtitle(1, 0, 1000, ("one", "two"))
        assert dataclasses.replace(cue, lines=("one  two",)) == Subtitle(1, 0, 1000, ("one  two",))
        with pytest.raises(ValueError, match="^cue has no text$"):
            dataclasses.replace(cue, lines=())
        with pytest.raises(ValueError, match="^cue index must be positive, got 0$"):
            dataclasses.replace(cue, index=0)

    def test_lines_are_stored_as_a_tuple(self):
        lines = ["one", "two"]
        cue = Subtitle(index=2, start=0, end=1000, lines=lines)
        assert type(cue.lines) is tuple and cue.lines == ("one", "two")
        lines.append("three")
        assert cue.lines == ("one", "two")
        assert cue == Subtitle(2, 0, 1000, ("one", "two"))

    def test_equality_hash_and_repr(self):
        cue = Subtitle(2, 0, 1000, ("one",))
        assert cue == Subtitle(2, 0, 1000, ("one",))
        assert cue != Subtitle(3, 0, 1000, ("one",))
        assert cue != (2, 0, 1000, ("one",))
        assert hash(cue) == hash((2, 0, 1000, ("one",)))
        assert repr(cue) == "Subtitle(index=2, start=0, end=1000, lines=('one',))"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cue.index = 3


class TestSegmentsMetadata:
    def test_single_entry(self):
        # duration matches the figure cue: 538,476 ms - 537,020 ms = 1.456 s
        entries = load_segments_metadata("- {duration: 1.456, offset: 537.02, wav: talk1.wav}")
        assert entries == [SegmentDuration("talk1.wav", 537.02, 1.456)]

    def test_empty_list(self):
        assert load_segments_metadata("[]") == []
        assert load_segments_metadata("") == []

    def test_two_entries_in_order(self):
        text = (
            "- {duration: 1.0, offset: 0.5, wav: a.wav}\n"
            "- {duration: 2.5, offset: 2.0, wav: b.wav}\n"
        )
        entries = load_segments_metadata(text)
        assert [e.audio_id for e in entries] == ["a.wav", "b.wav"]
        assert entries[1].duration == 2.5

    def test_audio_key_alias_and_unknown_keys(self):
        entries = load_segments_metadata(
            "- {audio: x.wav, offset: 1.0, duration: 2.0, speaker_id: spk7}"
        )
        assert entries[0].audio_id == "x.wav"

    @pytest.mark.parametrize(
        "text",
        [
            "- {offset: 1.0, duration: 2.0}",  # no audio key
            "- {wav: a.wav, duration: 2.0}",  # no offset
            "- {wav: a.wav, offset: nope, duration: 2.0}",  # non-numeric
            "- {wav: a.wav, offset: 1.0, duration: 0}",  # non-positive duration
            "- {wav: a.wav, offset: 1.0, duration: nan}",
            "- {wav: a.wav, offset: 1.0, duration: inf}",
            "- {wav: a.wav, offset: nan, duration: 2.0}",
            "- {wav: a.wav, offset: inf, duration: 2.0}",
            "not a list item",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedMetadata):
            load_segments_metadata(text)

    @pytest.mark.parametrize(
        "item, reason",
        [
            ("- duration: 2.0", "expected a flow mapping {key: value, ...}"),
            ("- {wav: a.wav, offset 1.0, duration: 2.0}", "bad key/value pair 'offset 1.0'"),
        ],
        ids=["not a flow mapping", "pair without a colon"],
    )
    def test_malformed_item_names_its_line(self, item, reason):
        good = "- {wav: a.wav, offset: 1.0, duration: 2.0}"
        with pytest.raises(MalformedMetadata) as err:
            load_segments_metadata(f"{good}\n{item}\n")
        assert str(err.value) == f"metadata line 2: {reason}"

    def test_error_carries_line_number(self):
        good = "- {wav: a.wav, offset: 1.0, duration: 2.0}"
        with pytest.raises(MalformedMetadata) as err:
            load_segments_metadata(good + "\n- {wav: b.wav, offset: 1.0}")
        assert err.value.line_number == 2
