"""Parsing and serialization of SubRip (.srt) documents and the
per-sentence utterance-duration sidecar.

Timestamps are kept as integer milliseconds.  Parsing is strict about the
``HH:MM:SS,mmm`` timestamp shape but tolerant of cosmetic damage commonly
found in downloaded subtitle files: a leading byte-order mark, stray text
after the cue end time, and cues whose start times go backwards (reported
as a warning, never a hard failure).
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Iterable


class MalformedTimestamp(ValueError):
    """Timestamp text does not match ``HH:MM:SS,mmm``."""


class MalformedCue(ValueError):
    """A cue block is structurally broken (bad index, timing or text)."""

    def __init__(self, block_number: int, reason: str):
        super().__init__(f"cue block {block_number}: {reason}")


class MalformedMetadata(ValueError):
    """A duration-sidecar entry is missing required keys or is not numeric."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"metadata line {line_number}: {reason}")
        self.line_number = line_number


class NonMonotonicTiming(UserWarning):
    """Cue start times go backwards; the document keeps file order anyway."""


# the most digits a cue index or an hours field may have: the smallest
# integer-string limit Python allows (sys.set_int_max_str_digits), so int()
# reads every accepted number under any limit
_MAX_DIGITS = 640
# HH:MM:SS,mmm in ASCII digits; written as [0-9], since \d also takes other
# scripts' digits, and without re.ASCII, which would narrow the \s around
# the arrow in _TIMING_RE to ASCII whitespace
_TIMESTAMP = rf"([0-9]{{2,{_MAX_DIGITS}}}):([0-5][0-9]):([0-5][0-9]),([0-9]{{3}})"
_TIMESTAMP_RE = re.compile(_TIMESTAMP)
# a timing line parse_srt accepts in one step: the end time's first token is
# the timestamp itself, and whatever follows it is ignored
_TIMING_RE = re.compile(rf"\s*{_TIMESTAMP}\s*-->\s*{_TIMESTAMP}(?:\s|$)")


# the two- and three-digit field texts, '00'-'99' and '000'-'999', by value
# and back: format_timestamp indexes the tuples, _millis looks texts up in the
# dicts, so neither calls int() or formats a number for a field of that size
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(100))
_THREE_DIGITS = tuple(f"{n:03d}" for n in range(1000))
_TWO_DIGIT_VALUE = {text: n for n, text in enumerate(_TWO_DIGITS)}
_THREE_DIGIT_VALUE = {text: n for n, text in enumerate(_THREE_DIGITS)}


def parse_timestamp(text: str) -> int:
    """Parse ``HH:MM:SS,mmm`` (zero-padded ASCII digits, two to 640 for the
    hours, comma separator) into integer milliseconds."""
    match = _TIMESTAMP_RE.fullmatch(text)
    if match is None:
        raise MalformedTimestamp(f"expected HH:MM:SS,mmm, got {text!r}")
    return _millis(*match.groups())


def _millis(hh: str, mm: str, ss: str, ms: str) -> int:
    """The milliseconds of one matched timestamp's fields; only an hours
    field of three or more digits goes through int()."""
    hours = _TWO_DIGIT_VALUE.get(hh)
    if hours is None:
        hours = int(hh)
    return ((hours * 60 + _TWO_DIGIT_VALUE[mm]) * 60 + _TWO_DIGIT_VALUE[ss]) * 1000 + _THREE_DIGIT_VALUE[ms]


def format_timestamp(millis: int) -> str:
    """Render integer milliseconds as zero-padded ``HH:MM:SS,mmm``."""
    seconds, ms = divmod(millis, 1000)
    minutes, ss = divmod(seconds, 60)
    hh, mm = divmod(minutes, 60)
    hours = _TWO_DIGITS[hh] if 0 <= hh < 100 else str(hh)
    return f"{hours}:{_TWO_DIGITS[mm]}:{_TWO_DIGITS[ss]},{_THREE_DIGITS[ms]}"


@dataclass(frozen=True, slots=True, init=False)
class Subtitle:
    """One timed cue: a positive int index, a time window in non-negative
    int milliseconds and 1+ display lines.  A bool is not an int here.

    Lines are stored verbatim except that trailing whitespace is not
    representable; internal runs of spaces are preserved (later stages use
    double spaces to recover collapsed line breaks).
    """

    index: int
    start: int
    end: int
    lines: tuple[str, ...]

    def __init__(self, index: int, start: int, end: int, lines: tuple[str, ...]):
        # parse_srt, preprocess_document and render_srt build every cue
        # here; the order of the checks decides which fault is reported for
        # a cue with several
        if type(lines) is not tuple:
            lines = tuple(lines)
        if type(index) is not int and (isinstance(index, bool) or not isinstance(index, int)):
            raise ValueError(f"cue index is not an integer, got {index!r}")
        if index < 1:
            raise ValueError(f"cue index must be positive, got {index}")
        if not lines:
            raise ValueError("cue has no text")
        for millis in (start, end):
            if type(millis) is not int and (isinstance(millis, bool) or not isinstance(millis, int)) or millis < 0:
                raise ValueError(f"cue times are non-negative integer milliseconds, got {millis!r}")
        if start >= end:
            raise ValueError(
                f"cue ends before it starts ({format_timestamp(start)} --> {format_timestamp(end)})"
            )
        for line in lines:
            if not line or line != line.rstrip() or "\n" in line or "\r" in line:
                raise ValueError(f"bad cue line {line!r}")
        _SET_INDEX(self, index)
        _SET_START(self, start)
        _SET_END(self, end)
        _SET_LINES(self, lines)


# the slots' own setters, which a frozen class's __init__ needs: each is a
# direct call, where object.__setattr__ looks the slot up by name first
_SET_INDEX = Subtitle.__dict__["index"].__set__
_SET_START = Subtitle.__dict__["start"].__set__
_SET_END = Subtitle.__dict__["end"].__set__
_SET_LINES = Subtitle.__dict__["lines"].__set__


@dataclass(frozen=True)
class SubtitleDocument:
    """The ordered cues of one talk / one .srt file.

    Well-formed files have strictly increasing indices and non-decreasing
    start times.  ``parse_srt`` keeps indices as written, in any order and
    repeated, and warns instead of failing when start times go backwards.
    """

    talk_id: str
    subtitles: tuple[Subtitle, ...]

    def __post_init__(self):
        object.__setattr__(self, "subtitles", tuple(self.subtitles))


@dataclass(frozen=True)
class SegmentDuration:
    """Utterance timing for one sentence: audio id, offset and duration in seconds."""

    audio_id: str
    offset: float
    duration: float

    def __post_init__(self):
        if not 0 <= self.offset < math.inf:  # NaN fails every comparison
            raise ValueError(f"offset must be finite and non-negative, got {self.offset}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and positive, got {self.duration}")


def _blocks(text: str) -> Iterable[tuple[int, list[str]]]:
    current: list[str] = []
    number = 0
    for raw in text.split("\n"):
        line = raw.rstrip()
        if line:
            current.append(line)
        elif current:
            number += 1
            yield number, current
            current = []
    if current:
        number += 1
        yield number, current


def _parse_timing(line: str, number: int) -> tuple[int, int]:
    """The start and end of a timing line, read step by step, so that a
    malformed line raises the error that names what is wrong with it."""
    timing = line.strip()
    if "-->" not in timing:
        raise MalformedCue(number, f"missing timing line, got {timing!r}")
    left, right = timing.split("-->", 1)
    end_tokens = right.split()
    if not end_tokens:
        raise MalformedTimestamp("missing end timestamp")
    return parse_timestamp(left.strip()), parse_timestamp(end_tokens[0])


def parse_srt(text: str, talk_id: str = "") -> SubtitleDocument:
    """Parse SubRip text into a SubtitleDocument.

    Cue blocks are separated by blank lines: an index line, a timing line
    ``start --> end`` (anything after the end time is ignored), then one or
    more text lines.  Trailing whitespace is stripped from every line;
    internal spacing is preserved verbatim.  A leading UTF-8 BOM is dropped.

    Raises MalformedCue / MalformedTimestamp on structural damage; emits a
    NonMonotonicTiming warning, naming ``talk_id``, when start times go
    backwards.
    """
    if text.startswith("﻿"):
        text = text[1:]

    subtitles: list[Subtitle] = []
    for number, lines in _blocks(text):
        index_text = lines[0].strip()
        if not (index_text.isascii() and index_text.isdigit()):
            raise MalformedCue(number, f"cue index is not a number: {index_text!r}")
        if len(index_text) > _MAX_DIGITS:
            raise MalformedCue(number, f"cue index has more than {_MAX_DIGITS} digits")
        if len(lines) < 2:
            raise MalformedCue(number, "missing timing line")
        timing = _TIMING_RE.match(lines[1])
        try:  # a timestamp error keeps its class and names the cue
            if timing is None:
                start, end = _parse_timing(lines[1], number)
            else:
                hh, mm, ss, ms, end_hh, end_mm, end_ss, end_ms = timing.groups()
                start, end = _millis(hh, mm, ss, ms), _millis(end_hh, end_mm, end_ss, end_ms)
        except MalformedTimestamp as exc:
            raise MalformedTimestamp(f"cue block {number}: {exc}") from None
        try:  # the constructor names the first rule the cue breaks
            cue = Subtitle(int(index_text), start, end, tuple(lines[2:]))
        except ValueError as exc:
            raise MalformedCue(number, str(exc)) from None
        subtitles.append(cue)

    backwards = [
        (prev.index, cur.index)
        for prev, cur in zip(subtitles, subtitles[1:])
        if cur.start < prev.start
    ]
    if backwards:
        first = backwards[0]
        warnings.warn(
            NonMonotonicTiming(
                f"talk {talk_id!r}: {len(backwards)} cue(s) start before their predecessor "
                f"(first: cue {first[1]} after cue {first[0]})"
            ),
            stacklevel=2,
        )
    return SubtitleDocument(talk_id, tuple(subtitles))


def serialize_srt(doc: SubtitleDocument) -> str:
    """Render a document in canonical SubRip form.

    Each cue is an index line, a timing line, its text lines, and exactly
    one blank line; ``parse_srt(serialize_srt(d), d.talk_id)`` reproduces
    ``d`` exactly.
    """
    parts: list[str] = []
    for sub in doc.subtitles:
        text = "\n".join(sub.lines)
        parts.append(f"{sub.index}\n{format_timestamp(sub.start)} --> {format_timestamp(sub.end)}\n{text}\n\n")
    return "".join(parts)


def load_segments_metadata(text: str) -> list[SegmentDuration]:
    """Parse the duration sidecar: a list of flow mappings, one per sentence.

    Each entry looks like ``- {duration: 1.456, offset: 537.02, wav: talk.wav}``;
    the audio key may be ``wav`` or ``audio`` and unknown keys are ignored.
    The result is ordered exactly as the file (1:1 with corpus sentences).
    """
    entries: list[SegmentDuration] = []
    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line == "---" or line == "[]":
            continue
        if not line.startswith("-"):
            raise MalformedMetadata(line_number, f"expected a list item, got {line!r}")
        body = line[1:].strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise MalformedMetadata(line_number, "expected a flow mapping {key: value, ...}")
        mapping: dict[str, str] = {}
        inner = body[1:-1].strip()
        if inner:
            for part in inner.split(","):
                if ":" not in part:
                    raise MalformedMetadata(line_number, f"bad key/value pair {part.strip()!r}")
                key, value = part.split(":", 1)
                mapping[key.strip()] = value.strip().strip("'\"")
        audio = mapping.get("wav", mapping.get("audio"))
        if audio is None:
            raise MalformedMetadata(line_number, "missing wav/audio key")
        try:
            offset = float(mapping["offset"])
            duration = float(mapping["duration"])
        except KeyError as exc:
            raise MalformedMetadata(line_number, f"missing {exc.args[0]} key") from None
        except ValueError:
            raise MalformedMetadata(line_number, "offset/duration is not numeric") from None
        try:
            entries.append(SegmentDuration(audio, offset, duration))
        except ValueError as exc:
            raise MalformedMetadata(line_number, str(exc)) from None
    return entries
