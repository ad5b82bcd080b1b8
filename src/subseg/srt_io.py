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


# HH:MM:SS,mmm in ASCII digits; written as [0-9], since \d also takes other
# scripts' digits, and without re.ASCII, which would narrow the \s around
# the arrow in _TIMING_RE to ASCII whitespace
_TIMESTAMP = r"([0-9]{2,}):([0-5][0-9]):([0-5][0-9]),([0-9]{3})"
_TIMESTAMP_RE = re.compile(f"^{_TIMESTAMP}$")
# a timing line parse_srt accepts in one step: the end time's first token is
# the timestamp itself, and whatever follows it is ignored
_TIMING_RE = re.compile(rf"\s*{_TIMESTAMP}\s*-->\s*{_TIMESTAMP}(?:\s|$)")


@dataclass(frozen=True, order=True, slots=True)
class Timestamp:
    """A point in time as non-negative integer milliseconds."""

    millis: int

    def __post_init__(self):
        if not isinstance(self.millis, int) or self.millis < 0:
            raise ValueError(f"millis must be a non-negative integer, got {self.millis!r}")

    def __str__(self) -> str:
        return format_timestamp(self)


def parse_timestamp(text: str) -> Timestamp:
    """Parse ``HH:MM:SS,mmm`` (zero-padded ASCII digits, two or more for the
    hours, comma separator) into a Timestamp."""
    match = _TIMESTAMP_RE.match(text)
    if match is None:
        raise MalformedTimestamp(f"expected HH:MM:SS,mmm, got {text!r}")
    return _timestamp(*match.groups())


def _timestamp(hh: str, mm: str, ss: str, ms: str) -> Timestamp:
    return Timestamp(((int(hh) * 60 + int(mm)) * 60 + int(ss)) * 1000 + int(ms))


def format_timestamp(ts: Timestamp) -> str:
    """Render a Timestamp as zero-padded ``HH:MM:SS,mmm``."""
    seconds, ms = divmod(ts.millis, 1000)
    minutes, ss = divmod(seconds, 60)
    hh, mm = divmod(minutes, 60)
    return f"{hh:02d}:{mm:02d}:{ss:02d},{ms:03d}"


@dataclass(frozen=True, slots=True)
class Subtitle:
    """One timed cue: a positive index, a time window and 1+ display lines.

    Lines are stored verbatim except that trailing whitespace is not
    representable; internal runs of spaces are preserved (later stages use
    double spaces to recover collapsed line breaks).
    """

    index: int
    start: Timestamp
    end: Timestamp
    lines: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.index < 1:
            raise ValueError(f"cue index must be positive, got {self.index}")
        if not self.lines:
            raise ValueError("cue has no text")
        if self.start.millis >= self.end.millis:
            raise ValueError(f"cue ends before it starts ({self.start} --> {self.end})")
        for line in self.lines:
            if not line or line != line.rstrip() or "\n" in line or "\r" in line:
                raise ValueError(f"bad cue line {line!r}")


@dataclass(frozen=True)
class SubtitleDocument:
    """The ordered cues of one talk / one .srt file.

    Well-formed files have strictly increasing indices and non-decreasing
    start times; ``parse_srt`` warns instead of failing when they do not.
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


def _parse_timing(line: str, number: int) -> tuple[Timestamp, Timestamp]:
    """The start and end of a timing line, read step by step, so that a
    malformed line raises the error that names what is wrong with it."""
    timing = line.strip()
    if "-->" not in timing:
        raise MalformedCue(number, f"missing timing line, got {timing!r}")
    left, right = timing.split("-->", 1)
    end_tokens = right.split()
    if not end_tokens:
        raise MalformedTimestamp(f"cue block {number}: missing end timestamp")
    try:  # a timestamp error keeps its class and names the cue
        return parse_timestamp(left.strip()), parse_timestamp(end_tokens[0])
    except MalformedTimestamp as exc:
        raise MalformedTimestamp(f"cue block {number}: {exc}") from None


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
        if len(lines) < 2:
            raise MalformedCue(number, "missing timing line")
        timing = _TIMING_RE.match(lines[1])
        if timing is None:
            start, end = _parse_timing(lines[1], number)
        else:
            groups = timing.groups()
            start, end = _timestamp(*groups[:4]), _timestamp(*groups[4:])
        try:  # the index, text and time-order rules are the cue's own
            subtitles.append(Subtitle(int(index_text), start, end, tuple(lines[2:])))
        except ValueError as exc:
            raise MalformedCue(number, str(exc)) from None

    backwards = [
        (prev.index, cur.index)
        for prev, cur in zip(subtitles, subtitles[1:])
        if cur.start.millis < prev.start.millis
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
        parts.append(f"{sub.index}\n{format_timestamp(sub.start)} --> {format_timestamp(sub.end)}\n")
        parts.append("\n".join(sub.lines))
        parts.append("\n\n")
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
