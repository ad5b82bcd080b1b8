"""Subtitle-break segmenters.

Two ways to annotate a plain sentence with ``<eol>`` / ``<eob>`` symbols:

* a character-count baseline that consumes characters until the line limit
  would be exceeded and then breaks after the last word that fit, and
* a trainable linear gap classifier (averaged perceptron) decoded left to
  right under hard grammar constraints.

Both label the gap after each word with one of NONE / EOL / EOB and never
touch the words, so the output text always equals the normalized input.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

from .annotate import (
    AnnotatedSentence,
    BreakToken,
    EOL_SYMBOL,
    GrammarViolation,
    extract_breaks,
    normalize_text,
)
from .constraints import ConstraintProfile, DEFAULT_PROFILE, check_lines

DEFAULT_EPOCHS = 12
DEFAULT_FINE_TUNE_EPOCHS = 6

MODEL_FORMAT_VERSION = 1


class EmptyCorpus(ValueError):
    """Training was asked over an empty corpus or subset."""


class SubsetViolation(ValueError):
    """A fine-tuning sentence does not contain any line break."""


class ModelFormatError(ValueError):
    """A persisted model has an unknown version or a broken record."""


class GapLabel(IntEnum):
    """Decision for the gap after a word."""

    NONE = 0
    EOL = 1
    EOB = 2

    @property
    def break_token(self) -> BreakToken | None:
        if self is GapLabel.EOL:
            return BreakToken.EOL
        if self is GapLabel.EOB:
            return BreakToken.EOB
        return None


_LABEL_FOR_BREAK = {BreakToken.EOL: GapLabel.EOL, BreakToken.EOB: GapLabel.EOB}

_ALL_LABELS = (GapLabel.NONE, GapLabel.EOL, GapLabel.EOB)
_EOL_ONLY_LABELS = (GapLabel.NONE, GapLabel.EOL)


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = DEFAULT_EPOCHS
    learning_rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.learning_rate < math.inf:  # NaN fails every comparison
            raise ValueError(
                f"learning rate must be finite and non-negative, got {self.learning_rate}"
            )


# one weight per gap label, indexed by ``GapLabel``: (NONE, EOL, EOB)
_Row = Sequence[float]


@dataclass(frozen=True)
class LinearSegmenterModel:
    """Sparse multiclass weights, one row of three per feature (indexed by
    ``GapLabel``), with the settings of the run that trained them.

    Features without a row score zero.  Models are immutable once trained
    and safe to decode with concurrently.  Decoding caches the summed rows
    of the decoder-state features on the model (``_state_rows``, not a
    field, so equality and the model file ignore it); a row depends only on
    the state and the weights, so concurrent fills write identical rows.
    """

    weights: dict[str, tuple[float, float, float]]
    config: TrainingConfig
    fine_tuned: bool

    @functools.cached_property
    def _state_rows(self) -> _StateRows:
        return {}


_PUNCTUATION = set(".,;:!?…\"')»]}")


_BUCKET_CHARS = 4
_BUCKET_CAP = 15


def _length_bucket(chars: int) -> int:
    return min(chars // _BUCKET_CHARS, _BUCKET_CAP)


def _char_clamp(profile: ConstraintProfile) -> int:
    """Line length past which no feature changes.

    From there on the length bucket is capped and every next word overflows
    the line, so the decoder may clamp its character count here.
    """
    return max(_BUCKET_CHARS * _BUCKET_CAP, profile.cpl_limit)


def _tail(word: str) -> str:
    return word[-1] if word[-1] in _PUNCTUATION else ""


def _gap_features(words: Sequence[str], gap: int, to_end: int) -> tuple[tuple[str, ...], str, int]:
    """The features of the gap after ``words[gap - 1]`` that no decoder state
    changes, with the word's punctuation tail and the next word's length (0
    after the last word).  ``to_end`` is the length of ``words[gap:]`` joined."""
    word = words[gap - 1]
    nxt = words[gap] if gap < len(words) else None
    next_len = len(nxt) if nxt is not None else 0
    tail = _tail(word)
    features = (
        f"to_end={_length_bucket(to_end)}",
        f"w={word}",
        f"wlen={len(word)}",
        f"n={nxt if nxt is not None else '</s>'}",
        f"nlen={next_len}",
        f"punct={int(bool(tail))}",
        f"tail={tail}",
        f"pos={(10 * gap) // len(words)}",
    )
    if nxt is None:
        features += ("end_of_sentence",)
    return features, tail, next_len


@functools.lru_cache(maxsize=1)  # the latest sentence: one training step's decode and path walks
def _sentence_pass(words: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], str, int], ...]:
    """``_gap_features`` for every gap of ``words``, in gap order.  The decoder
    and ``extract_features`` both read it, so one training step builds each
    gap's features once for its decode and both path walks."""
    to_end = len(" ".join(words))
    gaps = []
    for gap, word in enumerate(words, start=1):
        to_end = max(to_end - len(word) - 1, 0)  # length of words[gap:] joined
        gaps.append(_gap_features(words, gap, to_end))
    return tuple(gaps)


@functools.lru_cache(maxsize=None)  # finite: tails x buckets x labels x 2
def _state_features(tail: str, since_bucket: int, prev: GapLabel, overflow: bool) -> tuple[str, ...]:
    """The features that depend on the decoder state; the word enters only
    through its punctuation tail."""
    punct = int(bool(tail))
    return (
        f"since={since_bucket}",
        f"prev={prev.name}",
        f"over={int(overflow)}",
        f"over&punct={int(overflow)}&{punct}",
        f"since&prev={since_bucket}&{prev.name}",
        f"punct&tail&since={punct}&{tail}&{since_bucket}",
    )


def extract_features(
    words: Sequence[str],
    gap: int,
    chars_since_break: int,
    prev_break: GapLabel,
    profile: ConstraintProfile = DEFAULT_PROFILE,
) -> list[str]:
    """Deterministic feature strings for the gap after ``words[gap - 1]``.

    Covers the line budget (bucketed characters on the current line and to
    the sentence end, and whether appending the next word would overflow the
    line limit), local lexical identity, punctuation on the current word,
    the previous break kind and the relative position in the sentence.
    """
    if not 1 <= gap <= len(words):
        raise ValueError(f"gap must be in 1..{len(words)}, got {gap}")
    if chars_since_break < 0:
        raise ValueError(f"chars_since_break must be non-negative, got {chars_since_break}")
    features, tail, next_len = _sentence_pass(tuple(words))[gap - 1]
    clamp = _char_clamp(profile)
    max_lines = profile.max_lines_per_block
    state = _state_id(min(chars_since_break, clamp), prev_break, 0, max_lines)
    key = _table(min(next_len, clamp), clamp, profile.cpl_limit, max_lines)[0][state]
    return [*features, *_state_features(tail, *_KEYS[key])]


def _labels_to_sentence(words: Sequence[str], labels: Sequence[GapLabel]) -> AnnotatedSentence:
    items: list[str | BreakToken] = []
    for word, label in zip(words, labels):
        items.append(word)
        token = label.break_token
        if token is not None:
            items.append(token)
    return AnnotatedSentence(tuple(items))


def _gold_labels(sentence: AnnotatedSentence) -> tuple[GapLabel, ...]:
    labels = [GapLabel.NONE] * len(sentence.words)
    for position in extract_breaks(sentence):
        labels[position.gap - 1] = _LABEL_FOR_BREAK[position.kind]
    return tuple(labels)


def segment_count_char(
    sentence: str, profile: ConstraintProfile = DEFAULT_PROFILE, seed: int = 0
) -> AnnotatedSentence:
    """Greedy character-count segmentation.

    Walk the decoder's states, consuming words until adding the next one
    would push the current line past the line limit, then insert a break
    after the last word that fit.  After an ``<eob>`` the break kind is
    drawn at random between ``<eob>`` and ``<eol>`` if the block has room
    for another line (a sentence starts a fresh screen, so the first draw is
    random too); otherwise, and always after an ``<eol>``, it is forced to
    ``<eob>``, so a block has at most two lines and never more than the
    profile allows.  The final break is always ``<eob>``.  A word longer
    than the line limit gets a line of its own.
    """
    words = normalize_text(sentence).split()
    if not words:
        raise ValueError("sentence must be non-empty")

    rng = random.Random(seed)
    clamp = _char_clamp(profile)
    max_lines = profile.max_lines_per_block
    state = _start(words, clamp, profile.cpl_limit, max_lines)
    labels = []
    for word in words[1:]:
        table = _table(min(len(word), clamp), clamp, profile.cpl_limit, max_lines)
        _, prev, overflow = _KEYS[table[0][state]]
        label = GapLabel.NONE
        if overflow:
            roomy = prev is GapLabel.EOB and state % max_lines + 1 < max_lines
            label = rng.choice((GapLabel.EOB, GapLabel.EOL)) if roomy else GapLabel.EOB
        labels.append(label)
        state = table[1 + label][state]
    labels.append(GapLabel.EOB)
    return _labels_to_sentence(words, labels)


# what the state features see of a state, besides the word's punctuation
# tail: (length bucket, previous break, whether the next word overflows)
_StateKey = tuple[int, GapLabel, bool]
# the summed state-feature rows per punctuation tail, indexed by key id
_StateRows = dict[str, list[tuple[float, float, float] | None]]

# every state key; a key's id is its index, (bucket * 3 + prev) * 2 + overflow,
# the same for every profile, so a model's state rows serve any profile
_KEYS: tuple[_StateKey, ...] = tuple(
    itertools.product(range(_BUCKET_CAP + 1), GapLabel, (False, True))
)


def _state_id(chars: int, prev: GapLabel, eols: int, max_lines: int) -> int:
    """The packed id of the decoder state (characters on the current line,
    previous break, line breaks in the block); ``divmod`` by ``3 *
    max_lines`` and then by ``max_lines`` unpacks it."""
    return (chars * 3 + prev) * max_lines + eols


def _score(features: Iterable[str], weights: Mapping[str, _Row]) -> tuple[float, float, float]:
    """Per-label sums of the feature rows, added in feature order."""
    none = eol = eob = 0.0
    for feature in features:
        row = weights.get(feature)
        if row is not None:
            none += row[0]
            eol += row[1]
            eob += row[2]
    return none, eol, eob


@functools.lru_cache(maxsize=None)  # finite per profile: one per clamped next length
def _table(next_len: int, clamp: int, cpl_limit: int, max_lines: int) -> tuple[list[int], ...]:
    """The decoder's transition when the next word has ``next_len``
    characters: four lists indexed by state id, giving the state's key id
    and its NONE, EOL and EOB successor ids; -1 stands for an ``<eol>`` past
    the block's line cap, a state the profile does not have.

    Callers clamp ``next_len`` at ``clamp``: every longer word overflows
    the line and starts a clamped one, so the result is the same.
    """
    table: tuple[list[int], ...] = ([], [], [], [])
    # in state id order
    for chars, prev, eols in itertools.product(range(clamp + 1), GapLabel, range(max_lines)):
        overflow = next_len > 0 and chars + 1 + next_len > cpl_limit
        table[0].append((_length_bucket(chars) * 3 + prev) * 2 + overflow)
        table[1].append(_state_id(min(chars + 1 + next_len, clamp), prev, eols, max_lines))
        table[2].append(
            _state_id(next_len, GapLabel.EOL, eols + 1, max_lines) if eols + 1 < max_lines else -1
        )
        table[3].append(_state_id(next_len, GapLabel.EOB, 0, max_lines))
    return table


def _start(words: Sequence[str], clamp: int, cpl_limit: int, max_lines: int) -> int:
    """A sentence starts on a fresh screen, as if after an ``<eob>``: the
    EOB successor of the state (0, EOB, 0)."""
    table = _table(min(len(words[0]), clamp), clamp, cpl_limit, max_lines)
    return table[1 + GapLabel.EOB][_state_id(0, GapLabel.EOB, 0, max_lines)]


def _decode(
    words: Sequence[str],
    weights: Mapping[str, _Row],
    profile: ConstraintProfile,
    frozen: Mapping[int, GapLabel],
    open_labels: tuple[GapLabel, ...],
    state_rows: _StateRows,
) -> tuple[tuple[GapLabel, ...], float]:
    """Exact constrained decode: the best-scoring grammatical label path.

    A left-to-right dynamic program over packed decoder states, stepped
    through the transition tables with labels as plain ints.  Ties go to the
    lexicographically smallest label sequence.  A line break is never taken,
    frozen or not, once the block has the allowed number of lines.

    ``state_rows`` caches the summed state-feature rows per punctuation tail,
    indexed by key id; it is filled here and is valid only for ``weights``.
    """
    clamp = _char_clamp(profile)
    cpl_limit = profile.cpl_limit
    max_lines = profile.max_lines_per_block
    open_ints = tuple(map(int, open_labels))
    last = len(words)
    # each entry holds (-score, labels), so the smallest entry is the one to keep
    frontier: dict[int, tuple[float, tuple[int, ...]]] = {
        _start(words, clamp, cpl_limit, max_lines): (0.0, ())
    }
    for gap, (features, tail, next_len) in enumerate(_sentence_pass(tuple(words)), start=1):
        gap_row = _score(features, weights)
        key_ids, *successors = _table(min(next_len, clamp), clamp, cpl_limit, max_lines)
        rows = state_rows.get(tail)
        if rows is None:
            rows = state_rows[tail] = [None] * len(_KEYS)
        forced = frozen.get(gap, GapLabel.EOB if gap == last else None)
        options = open_ints if forced is None else (int(forced),)
        moves = [(label, gap_row[label], successors[label]) for label in options]
        expanded: dict[int, tuple[float, tuple[int, ...]]] = {}
        for state, (cost, labels) in frontier.items():
            key = key_ids[state]
            state_row = rows[key]
            if state_row is None:
                state_row = rows[key] = _score(_state_features(tail, *_KEYS[key]), weights)
            for label, gap_cost, ids_after in moves:
                after = ids_after[state]
                if after < 0:
                    continue
                new_cost = cost - gap_cost - state_row[label]
                held = expanded.get(after)
                # the (cost, labels) order, building the labels only for a winner
                if (
                    held is None
                    or new_cost < held[0]
                    or (new_cost == held[0] and labels + (label,) < held[1])
                ):
                    expanded[after] = (new_cost, labels + (label,))
        frontier = expanded
    cost, labels = min(frontier.values())
    return tuple(_ALL_LABELS[label] for label in labels), -cost


def _path_steps(
    words: Sequence[str],
    labels: Sequence[GapLabel],
    profile: ConstraintProfile,
) -> Iterable[tuple[list[str], GapLabel]]:
    """Feature/label pairs along a fixed grammatical label path (teacher forcing)."""
    clamp = _char_clamp(profile)
    max_lines = profile.max_lines_per_block
    state = _start(words, clamp, profile.cpl_limit, max_lines)
    for gap, label in enumerate(labels, start=1):
        chars, rest = divmod(state, len(_ALL_LABELS) * max_lines)  # unpacks _state_id
        yield extract_features(words, gap, chars, _ALL_LABELS[rest // max_lines], profile), label
        next_len = min(len(words[gap]), clamp) if gap < len(words) else 0
        state = _table(next_len, clamp, profile.cpl_limit, max_lines)[1 + label][state]
        if state < 0:
            raise ValueError(f"gap {gap}: an {EOL_SYMBOL} past the block's line cap")


class _AveragedWeights:
    """Sparse weight rows with lazily accumulated per-step averages.

    A snapshot of every weight is (conceptually) taken after each step; the
    stamp of a weight is the first snapshot its current value covers, so sums
    only need touching when a weight actually changes.  Each feature has one
    row of nine: its weights, sums and stamps, three of each and indexed by
    ``GapLabel`` from 0, 3 and 6.  The first three score like a model row.
    """

    def __init__(self, initial: Mapping[str, _Row]):
        self.rows: dict[str, list[float]] = {
            feature: [*row, 0.0, 0.0, 0.0, 1, 1, 1] for feature, row in initial.items()
        }
        self.step = 0

    def bump(self, features: Iterable[str], label: GapLabel, delta: float) -> None:
        """Add ``delta`` to the ``label`` weight of each feature, in order."""
        step = self.step
        weight, total, stamp = int(label), label + 3, label + 6
        rows = self.rows
        for feature in features:
            row = rows.get(feature)
            if row is None:
                row = rows[feature] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1, 1, 1]
            current = row[weight]
            row[total] += (step - row[stamp]) * current
            row[stamp] = step
            row[weight] = current + delta

    def averaged(self) -> dict[str, tuple[float, float, float]]:
        """Mean weight rows over the snapshots taken after every step; rows
        that average to zero are dropped."""
        if self.step == 0:
            return {f: tuple(row[:3]) for f, row in self.rows.items() if any(row[:3])}
        averages: dict[str, tuple[float, float, float]] = {}
        for feature, row in self.rows.items():
            mean = tuple(
                (row[label + 3] + (self.step - row[label + 6] + 1) * row[label]) / self.step
                for label in _ALL_LABELS
            )
            if any(mean):
                averages[feature] = mean
        return averages


def _run_perceptron(
    initial: Mapping[str, _Row],
    sentences: Sequence[AnnotatedSentence],
    config: TrainingConfig,
    profile: ConstraintProfile,
    fine_tuned: bool,
) -> LinearSegmenterModel:
    state = _AveragedWeights(initial)
    rng = random.Random(config.seed)
    order = list(range(len(sentences)))
    gold_cache = [(s.words, _gold_labels(s)) for s in sentences]
    state_rows: _StateRows = {}

    for _ in range(config.epochs):
        rng.shuffle(order)
        mistakes = 0
        for i in order:
            state.step += 1
            words, gold = gold_cache[i]
            # update against the same exact decode used at inference time
            predicted, _ = _decode(words, state.rows, profile, {}, _ALL_LABELS, state_rows)
            if predicted != gold:
                mistakes += 1
                for features, label in _path_steps(words, gold, profile):
                    state.bump(features, label, config.learning_rate)
                for features, label in _path_steps(words, predicted, profile):
                    state.bump(features, label, -config.learning_rate)
                state_rows = {}  # the rows hold until the weights change
        if mistakes == 0:
            break  # weights are now fixed points; further epochs cannot change them

    return LinearSegmenterModel(state.averaged(), config, fine_tuned)


def train(
    corpus: Iterable[AnnotatedSentence],
    config: TrainingConfig = TrainingConfig(),
    profile: ConstraintProfile = DEFAULT_PROFILE,
) -> LinearSegmenterModel:
    """Train the gap classifier with the averaged perceptron.

    Every sentence must be strict; each epoch decodes every sentence with
    the current weights and updates toward the gold path on mistakes.
    Deterministic under a fixed config (shuffling uses ``config.seed``).
    """
    sentences = list(corpus)
    if not sentences:
        raise EmptyCorpus("training corpus is empty")
    for sentence in sentences:
        sentence.validate_strict(profile.max_lines_per_block)
    return _run_perceptron({}, sentences, config, profile, fine_tuned=False)


def fine_tune(
    model: LinearSegmenterModel,
    eol_subset: Iterable[AnnotatedSentence],
    config: TrainingConfig | None = None,
    profile: ConstraintProfile = DEFAULT_PROFILE,
) -> LinearSegmenterModel:
    """Continue training from ``model`` on sentences that all contain ``<eol>``."""
    sentences = list(eol_subset)
    if not sentences:
        raise EmptyCorpus("fine-tuning subset is empty")
    for i, sentence in enumerate(sentences):
        if not sentence.has_eol:
            raise SubsetViolation(f"sentence {i} has no {EOL_SYMBOL}")
        sentence.validate_strict(profile.max_lines_per_block)
    if config is None:
        config = TrainingConfig(epochs=DEFAULT_FINE_TUNE_EPOCHS)
    return _run_perceptron(model.weights, sentences, config, profile, fine_tuned=True)


def segment_learned(
    model: LinearSegmenterModel,
    sentence: str | AnnotatedSentence,
    profile: ConstraintProfile = DEFAULT_PROFILE,
    mode: str = "full",
) -> AnnotatedSentence:
    """Segment ``sentence`` with an exact constrained left-to-right decode.

    Breaks already present in the input are frozen and never moved.  In
    ``full`` mode every other gap may take NONE/EOL/EOB and the final gap is
    forced to EOB; in ``eol_only`` mode the input must already end in
    ``<eob>`` and open gaps only choose between NONE and EOL, so the block
    structure is untouched.  A line break is never an option once a block
    has reached the allowed number of lines, so the decode always yields a
    grammatical sentence.
    """
    if mode not in ("full", "eol_only"):
        raise ValueError(f"mode must be 'full' or 'eol_only', got {mode!r}")
    if isinstance(sentence, str):
        annotated = AnnotatedSentence.from_text(sentence)
    else:
        annotated = sentence
    words = annotated.words
    if not words:
        raise ValueError("sentence has no words")

    breaks = extract_breaks(annotated)
    if breaks:
        # frozen breaks must not already violate the grammar we guarantee
        if not check_lines(annotated, profile):
            raise GrammarViolation(
                f"an input block has more than {profile.max_lines_per_block} lines"
            )
        if breaks[-1].gap == len(words) and breaks[-1].kind is BreakToken.EOL:
            raise GrammarViolation(f"input must not end with {EOL_SYMBOL}")
    frozen = {position.gap: _LABEL_FOR_BREAK[position.kind] for position in breaks}

    if mode == "eol_only":
        if annotated.items and annotated.items[-1] is not BreakToken.EOB:
            raise GrammarViolation("eol_only input must already end with <eob>")
        open_labels = _EOL_ONLY_LABELS
    else:
        open_labels = _ALL_LABELS

    labels, _ = _decode(words, model.weights, profile, frozen, open_labels, model._state_rows)
    return _labels_to_sentence(words, labels)


def dump_model(model: LinearSegmenterModel) -> str:
    """Serialize a model to the versioned line-oriented text format: one
    ``feature<TAB>label<TAB>weight`` record per non-zero weight."""
    lines = [
        f"version\t{MODEL_FORMAT_VERSION}",
        f"epochs\t{model.config.epochs}",
        f"learning_rate\t{model.config.learning_rate!r}",
        f"seed\t{model.config.seed}",
        f"fine_tuned\t{'true' if model.fine_tuned else 'false'}",
        "weights",
    ]
    records = sorted(
        (feature, label.name, value)
        for feature, row in model.weights.items()
        for label, value in zip(_ALL_LABELS, row)
        if value != 0.0
    )
    lines.extend(f"{feature}\t{label}\t{value!r}" for feature, label, value in records)
    return "\n".join(lines) + "\n"


_HEADER_KEYS = ("version", "epochs", "learning_rate", "seed", "fine_tuned")
_FLAGS = {"true": True, "false": False}


def parse_model(text: str) -> LinearSegmenterModel:
    """Load a model from the text format; unknown versions, unknown or
    repeated header keys, broken or repeated weight records and non-finite
    weights fail loudly, naming the line."""
    lines = text.splitlines()
    header: dict[str, str] = {}
    body_start = None
    for i, line in enumerate(lines):
        if line == "weights":
            body_start = i + 1
            break
        key, sep, value = line.partition("\t")
        if not sep:
            raise ModelFormatError(f"model line {i + 1}: bad header line {line!r}")
        if key not in _HEADER_KEYS:
            raise ModelFormatError(f"model line {i + 1}: unknown header key {line!r}")
        if key in header:
            raise ModelFormatError(f"model line {i + 1}: repeated header key {line!r}")
        if key == "fine_tuned" and value not in _FLAGS:
            raise ModelFormatError(f"model line {i + 1}: fine_tuned must be true or false, got {line!r}")
        header[key] = value
    if body_start is None:
        raise ModelFormatError("missing weights section")
    if header.get("version") != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(f"unknown model version {header.get('version')!r}")
    try:
        config = TrainingConfig(
            epochs=int(header["epochs"]),
            learning_rate=float(header["learning_rate"]),
            seed=int(header["seed"]),
        )
        fine_tuned = _FLAGS[header["fine_tuned"]]
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad header: {exc}") from None

    rows: dict[str, list[float | None]] = {}
    for number, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line:
            continue
        try:
            feature, label_name, value_text = line.split("\t")
            label = GapLabel[label_name]
            value = float(value_text)
        except (KeyError, ValueError):
            raise ModelFormatError(f"model line {number}: bad weight record {line!r}") from None
        if not math.isfinite(value):
            raise ModelFormatError(f"model line {number}: non-finite weight {line!r}")
        row = rows.setdefault(feature, [None, None, None])
        if row[label] is not None:
            raise ModelFormatError(f"model line {number}: repeated weight record {line!r}")
        row[label] = value
    weights = {f: tuple([0.0 if w is None else w for w in row]) for f, row in rows.items()}
    return LinearSegmenterModel(weights, config, fine_tuned)


def save_model(model: LinearSegmenterModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_model(model))


def load_model(path) -> LinearSegmenterModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())
