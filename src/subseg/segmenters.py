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
from typing import Iterable, Mapping, Sequence

from .annotate import AnnotatedSentence, EOL_SYMBOL, GapLabel, GrammarViolation
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


_ALL_LABELS = (GapLabel.NONE, GapLabel.EOL, GapLabel.EOB)
_EOL_ONLY_LABELS = (GapLabel.NONE, GapLabel.EOL)
# which labels a gap frozen at a label may take, indexed like _ALL_LABELS
_ONLY = {label: tuple(other is label for other in _ALL_LABELS) for label in _ALL_LABELS}


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


# the gap features of small domains, formatted once: bucketed length to the
# sentence end, word lengths up to _LENGTHS (longer ones are formatted per
# gap), the punctuation pair per tail, and the tenth of the sentence
_LENGTHS = 64
_TO_END = tuple(f"to_end={bucket}" for bucket in range(_BUCKET_CAP + 1))
_WLEN = tuple(f"wlen={n}" for n in range(_LENGTHS))
_NLEN = tuple(f"nlen={n}" for n in range(_LENGTHS))
_TAIL_FEATURES = {
    tail: (f"punct={int(bool(tail))}", f"tail={tail}") for tail in ("", *_PUNCTUATION)
}
_POS = tuple(f"pos={tenth}" for tenth in range(10))


def _gap_features(words: Sequence[str], gap: int, to_end: int) -> tuple[tuple[str, ...], str, int]:
    """The features of the gap after ``words[gap - 1]`` that no decoder state
    changes, with the word's punctuation tail and the next word's length (0
    after the last word).  ``to_end`` is the length of ``words[gap:]`` joined.

    The last gap has none: both segmenters force its ``<eob>`` and strict
    gold ends in one, so they would add the same score to every path."""
    word = words[gap - 1]
    tail = _tail(word)
    if gap == len(words):
        return (), tail, 0
    nxt = words[gap]
    wlen, nlen = len(word), len(nxt)
    punct, tail_feature = _TAIL_FEATURES[tail]
    features = (
        _TO_END[_length_bucket(to_end)],
        f"w={word}",
        _WLEN[wlen] if wlen < _LENGTHS else f"wlen={wlen}",
        f"n={nxt}",
        _NLEN[nlen] if nlen < _LENGTHS else f"nlen={nlen}",
        punct,
        tail_feature,
        _POS[(10 * gap) // len(words)],
    )
    return features, tail, nlen


@functools.lru_cache(maxsize=1)  # the latest sentence: one training step's decode and update
def _sentence_pass(words: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], str, int], ...]:
    """``_gap_features`` for every gap of ``words``, in gap order.  The decoder
    and ``extract_features`` both read it, so one training step builds each
    gap's features once for its decode and its update."""
    to_end = len(" ".join(words))
    gaps = []
    for gap, word in enumerate(words, start=1):
        to_end = max(to_end - len(word) - 1, 0)  # length of words[gap:] joined
        gaps.append(_gap_features(words, gap, to_end))
    return tuple(gaps)


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
    the previous break kind and the relative position in the sentence.  The
    last gap, always ``<eob>``, has only the six state features.
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
    return [*features, *_tail_keys(tail)[key]]


def segment_count_char(
    sentence: str | AnnotatedSentence,
    profile: ConstraintProfile = DEFAULT_PROFILE,
    seed: int = 0,
    mode: str = "full",
) -> AnnotatedSentence:
    """Greedy character-count segmentation of ``sentence``, read as
    ``segment_learned`` reads it: its breaks are frozen, the other gaps open.

    Walk the decoder's states, consuming words until adding the next one
    would push the current line past the line limit, then break after the
    last word that fit.  After an ``<eob>`` (a sentence starts on a fresh
    screen) the kind is drawn between ``<eob>`` and ``<eol>`` if the block
    has room for another line, counting its frozen ``<eol>``s still ahead;
    otherwise it is ``<eob>``.  In ``eol_only`` mode it is ``<eol>`` if the
    block has room and no break otherwise, with no draw.  The final break is
    always ``<eob>``.  A word longer than the line limit gets a line of its own.
    """
    words, frozen, open_labels = _plan(sentence, profile, mode)
    rng = random.Random(seed)
    clamp = _char_clamp(profile)
    max_lines = profile.max_lines_per_block
    state = _start(words, clamp, profile.cpl_limit, max_lines)
    labels = []
    for gap, word in enumerate(words[1:], start=1):
        table = _table(min(len(word), clamp), clamp, profile.cpl_limit, max_lines)
        _, prev, overflow = _KEYS[table[0][state]]
        label = frozen.get(gap, GapLabel.NONE)
        if overflow and gap not in frozen:
            # the block's frozen <eol>s after this gap, up to its frozen <eob>
            ahead = itertools.takewhile(GapLabel.EOL.__eq__, (f for g, f in frozen.items() if g > gap))
            roomy = state % max_lines + 1 + len(list(ahead)) < max_lines
            if GapLabel.EOB not in open_labels:
                label = GapLabel.EOL if roomy else GapLabel.NONE
            elif prev is GapLabel.EOB and roomy:
                label = rng.choice((GapLabel.EOB, GapLabel.EOL))
            else:
                label = GapLabel.EOB
        labels.append(label)
        state = table[1 + label][state]
    labels.append(GapLabel.EOB)
    return AnnotatedSentence._of(words, tuple(labels))


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


@functools.lru_cache(maxsize=len(_PUNCTUATION) + 1)  # one per punctuation tail, "" included
def _tail_keys(tail: str) -> tuple[tuple[str, ...], ...]:
    """``_state_features`` of every state key for a punctuation tail,
    indexed by key id."""
    return tuple(_state_features(tail, *key) for key in _KEYS)


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
    through the transition tables.  Ties go to the lexicographically
    smallest label sequence.  A line break is never taken, frozen or not,
    once the block has the allowed number of lines.

    Every ``<eob>`` lands in one state and every ``<eol>`` in one state per
    line count, so each gap keeps a running best per break successor and
    merges the winners once.  A NONE move that leaves the line unclamped
    lands where no other move does.

    ``state_rows`` caches the summed state-feature rows per punctuation tail,
    indexed by key id; it is filled here and is valid only for ``weights``.
    """
    clamp = _char_clamp(profile)
    cpl_limit = profile.cpl_limit
    max_lines = profile.max_lines_per_block
    clamped = _state_id(clamp, GapLabel.NONE, 0, max_lines)  # the first clamped state id
    last = len(words)
    takes = tuple(label in open_labels for label in _ALL_LABELS)  # at an open gap
    # each entry holds (-score, labels), so the smallest entry is the one to
    # keep; the labels are a base-3 code, first label most significant, so
    # of two paths of one length the smaller code is the smaller path
    frontier: dict[int, tuple[float, int]] = {_start(words, clamp, cpl_limit, max_lines): (0.0, 0)}
    for gap, (features, tail, next_len) in enumerate(_sentence_pass(tuple(words)), start=1):
        gap_none, gap_eol, gap_eob = _score(features, weights)
        key_ids, none_ids, eol_ids, eob_ids = _table(min(next_len, clamp), clamp, cpl_limit, max_lines)
        keys = _tail_keys(tail)
        rows = state_rows.get(tail)
        if rows is None:
            rows = state_rows[tail] = [None] * len(_KEYS)
        forced = frozen.get(gap, GapLabel.EOB if gap == last else None)
        take_none, take_eol, take_eob = takes if forced is None else _ONLY[forced]
        expanded: dict[int, tuple[float, int]] = {}
        breaks: dict[int, tuple[float, int]] = {}  # the best <eol> per successor
        eob = None
        for state, (cost, code) in frontier.items():
            key = key_ids[state]
            row = rows[key]
            if row is None:
                row = rows[key] = _score(keys[key], weights)
            code *= 3
            if take_none:
                new_cost = cost - gap_none - row[0]
                after = none_ids[state]
                held = None if after < clamped else expanded.get(after)
                if held is None or new_cost < held[0] or (new_cost == held[0] and code < held[1]):
                    expanded[after] = (new_cost, code)
            if take_eol and eol_ids[state] >= 0:
                new_cost = cost - gap_eol - row[1]
                held = breaks.get(eol_ids[state])
                if held is None or new_cost < held[0] or (new_cost == held[0] and code + 1 < held[1]):
                    breaks[eol_ids[state]] = (new_cost, code + 1)
            if take_eob:
                new_cost = cost - gap_eob - row[2]
                if eob is None or new_cost < eob[0] or (new_cost == eob[0] and code + 2 < eob[1]):
                    eob = (new_cost, code + 2)
        if eob is not None:
            breaks[eob_ids[0]] = eob
        # a NONE into a clamped line may reach a break's state
        for after, move in breaks.items():
            held = expanded.get(after)
            if held is None or move < held:
                expanded[after] = move
        frontier = expanded
    cost, code = min(frontier.values())
    labels = []
    for _ in range(last):
        code, label = divmod(code, 3)
        labels.append(_ALL_LABELS[label])
    return tuple(reversed(labels)), -cost


def _path_differences(
    words: Sequence[str],
    gold: Sequence[GapLabel],
    predicted: Sequence[GapLabel],
    profile: ConstraintProfile,
) -> Iterable[tuple[list[str], GapLabel, int]]:
    """The perceptron update Phi(gold) - Phi(predicted) as (features, label,
    sign) triples: both grammatical label paths are walked in lockstep, and
    only a gap where their states or labels differ yields, gold's side (+1)
    first.  Elsewhere both sides bump the same features of the same label."""
    clamp = _char_clamp(profile)
    max_lines = profile.max_lines_per_block
    gold_state = guess_state = _start(words, clamp, profile.cpl_limit, max_lines)
    for gap, (gold_label, guess) in enumerate(zip(gold, predicted), start=1):
        if gold_state != guess_state or gold_label is not guess:
            for state, label, sign in ((gold_state, gold_label, 1), (guess_state, guess, -1)):
                chars, rest = divmod(state, len(_ALL_LABELS) * max_lines)  # unpacks _state_id
                prev = _ALL_LABELS[rest // max_lines]
                yield extract_features(words, gap, chars, prev, profile), label, sign
        next_len = min(len(words[gap]), clamp) if gap < len(words) else 0
        successors = _table(next_len, clamp, profile.cpl_limit, max_lines)
        gold_state = successors[1 + gold_label][gold_state]
        guess_state = successors[1 + guess][guess_state]
        if gold_state < 0 or guess_state < 0:
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
        """Mean weight rows over the snapshots taken after every step (training
        takes at least one); rows that average to zero are dropped."""
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
    gold_cache = [(s.words, s.labels) for s in sentences]
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
                for features, label, sign in _path_differences(words, gold, predicted, profile):
                    state.bump(features, label, sign * config.learning_rate)
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


def _plan(
    sentence: str | AnnotatedSentence, profile: ConstraintProfile, mode: str
) -> tuple[tuple[str, ...], dict[int, GapLabel], tuple[GapLabel, ...]]:
    """What a segmenter may do with ``sentence``: its words (checked when the
    sentence was built, so the output sentence reuses them unchecked), the
    labels of the gaps its breaks freeze, in gap order and never to be
    moved, and the labels an open gap may take.  In ``full`` mode that is
    NONE/EOL/EOB and the final gap is EOB; in ``eol_only`` mode the input
    must already end in ``<eob>`` and open gaps take NONE or EOL, so the
    block structure is untouched."""
    if mode not in ("full", "eol_only"):
        raise ValueError(f"mode must be 'full' or 'eol_only', got {mode!r}")
    if isinstance(sentence, str):
        sentence = AnnotatedSentence.from_text(sentence)
    words = sentence.words
    if not words:
        raise ValueError("sentence has no words")

    labels = sentence.labels
    frozen = {gap: label for gap, label in enumerate(labels, start=1) if label}
    if frozen:
        # frozen breaks must not already violate the grammar we guarantee
        if not check_lines(sentence, profile):
            raise GrammarViolation(f"an input block has more than {profile.max_lines_per_block} lines")
        if labels[-1] is GapLabel.EOL:
            raise GrammarViolation(f"input must not end with {EOL_SYMBOL}")

    if mode == "eol_only":
        if labels[-1] is not GapLabel.EOB:
            raise GrammarViolation("eol_only input must already end with <eob>")
        return words, frozen, _EOL_ONLY_LABELS
    return words, frozen, _ALL_LABELS


def segment_learned(
    model: LinearSegmenterModel,
    sentence: str | AnnotatedSentence,
    profile: ConstraintProfile = DEFAULT_PROFILE,
    mode: str = "full",
) -> AnnotatedSentence:
    """Segment ``sentence`` with an exact constrained left-to-right decode of
    the gaps that ``_plan`` leaves open.  A line break is never an option
    once a block has reached the allowed number of lines, so the decode
    always yields a grammatical sentence.
    """
    words, frozen, open_labels = _plan(sentence, profile, mode)
    labels, _ = _decode(words, model.weights, profile, frozen, open_labels, model._state_rows)
    return AnnotatedSentence._of(words, labels)


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
    """Read a model file; text that is not UTF-8 or not a model names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_model(handle.read())
    except (UnicodeDecodeError, ModelFormatError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
