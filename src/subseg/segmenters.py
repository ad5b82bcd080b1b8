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
import numbers
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


# bound once: hot loops read module names, not ``GapLabel`` attributes
_ALL_LABELS = _NONE, _EOL, _EOB = tuple(GapLabel)
_EOL_ONLY_LABELS = (_NONE, _EOL)
# which labels a gap frozen at a label may take, indexed like _ALL_LABELS
_ONLY = {label: tuple(other is label for other in _ALL_LABELS) for label in _ALL_LABELS}
# per label: its name in model files, and its weight and sum slots in a training row
_LABEL_NAMES = tuple(label.name for label in _ALL_LABELS)
_INDEX_OF_NAME = {name: index for index, name in enumerate(_LABEL_NAMES)}
_SLOTS = tuple((label, label + 3) for label in range(len(_ALL_LABELS)))


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = DEFAULT_EPOCHS
    seed: int = 0

    def __post_init__(self):
        for name, value in (("epochs", self.epochs), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):  # a bool is not an int here
                raise ValueError(f"{name} is not an integer, got {value!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def _checked_rate(learning_rate: float) -> float:
    """A fine-tuning rate as a float; it must be a finite non-negative real, not a bool."""
    real = isinstance(learning_rate, numbers.Real) and not isinstance(learning_rate, bool)
    if not (real and 0 <= learning_rate < math.inf):  # NaN fails every comparison
        raise ValueError(f"learning rate must be finite and non-negative, got {learning_rate!r}")
    return float(learning_rate)


# one weight per gap label, indexed by ``GapLabel``: (NONE, EOL, EOB)
_Row = Sequence[float]


@dataclass(frozen=True)
class LinearSegmenterModel:
    """Sparse multiclass weights, one row of three per feature (indexed by
    ``GapLabel``), with the config of the run that trained them and its
    fine-tuning rate (``learning_rate``, None for training from zero weights),
    checked as ``fine_tune`` checks it and kept as a float, so that the model
    file can hold it.

    Features without a row score zero.  Models are immutable once trained
    and safe to decode with concurrently.  Decoding caches on the model
    (``_state_rows``, not a field, so equality and the model file ignore
    it) the state features' rows, resolved with ``weights.get(feature,
    _ZERO_ROW)``, and their sums, and shares the per-profile transition
    tables of ``_transitions``; an entry depends only on its key and the
    weights, so concurrent fills write equal entries.
    """

    weights: dict[str, tuple[float, float, float]]
    config: TrainingConfig
    learning_rate: float | None

    def __post_init__(self):
        if self.learning_rate is not None:
            object.__setattr__(self, "learning_rate", _checked_rate(self.learning_rate))

    @functools.cached_property
    def _state_rows(self) -> _StateRows:
        return {}


_PUNCTUATION = set(".,;:!?…\"')»]}")


_BUCKET_CHARS = 4
_BUCKET_CAP = 15
_CAPPED_CHARS = _BUCKET_CHARS * _BUCKET_CAP  # the first length whose bucket is capped


def _length_bucket(chars: int) -> int:
    return min(chars // _BUCKET_CHARS, _BUCKET_CAP)


def _char_clamp(cpl_limit: int) -> int:
    """Line length past which no feature changes.

    From there on the length bucket is capped and every next word overflows
    the line, so the decoder may clamp its character count here.
    """
    return max(_CAPPED_CHARS, cpl_limit)


# the gap features of small domains, formatted once: the bucketed length to
# the sentence end, indexed by the length up to _CAPPED_CHARS, word lengths
# up to _LENGTHS (longer ones are formatted per gap), the punctuation pair
# per tail, and the tenth of the sentence
_LENGTHS = 64
_TO_END = tuple(f"to_end={_length_bucket(chars)}" for chars in range(_CAPPED_CHARS + 1))
_WLEN = tuple(f"wlen={n}" for n in range(_LENGTHS))
_NLEN = tuple(f"nlen={n}" for n in range(_LENGTHS))
_TAIL_FEATURES = {
    tail: (f"punct={int(bool(tail))}", f"tail={tail}") for tail in ("", *_PUNCTUATION)
}
_POS = tuple(f"pos={tenth}" for tenth in range(10))


@functools.lru_cache(maxsize=1)  # the latest sentence: one training step's decode and update
def _sentence_pass(words: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], str, int], ...]:
    """For every gap of ``words``, in gap order: the features of the gap
    after its word that no decoder state changes, the word's punctuation
    tail and the next word's length (0 after the last word).  The decoder,
    the update's walk and ``extract_features`` read it, so one training
    step builds each gap's features once for its decode and its update.

    The last gap has no such features: both segmenters force its ``<eob>``
    and strict gold ends in one, so they would add the same score to every
    path."""
    last = len(words)
    to_end = len(" ".join(words))
    wlen = len(words[0])
    gaps = []
    for gap, word in enumerate(words, start=1):
        tail = word[-1] if word[-1] in _PUNCTUATION else ""
        if gap == last:
            gaps.append(((), tail, 0))
            break
        to_end -= wlen + 1  # the length of words[gap:] joined
        nxt = words[gap]
        nlen = len(nxt)
        punct, tail_feature = _TAIL_FEATURES[tail]
        features = (
            _TO_END[to_end if to_end < _CAPPED_CHARS else _CAPPED_CHARS],
            "w=" + word,
            _WLEN[wlen] if wlen < _LENGTHS else f"wlen={wlen}",
            "n=" + nxt,
            _NLEN[nlen] if nlen < _LENGTHS else f"nlen={nlen}",
            punct,
            tail_feature,
            _POS[(10 * gap) // last],
        )
        gaps.append((features, tail, nlen))
        wlen = nlen
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
    tables = _transitions(profile.cpl_limit, profile.max_lines_per_block)
    state = _state_id(min(chars_since_break, tables.clamp), prev_break, 0, tables.max_lines)
    key = tables[next_len][0][state]
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
    tables = _transitions(profile.cpl_limit, profile.max_lines_per_block)
    max_lines = tables.max_lines
    state = _start(words, tables)
    labels = []
    for gap, word in enumerate(words[1:], start=1):
        table = tables[len(word)]
        _, prev, overflow = _KEYS[table[0][state]]
        label = frozen.get(gap, _NONE)
        if overflow and gap not in frozen:
            # the block's frozen <eol>s after this gap, up to its frozen <eob>
            ahead = itertools.takewhile(_EOL.__eq__, (f for g, f in frozen.items() if g > gap))
            roomy = state % max_lines + 1 + len(list(ahead)) < max_lines
            if _EOB not in open_labels:
                label = _EOL if roomy else _NONE
            elif prev is _EOB and roomy:
                label = rng.choice((_EOB, _EOL))
            else:
                label = _EOB
        labels.append(label)
        state = table[1 + label][state]
    labels.append(_EOB)
    return AnnotatedSentence._of(words, tuple(labels))


# what the state features see of a state, besides the word's punctuation
# tail: (length bucket, previous break, whether the next word overflows)
_StateKey = tuple[int, GapLabel, bool]
# per punctuation tail, two lists indexed by key id: the summed rows of the
# key's state features, and those features' weight rows, in feature order
_StateRows = dict[str, tuple[list, list]]
_ZERO_ROW = (0.0, 0.0, 0.0)  # the row a state feature without weights resolves to

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


@functools.lru_cache(maxsize=1)
def _every_state_feature() -> tuple[str, ...]:
    """Every state-feature string once, without building ``_tail_keys``
    for every tail (which would hold each string many times over)."""
    return tuple(dict.fromkeys(
        feature for tail in _TAIL_FEATURES for key in _KEYS for feature in _state_features(tail, *key)
    ))


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


def _table(next_len: int, clamp: int, cpl_limit: int, max_lines: int) -> tuple[list[int], ...]:
    """The decoder's transition when the next word has ``next_len``
    characters: four lists indexed by state id, giving the state's key id
    and its NONE, EOL and EOB successor ids; -1 stands for an ``<eol>`` past
    the block's line cap, a state the profile does not have.

    ``next_len`` is at most ``clamp``: every longer word overflows the
    line and starts a clamped one, so ``_Transitions`` answers it with the
    clamp's table.  Callers read it through ``_transitions``, which builds
    each table once.
    """
    table: tuple[list[int], ...] = ([], [], [], [])
    # in state id order
    for chars, prev, eols in itertools.product(range(clamp + 1), GapLabel, range(max_lines)):
        overflow = next_len > 0 and chars + 1 + next_len > cpl_limit
        table[0].append((_length_bucket(chars) * 3 + prev) * 2 + overflow)
        table[1].append(_state_id(min(chars + 1 + next_len, clamp), prev, eols, max_lines))
        table[2].append(
            _state_id(next_len, _EOL, eols + 1, max_lines) if eols + 1 < max_lines else -1
        )
        table[3].append(_state_id(next_len, _EOB, 0, max_lines))
    return table


class _Transitions(dict):
    """The decoder's transition tables for one line limit and line cap,
    indexed by any next-word length.  ``__missing__`` builds a table with
    ``_table`` on its first lookup, so callers index it with no call per
    gap, and answers a length past ``clamp`` with the clamp's table without
    storing it again, so the dict holds one entry per clamped length.  This
    is the one place a next-word length is clamped.  Concurrent first
    lookups may each build one; they store equal tables."""

    def __init__(self, cpl_limit: int, max_lines: int):
        super().__init__()
        self.clamp = _char_clamp(cpl_limit)
        self.cpl_limit = cpl_limit
        self.max_lines = max_lines

    def __missing__(self, next_len: int) -> tuple[list[int], ...]:
        if next_len > self.clamp:
            return self[self.clamp]
        table = self[next_len] = _table(next_len, self.clamp, self.cpl_limit, self.max_lines)
        return table


_transitions = functools.lru_cache(maxsize=None)(_Transitions)  # one per line limit and cap


def _start(words: Sequence[str], tables: _Transitions) -> int:
    """A sentence starts on a fresh screen, as if after an ``<eob>``: the
    EOB successor of the state (0, EOB, 0), read from the first word's
    table, which ``tables`` clamps like any other."""
    return tables[len(words[0])][1 + _EOB][_state_id(0, _EOB, 0, tables.max_lines)]


def _state_row(
    tail: str, key: int, resolved: list[tuple[_Row, ...] | None], weights: Mapping[str, _Row]
) -> tuple[float, float, float]:
    """``_score`` of the state features of key id ``key`` for a punctuation
    tail, from their rows, looked up in ``weights`` once and kept in
    ``resolved``; a ``_ZERO_ROW`` leaves every sum as it was."""
    rows = resolved[key]
    if rows is None:
        rows = resolved[key] = tuple(weights.get(f, _ZERO_ROW) for f in _tail_keys(tail)[key])
    # left to right, as _score adds; not sum(), which compensates float
    # sums from Python 3.12 and would change decodes across interpreters
    a, b, c, d, e, f = rows
    return (
        a[0] + b[0] + c[0] + d[0] + e[0] + f[0],
        a[1] + b[1] + c[1] + d[1] + e[1] + f[1],
        a[2] + b[2] + c[2] + d[2] + e[2] + f[2],
    )


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

    ``state_rows`` caches the state-feature rows (``_StateRows``) for
    ``weights`` only.  Its sums hold until a weight changes; its resolved
    rows hold while every row changes in place and no feature gains a row.
    """
    tables = _transitions(profile.cpl_limit, profile.max_lines_per_block)
    clamped = _state_id(tables.clamp, _NONE, 0, tables.max_lines)  # the first clamped state id
    last = len(words)
    takes = tuple(label in open_labels for label in _ALL_LABELS)  # at an open gap
    # each entry holds (-score, labels), so the smallest entry is the one to
    # keep; the labels are a base-3 code, first label most significant, so
    # of two paths of one length the smaller code is the smaller path
    frontier: dict[int, tuple[float, int]] = {_start(words, tables): (0.0, 0)}
    for gap, (features, tail, next_len) in enumerate(_sentence_pass(tuple(words)), start=1):
        gap_none, gap_eol, gap_eob = _score(features, weights)
        key_ids, none_ids, eol_ids, eob_ids = tables[next_len]
        tail_rows = state_rows.get(tail)
        if tail_rows is None:
            tail_rows = state_rows[tail] = ([None] * len(_KEYS), [None] * len(_KEYS))
        rows, resolved = tail_rows
        forced = frozen.get(gap, _EOB if gap == last else None)
        take_none, take_eol, take_eob = takes if forced is None else _ONLY[forced]
        expanded: dict[int, tuple[float, int]] = {}
        breaks: dict[int, tuple[float, int]] = {}  # the best <eol> per successor
        eob = None
        for state, (cost, code) in frontier.items():
            key = key_ids[state]
            row = rows[key]
            if row is None:
                row = rows[key] = _state_row(tail, key, resolved, weights)
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
) -> Iterable[tuple[Sequence[str], GapLabel, int]]:
    """The perceptron update Phi(gold) - Phi(predicted) as (features, label,
    sign) triples: both grammatical label paths are walked in lockstep, and
    only a gap where their states or labels differ yields, gold's side (+1)
    first.  Elsewhere both sides bump the same features of the same label.
    Where only the states differ, the gap features cancel too, so each side
    yields its six state features alone."""
    tables = _transitions(profile.cpl_limit, profile.max_lines_per_block)
    max_lines = tables.max_lines
    gold_state = guess_state = _start(words, tables)
    for gap, (gold_label, guess, (_, tail, next_len)) in enumerate(
        zip(gold, predicted, _sentence_pass(tuple(words))), start=1
    ):
        successors = tables[next_len]
        if gold_label is not guess:
            for state, label, sign in ((gold_state, gold_label, 1), (guess_state, guess, -1)):
                chars, rest = divmod(state, len(_ALL_LABELS) * max_lines)  # unpacks _state_id
                prev = _ALL_LABELS[rest // max_lines]
                yield extract_features(words, gap, chars, prev, profile), label, sign
        elif gold_state != guess_state:
            keys, key_ids = _tail_keys(tail), successors[0]
            yield keys[key_ids[gold_state]], gold_label, 1
            yield keys[key_ids[guess_state]], guess, -1
        gold_state = successors[1 + gold_label][gold_state]
        guess_state = successors[1 + guess][guess_state]
        if gold_state < 0 or guess_state < 0:
            raise ValueError(f"gap {gap}: an {EOL_SYMBOL} past the block's line cap")


class _AveragedWeights:
    """Sparse weight rows and the sums their mean over every step needs.

    A snapshot of every weight is (conceptually) taken after each step.  An
    update ``delta`` at step ``s`` is in the last ``T - s + 1`` of ``T``
    snapshots, so they sum to ``T * w - u``, where ``u`` sums ``(s - 1) *
    delta``.  Each feature has one row of six, its weights ``w`` and sums
    ``u`` indexed by ``GapLabel`` from 0 and 3; it scores like a model row.
    """

    def __init__(self, initial: Mapping[str, _Row]):
        self.rows: dict[str, list[float]] = {
            feature: [*row, 0.0, 0.0, 0.0] for feature, row in initial.items()
        }
        self.step = 0

    def bump(self, features: Iterable[str], label: GapLabel, delta: float) -> None:
        """Add ``delta`` to the ``label`` weight of each feature, in order."""
        weight, total = _SLOTS[label]
        weighted = (self.step - 1) * delta  # by the steps before this one
        rows = self.rows
        for feature in features:
            row = rows.get(feature)
            if row is None:
                row = rows[feature] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            row[weight] += delta
            row[total] += weighted

    def add_rows(self, features: Iterable[str]) -> None:
        """Give each feature that has no row the zero row ``bump`` would."""
        rows = self.rows
        for feature in features:
            if feature not in rows:
                rows[feature] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def averaged(self) -> dict[str, tuple[float, float, float]]:
        """Mean weight rows over the snapshots taken after every step (training
        takes at least one); rows that average to zero are dropped."""
        averages: dict[str, tuple[float, float, float]] = {}
        for feature, row in self.rows.items():
            mean = tuple((self.step * row[weight] - row[total]) / self.step for weight, total in _SLOTS)
            if any(mean):
                averages[feature] = mean
        return averages


def _run_perceptron(
    initial: Mapping[str, _Row],
    sentences: Sequence[AnnotatedSentence],
    config: TrainingConfig,
    profile: ConstraintProfile,
    learning_rate: float | None,
) -> LinearSegmenterModel:
    rate = 1.0 if learning_rate is None else learning_rate  # None: unit steps
    state = _AveragedWeights(initial)
    # the decoder resolves a state feature's row once per run and bump
    # updates rows in place, so each must have its row before the first decode
    state.add_rows(_every_state_feature())
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
                    state.bump(features, label, sign * rate)
                for sums, _ in state_rows.values():  # they hold until the weights change
                    sums[:] = [None] * len(_KEYS)
        if mistakes == 0:
            break  # weights are now fixed points; further epochs cannot change them

    return LinearSegmenterModel(state.averaged(), config, learning_rate)


def train(
    corpus: Iterable[AnnotatedSentence],
    config: TrainingConfig = TrainingConfig(),
    profile: ConstraintProfile = DEFAULT_PROFILE,
) -> LinearSegmenterModel:
    """Train the gap classifier with the averaged perceptron.

    Every sentence must be strict; each epoch decodes every sentence with
    the current weights and updates toward the gold path on mistakes.
    Deterministic under a fixed config (shuffling uses ``config.seed``).
    From zero weights a rate would only scale the model, so updates are
    unit steps.
    """
    sentences = list(corpus)
    if not sentences:
        raise EmptyCorpus("training corpus is empty")
    for sentence in sentences:
        sentence.validate_strict(profile.max_lines_per_block)
    return _run_perceptron({}, sentences, config, profile, None)


def fine_tune(
    model: LinearSegmenterModel,
    eol_subset: Iterable[AnnotatedSentence],
    config: TrainingConfig | None = None,
    profile: ConstraintProfile = DEFAULT_PROFILE,
    learning_rate: float = 1.0,
) -> LinearSegmenterModel:
    """Continue training from ``model`` on sentences that all contain ``<eol>``."""
    learning_rate = _checked_rate(learning_rate)
    sentences = list(eol_subset)
    if not sentences:
        raise EmptyCorpus("fine-tuning subset is empty")
    for i, sentence in enumerate(sentences):
        if not sentence.has_eol:
            raise SubsetViolation(f"sentence {i} has no {EOL_SYMBOL}")
        sentence.validate_strict(profile.max_lines_per_block)
    if config is None:
        config = TrainingConfig(epochs=DEFAULT_FINE_TUNE_EPOCHS)
    return _run_perceptron(model.weights, sentences, config, profile, learning_rate)


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
        if labels[-1] is _EOL:
            raise GrammarViolation(f"input must not end with {EOL_SYMBOL}")

    if mode == "eol_only":
        if labels[-1] is not _EOB:
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
        f"learning_rate\t{1.0 if model.learning_rate is None else model.learning_rate!r}",
        f"seed\t{model.config.seed}",
        f"fine_tuned\t{'false' if model.learning_rate is None else 'true'}",
        "weights",
    ]
    records = sorted(
        (feature, label, value)
        for feature, row in model.weights.items()
        for label, value in zip(_LABEL_NAMES, row)
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
        config = TrainingConfig(epochs=int(header["epochs"]), seed=int(header["seed"]))
        rate = _checked_rate(float(header["learning_rate"]))  # a base model's is dropped
        learning_rate = rate if _FLAGS[header["fine_tuned"]] else None
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad header: {exc}") from None

    rows: dict[str, list[float | None]] = {}
    for number, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line:
            continue
        try:
            feature, label_name, value_text = line.split("\t")
            label = _INDEX_OF_NAME[label_name]
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
    return LinearSegmenterModel(weights, config, learning_rate)


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
