"""Deterministic synthetic corpora for segmenter and pipeline tests.

The gold breaks come from a hidden rule mixing punctuation and length cues:
a strong-punctuation word always ends a block, a comma or a line of 26+
characters ends a line (or the block, if the block already has two lines),
and the sentence always ends a block.  Lines therefore never exceed
26 + 10 = 36 characters, so rule sentences are conforming at the default
42-character limit, while collapsing their two-line blocks usually is not.
"""

import random

from subseg.annotate import AnnotatedSentence, GapLabel

LINE_TRIGGER = 26
COMMA_TRIGGER = 13

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def make_vocab(seed=99, size=160):
    rng = random.Random(seed)
    vocab = set()
    while len(vocab) < size:
        vocab.add("".join(rng.choice(_LETTERS) for _ in range(rng.randint(2, 9))))
    return sorted(vocab)


def hidden_rule_labels(words):
    """Gold gap labels for ``words`` under the hidden segmentation rule."""
    labels = [GapLabel.NONE] * len(words)
    chars = len(words[0])
    lines = 1
    for gap in range(1, len(words)):
        word = words[gap - 1]
        if word[-1] in ".!?":
            label = GapLabel.EOB
        elif word[-1] == "," and chars >= COMMA_TRIGGER:
            label = GapLabel.EOL if lines == 1 else GapLabel.EOB
        elif chars >= LINE_TRIGGER:
            label = GapLabel.EOL if lines == 1 else GapLabel.EOB
        else:
            label = GapLabel.NONE
        labels[gap - 1] = label
        next_len = len(words[gap])
        if label is GapLabel.NONE:
            chars += 1 + next_len
        elif label is GapLabel.EOL:
            chars, lines = next_len, 2
        else:
            chars, lines = next_len, 1
    labels[-1] = GapLabel.EOB
    return labels


def make_sentence(rng, vocab, min_words=6, max_words=24, comma_prob=0.12, strong_prob=0.05):
    words = []
    n = rng.randint(min_words, max_words)
    for i in range(n):
        word = rng.choice(vocab)
        if i + 1 < n:
            roll = rng.random()
            if roll < comma_prob:
                word += ","
            elif roll < comma_prob + strong_prob:
                word += "."
        elif rng.random() < 0.8:
            word += "."
        words.append(word)
    return AnnotatedSentence(words, hidden_rule_labels(words))


def make_corpus(n, seed, vocab=None, min_words=6, max_words=24, comma_prob=0.12, strong_prob=0.05):
    rng = random.Random(seed)
    vocab = vocab if vocab is not None else make_vocab()
    return [
        make_sentence(rng, vocab, min_words, max_words, comma_prob, strong_prob)
        for _ in range(n)
    ]


def strip_eols(sentence):
    """Collapse every block to one line by dropping the <eol> tokens."""
    labels = (GapLabel.NONE if label is GapLabel.EOL else label for label in sentence.labels)
    return AnnotatedSentence(sentence.words, tuple(labels))


def partially_collapsed_corpus(n, seed, keep_eol_fraction=0.25, vocab=None):
    """A corpus where most sentences lost their <eol> annotations, emulating
    collapsed two-line blocks; returns (corpus, gold) aligned by index."""
    gold = make_corpus(n, seed, vocab=vocab)
    rng = random.Random(seed + 1)
    corpus = [
        s if rng.random() < keep_eol_fraction else strip_eols(s) for s in gold
    ]
    return corpus, gold


def reannotation_corpus(n, seed, keep_eol_fraction=0.15):
    """Like :func:`partially_collapsed_corpus`, but skewed toward long
    two-line blocks (no mid-sentence block punctuation), so collapsing the
    lines leaves most of the corpus over the 42-character line limit."""
    gold = make_corpus(
        n, seed, min_words=14, max_words=30, comma_prob=0.08, strong_prob=0.0
    )
    rng = random.Random(seed + 1)
    corpus = [s if rng.random() < keep_eol_fraction else strip_eols(s) for s in gold]
    return corpus, gold


def make_plain_sentences(n, seed, max_words=25, max_word_len=12):
    """Plain fuzz sentences (letters plus occasional punctuation)."""
    rng = random.Random(seed)
    alphabet = _LETTERS + _LETTERS.upper() + "éüñà'"
    sentences = []
    for _ in range(n):
        words = []
        for _ in range(rng.randint(1, max_words)):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_word_len)))
            if rng.random() < 0.15:
                word += rng.choice(".,!?;:")
            words.append(word)
        sentences.append(" ".join(words))
    return sentences
