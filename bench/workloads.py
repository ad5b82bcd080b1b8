"""Seeded workloads of the subseg benchmark.

Each workload writes its inputs from the seed in ``setup`` (the program only
ever sees these files and the CLI flags), runs one timed pass in ``run``, and
checks that pass's outputs in ``check``.  Inputs come from the test suite's
generator (``tests/synth.py``) and from ``render_srt`` / ``serialize_srt``.

The checks parse the outputs with the benchmark's own code, not with
``subseg``, and score breaks independently of ``subseg.evaluation``; where
the program reports a score too (``evaluate``, ``reannotate --report``), a
disagreement counts as a failed operation.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import synth
from subseg import cli
from subseg.annotate import render_srt, strip_breaks
from subseg.srt_io import SegmentDuration, SubtitleDocument, serialize_srt

from tracer import span

EOL, EOB = "<eol>", "<eob>"
CPL_LIMIT = 42  # the default profile's line limit
MAX_LINES = 2  # the default profile's lines per block


class Outcome:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {reason}", file=sys.stderr)
        return ok


# --- output checks, independent of subseg --------------------------------


def tokens_of(text: str) -> tuple[list[str], list[tuple[int, str]]]:
    """Words and (gap, kind) breaks of one annotated corpus line."""
    words: list[str] = []
    breaks: list[tuple[int, str]] = []
    for token in text.split():
        if token in (EOL, EOB):
            breaks.append((len(words), token))
        else:
            words.append(token)
    return words, breaks


def lines_of(text: str) -> list[list[list[str]]]:
    """Blocks of lines of words."""
    blocks, lines, words = [], [], []
    for token in text.split():
        if token == EOL:
            lines.append(words)
            words = []
        elif token == EOB:
            lines.append(words)
            blocks.append(lines)
            lines, words = [], []
        else:
            words.append(token)
    if words:
        lines.append(words)
    if lines:
        blocks.append(lines)
    return blocks


def is_strict(text: str) -> bool:
    """Ends with <eob>, every break follows a word, blocks have at most
    MAX_LINES lines."""
    tokens = text.split()
    if not tokens or tokens[-1] != EOB:
        return False
    previous_was_break = True
    for token in tokens:
        is_break = token in (EOL, EOB)
        if is_break and previous_was_break:
            return False
        previous_was_break = is_break
    return all(len(block) <= MAX_LINES for block in lines_of(text))


class Score:
    """Break P/R/F1 (position and kind must match, micro-averaged), break
    recall on references containing <eol>, exact-match share and line
    conformity of the hypotheses."""

    def __init__(self) -> None:
        self.pairs = self.exact = 0
        self.correct = self.hyp = self.ref = 0
        self.eol_correct = self.eol_ref = 0
        self.lines = self.conforming_lines = 0

    def add(self, hyp: str, ref: str) -> None:
        hyp_breaks = set(tokens_of(hyp)[1])
        ref_breaks = set(tokens_of(ref)[1])
        correct = len(hyp_breaks & ref_breaks)
        self.pairs += 1
        self.exact += hyp.split() == ref.split()
        self.correct += correct
        self.hyp += len(hyp_breaks)
        self.ref += len(ref_breaks)
        if EOL in ref.split():
            self.eol_correct += correct
            self.eol_ref += len(ref_breaks)
        for block in lines_of(hyp):
            for line in block:
                self.lines += 1
                self.conforming_lines += len(" ".join(line)) <= CPL_LIMIT

    def f1(self) -> float:
        precision = self.correct / self.hyp if self.hyp else 0.0
        recall = self.correct / self.ref if self.ref else 0.0
        return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    def quality(self) -> dict[str, float]:
        return {
            "exact_frac": self.exact / self.pairs,
            "break_f1": self.f1(),
            "eol_recall": self.eol_correct / self.eol_ref if self.eol_ref else 0.0,
            "line_conformity": self.conforming_lines / self.lines if self.lines else 0.0,
        }


def check_segmented(outcome: Outcome, outputs: list[str], inputs: list[str], what: str) -> None:
    """Segmenter output invariants: same number of sentences, normalized
    input text preserved, strict grammar, at most MAX_LINES per block."""
    outcome.expect(len(outputs) == len(inputs), f"{what}: {len(outputs)} outputs for {len(inputs)} inputs")
    for i, (out, source) in enumerate(zip(outputs, inputs)):
        outcome.expect(
            tokens_of(out)[0] == tokens_of(source)[0] and is_strict(out),
            f"{what}: sentence {i + 1} altered or not strict: {out!r}",
        )


# --- inputs ------------------------------------------------------------------


def make_sentences(seed: int, count: int, min_words: int, max_words: int) -> list:
    """``count`` strict sentences from ``synth.make_sentence`` whose lengths
    cycle through ``min_words..max_words``.

    Only the words and punctuation depend on the seed.  The length mix is
    the same for every seed, so the seed does not change how much work a
    pass holds: with lengths drawn at random, seeds differed by about 8% in
    decoder work at these sizes.
    """
    rng = random.Random(seed)
    vocab = synth.make_vocab()
    sizes = range(min_words, max_words + 1)
    return [synth.make_sentence(rng, vocab, n, n) for n in (sizes[i % len(sizes)] for i in range(count))]


def collapse(sentences: list, keep_every: int) -> list:
    """Strip the <eol>s of all but every ``keep_every``-th sentence, as
    ``synth.partially_collapsed_corpus`` does at random."""
    return [s if i % keep_every == 0 else synth.strip_eols(s) for i, s in enumerate(sentences)]


def read_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


# --- running the program ---------------------------------------------------


def run_cli(argv: list[str], tracer, outcome: Outcome, steps: dict[str, float], key: str) -> str:
    """Run one ``subseg`` command in-process; record its time as step ``key``
    and its success in ``outcome``; return what it printed to stdout."""
    out, err = io.StringIO(), io.StringIO()
    code: object = None
    start = time.perf_counter()
    with span(tracer, f"cli.{argv[0]}"):
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark keeps going and counts the failure
            code = traceback.format_exc()
    steps[key] = time.perf_counter() - start
    outcome.expect(code == 0, f"subseg {argv[0]} returned {code!r}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    name = ""
    short_talks: frozenset = frozenset()
    long_talks: frozenset = frozenset()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, inp: Path) -> None:
        raise NotImplementedError

    def run(self, inp: Path, out: Path, tracer) -> tuple[dict[str, float], Outcome]:
        """One timed pass: the time of each step and the operations' outcome."""
        raise NotImplementedError

    def rates(self, steps: dict[str, float]) -> dict[str, float]:
        """Throughputs (sentences/s) from the steps' times."""
        return {}

    def check(self, inp: Path, out: Path, outcome: Outcome) -> dict[str, float]:
        """Check the pass's outputs; return the quality metrics."""
        raise NotImplementedError


class AlignTalks(Workload):
    """Strict sentences rendered into talks, then ``build-corpus`` and ``stats``.

    Talk sizes are fixed so that only content varies with the seed:
    alignment cost grows faster than linearly with talk length, so random
    sizes would make the seed, not the program, set the time.
    """

    name = "align-talks"
    TALK_SIZES = (200, 400, 800, 1600)
    COLLAPSE = 0.3  # share of two-line cues collapsed to one line with a double space
    short_talks = frozenset({"talk0", "talk1"})
    long_talks = frozenset({"talk2", "talk3"})

    def setup(self, inp: Path) -> None:
        rng = random.Random(self.seed)
        (inp / "srt").mkdir()
        tsv, refs = [], []
        for number, size in enumerate(self.TALK_SIZES):
            talk = f"talk{number}"
            corpus = make_sentences(self.seed * 100 + number, size, 6, 24)
            cues = []
            offset = 0.0
            for sentence in corpus:
                duration = round(0.5 + len(strip_breaks(sentence)) / 15, 3)
                window = SegmentDuration(f"{talk}.wav", offset, duration)
                for cue in render_srt(sentence, window, start_index=len(cues) + 1):
                    if len(cue.lines) == 2 and rng.random() < self.COLLAPSE:
                        cue = replace(cue, lines=("  ".join(cue.lines),))
                    cues.append(cue)
                offset = round(offset + duration + 0.25, 3)
                tsv.append(f"{talk}\t{strip_breaks(sentence)}")
                refs.append(sentence.to_text())
            doc = SubtitleDocument(talk, tuple(cues))
            (inp / "srt" / f"{talk}.srt").write_text(serialize_srt(doc), encoding="utf-8")
        write_lines(inp / "sentences.tsv", tsv)
        write_lines(inp / "ref.txt", refs)

    def run(self, inp, out, tracer):
        steps: dict[str, float] = {}
        outcome = Outcome()
        run_cli(
            ["build-corpus", "--srt-dir", str(inp / "srt"), "--sentences", str(inp / "sentences.tsv"),
             "--out", str(out / "corpus.txt"), "--log", str(out / "align.log")],
            tracer, outcome, steps, "build_corpus_s",
        )
        report = run_cli(["stats", "--corpus", str(out / "corpus.txt"), "--json"], tracer, outcome, steps, "stats_s")
        (out / "stats.json").write_text(report, encoding="utf-8")
        return steps, outcome

    def rates(self, steps):
        return {"build_corpus_sps": sum(self.TALK_SIZES) / steps["build_corpus_s"]}

    def check(self, inp, out, outcome):
        refs = read_lines(inp / "ref.txt")
        corpus = iter(read_lines(out / "corpus.txt"))
        log = read_lines(out / "align.log")
        outcome.expect(len(log) == len(refs), f"alignment log has {len(log)} entries for {len(refs)} sentences")
        score = Score()
        for entry, ref in zip(log, refs):
            line_number, _, status, *_ = entry.split("\t")
            if not outcome.expect(status == "ok", f"sentence {line_number} not aligned: {entry}"):
                continue
            hyp = next(corpus, "")
            if outcome.expect(
                tokens_of(hyp)[0] == tokens_of(ref)[0] and is_strict(hyp),
                f"sentence {line_number}: aligned text differs from its source or is not strict: {hyp!r}",
            ):
                score.add(hyp, ref)
        outcome.expect(next(corpus, None) is None, "corpus has more sentences than the log aligned")
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8") or "{}")
        outcome.expect(
            stats.get("sentences") == score.pairs and stats.get("conformity", {}).get("totals", {}).get("lines") == score.lines,
            f"stats disagrees with the corpus: {stats}",
        )
        return score.quality()


class TrainChain(Workload):
    """Partially collapsed corpus through train, fine-tune, segment (learned
    and count-char), evaluate and reannotate, all through the CLI."""

    name = "train-chain"
    TRAIN = 320
    EPOCHS = 2
    HELD_OUT = 320
    FINE_TUNE_EPOCHS = 2
    # One iteration: a second one runs only when the first left sentences
    # over the limit, which depends on the seed and would make the seed, not
    # the program, set the time.
    ITERATIONS = 1

    def setup(self, inp):
        corpus = collapse(make_sentences(self.seed, self.TRAIN, 6, 24), keep_every=4)
        held_out = make_sentences(self.seed + 1_000_003, self.HELD_OUT, 6, 24)
        write_lines(inp / "train.txt", (s.to_text() for s in corpus))
        write_lines(inp / "heldout.txt", (strip_breaks(s) for s in held_out))
        write_lines(inp / "heldout_ref.txt", (s.to_text() for s in held_out))

    def run(self, inp, out, tracer):
        steps: dict[str, float] = {}
        outcome = Outcome()
        seed = str(self.seed)
        base, tuned = str(out / "base.tsv"), str(out / "tuned.tsv")
        commands = [
            ("train_s", ["train", "--corpus", str(inp / "train.txt"), "--out", base,
                         "--epochs", str(self.EPOCHS), "--seed", seed]),
            ("fine_tune_s", ["fine-tune", "--model", base, "--corpus", str(inp / "train.txt"), "--out", tuned,
                             "--epochs", str(self.FINE_TUNE_EPOCHS), "--seed", seed]),
            ("segment_s", ["segment", "--model", tuned, "--in", str(inp / "heldout.txt"),
                           "--out", str(out / "heldout_hyp.txt")]),
            ("count_char_s", ["segment", "--count-char", "--in", str(inp / "heldout.txt"),
                              "--out", str(out / "heldout_count_char.txt"), "--seed", seed]),
            ("evaluate_s", ["evaluate", "--hyp", str(out / "heldout_hyp.txt"), "--ref", str(inp / "heldout_ref.txt"),
                            "--json", str(out / "eval.json")]),
            ("reannotate_s", ["reannotate", "--corpus", str(inp / "train.txt"), "--model", base,
                              "--out", str(out / "reannotated.txt"), "--iterations", str(self.ITERATIONS),
                              "--epochs", str(self.FINE_TUNE_EPOCHS), "--seed", seed,
                              "--report", str(out / "reannotate.json")]),
        ]
        for key, argv in commands:
            run_cli(argv, tracer, outcome, steps, key)
        return steps, outcome

    def rates(self, steps):
        return {"segment_sps": self.HELD_OUT / steps["segment_s"]}

    def check(self, inp, out, outcome):
        plain = read_lines(inp / "heldout.txt")
        refs = read_lines(inp / "heldout_ref.txt")
        hyps = read_lines(out / "heldout_hyp.txt")
        check_segmented(outcome, hyps, plain, "segment")
        check_segmented(outcome, read_lines(out / "heldout_count_char.txt"), plain, "segment --count-char")
        score = Score()
        for hyp, ref in zip(hyps, refs):
            score.add(hyp, ref)
        quality = score.quality()
        reported = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        outcome.expect(abs(reported["f1"] - quality["break_f1"]) < 1e-9,
                       f"evaluate reports F1 {reported['f1']}, the benchmark scores {quality['break_f1']}")

        source = read_lines(inp / "train.txt")
        fixed = read_lines(out / "reannotated.txt")
        check_segmented(outcome, fixed, source, "reannotate")
        for i, (after, before) in enumerate(zip(fixed, source)):
            outcome.expect(
                [b for b in tokens_of(after)[1] if b[1] == EOB] == [b for b in tokens_of(before)[1] if b[1] == EOB],
                f"reannotate moved the blocks of sentence {i + 1}",
            )
        conformity = Score()
        for sentence in fixed:
            conformity.add(sentence, sentence)
        reports = json.loads((out / "reannotate.json").read_text(encoding="utf-8"))
        line_conformity = conformity.quality()["line_conformity"]
        outcome.expect(abs(reports[-1]["conformity_after"] - line_conformity) < 1e-9,
                       f"reannotate reports conformity {reports[-1]['conformity_after']}, "
                       f"the benchmark counts {line_conformity}")
        quality["line_conformity"] = line_conformity
        return quality


WORKLOADS = {w.name: w for w in (AlignTalks, TrainChain)}
