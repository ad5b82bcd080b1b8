"""Command-line interface.

Subcommands: build-corpus, train, fine-tune, segment, evaluate, stats,
reannotate.  All randomness flows from ``--seed``, so identical inputs and
seed produce byte-identical outputs.  Exit status is 0 on success, 1 on an
operational error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

from .annotate import AnnotatedSentence, GrammarViolation, NoAlignment
from .constraints import ConstraintProfile
from .evaluation import evaluate
from .pipeline import AlignmentLogEntry, build_corpus, reannotate, stats
from .segmenters import (
    DEFAULT_EPOCHS,
    DEFAULT_FINE_TUNE_EPOCHS,
    TrainingConfig,
    load_model,
    save_model,
    segment_count_char,
    segment_learned,
    train,
    fine_tune,
)
from .srt_io import load_segments_metadata, parse_srt

# every other error the commands raise on bad input (malformed files, grammar
# violations, bad settings, empty corpora) subclasses ValueError
_OPERATIONAL_ERRORS = (OSError, ValueError, NoAlignment)


# each limit is read as the type of its default
_PROFILE_KEYS = {field.name: type(field.default) for field in fields(ConstraintProfile)}
_CONFIG_KEYS = {
    "epochs": int,
    "fine_tune_epochs": int,
    "learning_rate": float,
    "seed": int,
    "iterations": int,
}


def _read_settings(path: str, types: dict[str, type]) -> dict[str, object]:
    """Typed ``key = value`` lines; an unknown key or a bad value names its line."""
    values: dict[str, object] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{line_number}: expected 'key = value', got {line!r}")
        if key not in types:
            raise ValueError(
                f"{path}:{line_number}: unknown key {key!r}, expected one of {sorted(types)}"
            )
        try:
            values[key] = types[key](value)
        except ValueError:
            raise ValueError(f"{path}:{line_number}: bad value for {key}: {value!r}") from None
    return values


def _load_profile(path: str | None) -> ConstraintProfile:
    return ConstraintProfile(**_read_settings(path, _PROFILE_KEYS)) if path else ConstraintProfile()


def _flag_or_config(flag_value, args: argparse.Namespace, key: str):
    """A flag's value if it was given, else ``key`` from ``--config``; None if neither."""
    return args.settings.get(key) if flag_value is None else flag_value


def _given(**values) -> dict[str, object]:
    """The keyword arguments that are set; the others keep the callee's defaults."""
    return {name: value for name, value in values.items() if value is not None}


def _training_config(
    args: argparse.Namespace, epochs_key: str, default_epochs: int, learning_rate: float | None
) -> TrainingConfig:
    """Training settings from the flags and ``--config``, which gives the
    epochs under ``epochs_key``."""
    epochs = _flag_or_config(args.epochs, args, epochs_key)
    return TrainingConfig(
        epochs=default_epochs if epochs is None else epochs,
        **_given(
            learning_rate=_flag_or_config(learning_rate, args, "learning_rate"),
            seed=_flag_or_config(args.seed, args, "seed"),
        ),
    )


def _read_corpus(path: str) -> list[AnnotatedSentence]:
    sentences = []
    for line_number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if raw.strip():
            try:
                sentences.append(AnnotatedSentence.from_text(raw))
            except GrammarViolation as exc:
                raise GrammarViolation(f"{path}:{line_number}: {exc}") from None
    return sentences


def _write_lines(path: str, lines: Iterable[str]) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _cmd_build_corpus(args: argparse.Namespace) -> int:
    if args.profile:
        _load_profile(args.profile)  # validated; alignment itself is profile-independent
    docs, broken_talks = [], {}
    for srt_path in sorted(Path(args.srt_dir).glob("*.srt")):
        try:  # a file that does not decode or parse costs only its own talk
            docs.append(parse_srt(srt_path.read_text(encoding="utf-8"), talk_id=srt_path.stem))
        except ValueError as exc:
            broken_talks[srt_path.stem] = f"{srt_path}: {exc}"
            print(f"warning: skipped {srt_path}: {exc}", file=sys.stderr)
    sentences, line_numbers, malformed = [], [], []
    for line_number, raw in enumerate(
        Path(args.sentences).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not raw.strip():
            continue
        if "\t" not in raw:  # costs only this line
            malformed.append(
                AlignmentLogEntry(line_number, "", False, "expected 'talk_id<TAB>sentence'")
            )
            continue
        talk_id, text = raw.split("\t", 1)
        sentences.append((talk_id, text))
        line_numbers.append(line_number)
    corpus, log = build_corpus(docs, sentences, line_numbers, broken_talks)
    log = sorted(log + malformed, key=lambda entry: entry.line_number)
    _write_lines(args.out, (sentence.to_text() for sentence in corpus))
    if args.log:
        _write_lines(
            args.log,
            (
                f"{entry.line_number}\t{entry.talk_id}\t"
                f"{'ok' if entry.aligned else 'failed'}\t{entry.detail}"
                for entry in log
            ),
        )
    aligned = sum(1 for entry in log if entry.aligned)
    print(f"aligned {aligned}/{len(log)} sentences")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _training_config(args, "epochs", DEFAULT_EPOCHS, args.learning_rate)
    model = train(_read_corpus(args.corpus), config, _load_profile(args.profile))
    save_model(model, args.out)
    print(f"trained on {args.corpus}, wrote {args.out}")
    return 0


def _cmd_fine_tune(args: argparse.Namespace) -> int:
    config = _training_config(args, "fine_tune_epochs", DEFAULT_FINE_TUNE_EPOCHS, args.learning_rate)
    corpus = _read_corpus(args.corpus)
    subset = [sentence for sentence in corpus if sentence.has_eol]
    if len(subset) < len(corpus):
        print(f"using the {len(subset)}/{len(corpus)} sentences containing <eol>", file=sys.stderr)
    model = fine_tune(load_model(args.model), subset, config, _load_profile(args.profile))
    save_model(model, args.out)
    print(f"fine-tuned {args.model}, wrote {args.out}")
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    seed = _flag_or_config(args.seed, args, "seed") or 0
    lines = Path(args.infile).read_text(encoding="utf-8").splitlines()
    model = None if args.count_char else load_model(args.model)
    # output line i holds input line i, blank or not; count-char seeds each
    # line with the base seed plus the line's index in the file
    out = []
    for i, line in enumerate(lines):
        if not line.strip():
            out.append("")
        elif model is None:
            out.append(segment_count_char(line, profile, seed=seed + i).to_text())
        else:
            out.append(segment_learned(model, line, profile, mode=args.mode).to_text())
    _write_lines(args.out, out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    hyp = _read_corpus(args.hyp)
    ref = _read_corpus(args.ref)
    if len(hyp) != len(ref):
        raise ValueError(f"hypothesis has {len(hyp)} sentences, reference {len(ref)}")
    report = evaluate(zip(hyp, ref), profile)
    if args.table:
        print(report.to_table())
    else:
        print(report.to_json())
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    metadata = None
    if args.metadata:
        metadata = load_segments_metadata(Path(args.metadata).read_text(encoding="utf-8"))
    report = stats(_read_corpus(args.corpus), metadata, profile)
    print(report.to_json() if args.json else report.to_text())
    return 0


def _cmd_reannotate(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    # reannotate has no --learning-rate flag; --config may still set it
    config = _training_config(args, "fine_tune_epochs", DEFAULT_FINE_TUNE_EPOCHS, None)
    corpus, model, reports = reannotate(
        _read_corpus(args.corpus),
        load_model(args.model),
        profile,
        config,
        **_given(iterations=_flag_or_config(args.iterations, args, "iterations")),
    )
    _write_lines(args.out, (sentence.to_text() for sentence in corpus))
    if args.model_out:
        save_model(model, args.model_out)
    for report in reports:
        print(
            f"iteration {report.iteration}: selected {report.selected}, "
            f"accepted {report.accepted}, conformity "
            f"{report.conformity_before:.4f} -> {report.conformity_after:.4f}"
        )
    if args.report:
        Path(args.report).write_text(
            json.dumps([r.to_json_dict() for r in reports], sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subseg",
        description="Subtitle segmentation toolkit: corpus construction, "
        "training, segmentation, evaluation and re-annotation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    common.add_argument("--profile", help="constraint profile file (key = value lines)")
    common.add_argument("--config", help="pipeline config file (key = value lines)")

    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-corpus", parents=[common], help="align sentences to .srt cues")
    p.add_argument("--srt-dir", required=True, help="directory of .srt files (talk id = stem)")
    p.add_argument("--sentences", required=True, help="TSV file: talk_id<TAB>sentence")
    p.add_argument("--out", required=True, help="annotated corpus output")
    p.add_argument("--log", help="per-sentence alignment log (TSV)")
    p.set_defaults(func=_cmd_build_corpus)

    p = commands.add_parser("train", parents=[common], help="train the gap classifier")
    p.add_argument("--corpus", required=True, help="annotated training corpus")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.set_defaults(func=_cmd_train)

    p = commands.add_parser("fine-tune", parents=[common], help="fine-tune on <eol> sentences")
    p.add_argument("--model", required=True, help="base model file")
    p.add_argument("--corpus", required=True, help="annotated corpus (only <eol> sentences used)")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.set_defaults(func=_cmd_fine_tune)

    p = commands.add_parser("segment", parents=[common], help="insert break symbols")
    p.add_argument("--in", dest="infile", required=True, help="input sentences, one per line")
    p.add_argument("--out", required=True, help="annotated output file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="trained model file")
    group.add_argument("--count-char", action="store_true", help="use the character-count baseline")
    p.add_argument("--mode", choices=("full", "eol_only"), default="full")
    p.set_defaults(func=_cmd_segment)

    p = commands.add_parser("evaluate", parents=[common], help="score hypotheses against references")
    p.add_argument("--hyp", required=True, help="hypothesis corpus")
    p.add_argument("--ref", required=True, help="reference corpus")
    p.add_argument("--json", help="also write the JSON report to this path")
    p.add_argument("--table", action="store_true", help="print a table instead of JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = commands.add_parser("stats", parents=[common], help="corpus statistics")
    p.add_argument("--corpus", required=True, help="annotated corpus")
    p.add_argument("--metadata", help="duration sidecar aligned 1:1 with the corpus")
    p.add_argument("--json", action="store_true", help="print JSON instead of key/value lines")
    p.set_defaults(func=_cmd_stats)

    p = commands.add_parser("reannotate", parents=[common], help="iterative line-break restoration")
    p.add_argument("--corpus", required=True, help="annotated corpus with <eob> structure")
    p.add_argument("--model", required=True, help="base (non-fine-tuned) model file")
    p.add_argument("--out", required=True, help="re-annotated corpus output")
    p.add_argument("--model-out", dest="model_out", help="write the last fine-tuned model here")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="fine-tune epochs per iteration")
    p.add_argument("--report", help="write per-iteration JSON report here")
    p.set_defaults(func=_cmd_reannotate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.settings = _read_settings(args.config, _CONFIG_KEYS) if args.config else {}
        return args.func(args)
    except _OPERATIONAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
