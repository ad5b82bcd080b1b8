"""Command-line interface.

Subcommands: build-corpus, train, fine-tune, segment, evaluate, stats,
reannotate.  All randomness flows from ``--seed``, so identical inputs and
seed produce byte-identical outputs.  Exit status is 0 on success, 1 on an
operational error, 2 on a usage error.
"""

from __future__ import annotations

import json
import sys
from argparse import ArgumentParser, Namespace
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .annotate import AnnotatedSentence, GrammarViolation
from .constraints import ConstraintProfile
from .evaluation import evaluate
from .pipeline import build_corpus, reannotate, stats
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
from .srt_io import MalformedMetadata, SubtitleDocument, load_segments_metadata, parse_srt

# a file that cannot be read raises OSError; every other error the commands
# raise on bad input (malformed files, grammar violations, failed alignments,
# bad settings, empty corpora) subclasses ValueError
_OPERATIONAL_ERRORS = (OSError, ValueError)


# each limit is read as the type of its default
_PROFILE_KEYS = {field.name: type(field.default) for field in fields(ConstraintProfile)}
_CONFIG_KEYS = {
    "epochs": int,
    "fine_tune_epochs": int,
    "learning_rate": float,
    "seed": int,
    "iterations": int,
}
# the --config values with the given flags written over them
_Settings = Mapping[str, object]


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is named."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_lines(path: str) -> list[str]:
    """The file's lines.  A line ends only at ``\\n``, which text mode makes
    of ``\\r\\n`` and ``\\r`` too; every other character ``str.splitlines``
    breaks at stays inside its line."""
    text = _read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def _read_settings(path: str | None, types: dict[str, type]) -> dict[str, object]:
    """Typed ``key = value`` lines, none without a path; a bad key or value names its line."""
    values: dict[str, object] = {}
    lines = _read_lines(path) if path else []
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
        if key in values:
            raise ValueError(f"{path}:{line_number}: repeated key {key!r}")
        try:
            values[key] = types[key](value)
        except ValueError:
            raise ValueError(f"{path}:{line_number}: bad value for {key}: {value!r}") from None
    return values


def _picked(values: Mapping[str, object], keys: Iterable[str]) -> dict[str, object]:
    """The ``keys`` that ``values`` sets; the others keep the callee's defaults."""
    return {key: values[key] for key in keys if values.get(key) is not None}


def _training_config(settings: _Settings, epochs_key: str, default_epochs: int) -> TrainingConfig:
    """The training settings, which give the epochs under ``epochs_key``."""
    return TrainingConfig(
        epochs=settings.get(epochs_key, default_epochs),
        **_picked(settings, ("learning_rate", "seed")),
    )


def _read_corpus(
    path: str, check: Callable[[AnnotatedSentence], object] | None = None
) -> list[AnnotatedSentence]:
    """The sentences of the non-blank lines; a grammar error, in the line or
    raised by ``check`` on its sentence, names the line."""
    sentences = []
    for line_number, raw in enumerate(_read_lines(path), start=1):
        if raw.strip():
            try:
                sentence = AnnotatedSentence.from_text(raw)
                if check is not None:
                    check(sentence)
            except GrammarViolation as exc:
                raise GrammarViolation(f"{path}:{line_number}: {exc}") from None
            sentences.append(sentence)
    return sentences


def _write_lines(path: str, lines: Iterable[str]) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _parsed_talks(
    srt_paths: Iterable[Path], broken_talks: dict[str, str]
) -> Iterator[SubtitleDocument]:
    """Parse one file per step, so only the talk being indexed is held; a
    file that cannot be read, decoded or parsed costs only its own talk."""
    for srt_path in srt_paths:
        try:
            yield parse_srt(srt_path.read_text(encoding="utf-8"), talk_id=srt_path.stem)
        except (OSError, ValueError) as exc:
            broken_talks[srt_path.stem] = f"{srt_path}: {exc}"
            print(f"warning: skipped {srt_path}: {exc}", file=sys.stderr)


def _cmd_build_corpus(args: Namespace, profile: ConstraintProfile, settings: _Settings) -> int:
    srt_dir = Path(args.srt_dir)
    if not srt_dir.is_dir():
        raise ValueError(f"--srt-dir {srt_dir} is not a directory")
    lines = _read_lines(args.sentences)
    broken_talks: dict[str, str] = {}  # filled as the files are parsed, before any alignment
    docs = _parsed_talks(sorted(srt_dir.glob("*.srt")), broken_talks)
    corpus, log = build_corpus(docs, lines, broken_talks)
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


def _cmd_train(args: Namespace, profile: ConstraintProfile, settings: _Settings) -> int:
    config = _training_config(settings, "epochs", DEFAULT_EPOCHS)
    corpus = _read_corpus(args.corpus, lambda s: s.validate_strict(profile.max_lines_per_block))
    model = train(corpus, config, profile)
    save_model(model, args.out)
    print(f"trained on {args.corpus}, wrote {args.out}")
    return 0


def _cmd_fine_tune(args: Namespace, profile: ConstraintProfile, settings: _Settings) -> int:
    config = _training_config(settings, "fine_tune_epochs", DEFAULT_FINE_TUNE_EPOCHS)
    # only the <eol> sentences are fine-tuned on, so only they must be strict
    max_lines = profile.max_lines_per_block
    corpus = _read_corpus(args.corpus, lambda s: s.has_eol and s.validate_strict(max_lines))
    subset = [sentence for sentence in corpus if sentence.has_eol]
    if len(subset) < len(corpus):
        print(f"using the {len(subset)}/{len(corpus)} sentences containing <eol>", file=sys.stderr)
    model = fine_tune(load_model(args.model), subset, config, profile)
    save_model(model, args.out)
    print(f"fine-tuned {args.model}, wrote {args.out}")
    return 0


def _cmd_segment(args: Namespace, profile: ConstraintProfile, settings: _Settings) -> int:
    seed = settings.get("seed", 0)
    lines = _read_lines(args.infile)
    model = None if args.count_char else load_model(args.model)
    # output line i holds input line i, blank or not; count-char seeds each
    # line with the base seed plus the line's index in the file
    out = []
    for i, line in enumerate(lines):
        try:
            if not line.strip():
                out.append("")
            elif model is None:
                out.append(segment_count_char(line, profile, seed + i, args.mode).to_text())
            else:
                out.append(segment_learned(model, line, profile, mode=args.mode).to_text())
        except ValueError as exc:
            raise type(exc)(f"{args.infile}:{i + 1}: {exc}") from None
    _write_lines(args.out, out)
    return 0


def _cmd_evaluate(args: Namespace, profile: ConstraintProfile, settings: _Settings) -> int:
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


def _cmd_stats(args: Namespace, profile: ConstraintProfile, settings: _Settings) -> int:
    metadata = None
    if args.metadata:
        try:
            metadata = load_segments_metadata(_read_text(args.metadata))
        except MalformedMetadata as exc:
            raise ValueError(f"{args.metadata}: {exc}") from None
    corpus = _read_corpus(args.corpus)
    try:
        report = stats(corpus, metadata, profile)
    except ValueError as exc:  # the sidecar's entry count, the one input stats() checks
        raise ValueError(f"{args.metadata}: {exc}") from None
    print(report.to_json() if args.json else report.to_text())
    return 0


def _cmd_reannotate(args: Namespace, profile: ConstraintProfile, settings: _Settings) -> int:
    config = _training_config(settings, "fine_tune_epochs", DEFAULT_FINE_TUNE_EPOCHS)
    corpus, model, reports = reannotate(
        _read_corpus(args.corpus, lambda s: s.validate_strict(profile.max_lines_per_block)),
        load_model(args.model),
        profile,
        config,
        **_picked(settings, ("iterations",)),
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


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="subseg",
        description="Subtitle segmentation toolkit: corpus construction, "
        "training, segmentation, evaluation and re-annotation.",
    )
    common = ArgumentParser(add_help=False)
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
    p.add_argument("--epochs", dest="fine_tune_epochs", metavar="EPOCHS", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.set_defaults(func=_cmd_fine_tune)

    p = commands.add_parser("segment", parents=[common], help="insert break symbols")
    p.add_argument("--in", dest="infile", required=True, help="input sentences, one per line")
    p.add_argument("--out", required=True, help="annotated output file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="trained model file")
    group.add_argument("--count-char", action="store_true", help="use the character-count baseline")
    p.add_argument(
        "--mode", choices=("full", "eol_only"), default="full",
        help="full: place every break; eol_only: keep the input's <eob>s and add only <eol>s",
    )
    p.set_defaults(func=_cmd_segment)

    p = commands.add_parser("evaluate", parents=[common], help="score hypotheses against references")
    p.add_argument("--hyp", required=True, help="hypothesis corpus")
    p.add_argument("--ref", required=True, help="reference corpus")
    p.add_argument("--json", help="also write the JSON report to this path")
    p.add_argument("--table", action="store_true", help="print a table instead of JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = commands.add_parser("stats", parents=[common], help="corpus statistics")
    p.add_argument("--corpus", required=True, help="annotated corpus")
    p.add_argument("--metadata", help="duration sidecar, one entry per corpus sentence")
    p.add_argument("--json", action="store_true", help="print JSON instead of key/value lines")
    p.set_defaults(func=_cmd_stats)

    p = commands.add_parser("reannotate", parents=[common], help="iterative line-break restoration")
    p.add_argument("--corpus", required=True, help="annotated corpus with <eob> structure")
    p.add_argument("--model", required=True, help="base (non-fine-tuned) model file")
    p.add_argument("--out", required=True, help="re-annotated corpus output")
    p.add_argument("--model-out", dest="model_out", help="write the last fine-tuned model here")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument(
        "--epochs", dest="fine_tune_epochs", metavar="EPOCHS", type=int,
        help="fine-tune epochs per iteration",
    )
    p.add_argument("--report", help="write per-iteration JSON report here")
    p.set_defaults(func=_cmd_reannotate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _read_settings(args.config, _CONFIG_KEYS)
        # a flag that mirrors a --config key is stored under that key and overrides it
        settings.update(_picked(vars(args), _CONFIG_KEYS))
        profile = ConstraintProfile(**_read_settings(args.profile, _PROFILE_KEYS))
        return args.func(args, profile, settings)
    except _OPERATIONAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
