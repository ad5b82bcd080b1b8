"""Layer tracer for the traced benchmark run.

The tracer wraps public functions of ``subseg`` from the outside: it
replaces the function in every ``subseg.*`` namespace that binds it
(``pipeline`` and ``cli`` import names with ``from .x import f``, so
patching the defining module alone would miss their calls) and restores
the originals on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

Three kinds of instrumentation, chosen by how often a function runs:

* spans (name, start, end, parent span id, tag, ok) for layer entry
  points; self time is computed from them afterwards;
* timed counters for functions called once per corpus line or per model
  file: a call count and accumulated time, outside the span tree, so the
  time stays in the caller's self time;
* plain counters for the per-gap hot functions.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

# (module, attribute) pairs; names in metrics are "<module>.<attribute>".
SPANS = (
    ("srt_io", "parse_srt"),
    ("annotate", "build_index"),
    ("annotate", "align_sentence"),
    ("pipeline", "preprocess_document"),
    ("pipeline", "build_corpus"),
    ("pipeline", "stats"),
    ("pipeline", "reannotate"),
    ("segmenters", "train"),
    ("segmenters", "fine_tune"),
    ("segmenters", "segment_learned"),
    ("segmenters", "segment_count_char"),
    ("constraints", "conformity_stats"),
    ("evaluation", "evaluate"),
    ("evaluation", "corpus_bleu"),
    ("evaluation", "corpus_prf"),
)
TIMED_COUNTERS = (
    ("annotate", "from_text"),  # AnnotatedSentence.from_text, a classmethod
    ("segmenters", "dump_model"),
    ("segmenters", "parse_model"),
)
COUNTERS = (
    ("segmenters", "extract_features"),
    ("constraints", "check_cpl"),
)

CLI_COMMANDS = ("build-corpus", "stats", "train", "fine-tune", "segment", "evaluate", "reannotate")


def _tag_align(args, kwargs):
    return kwargs.get("talk_id", args[1] if len(args) > 1 else None)


def _count_cues(counts, doc):
    counts["srt_io.parse_srt.cues"] += len(doc.subtitles)


def _count_reports(counts, result):
    _, _, reports = result
    counts["pipeline.reannotate.iterations"] += len(reports)
    counts["pipeline.reannotate.selected"] += sum(r.selected for r in reports)
    counts["pipeline.reannotate.accepted"] += sum(r.accepted for r in reports)


def _count_weights(counts, model):
    counts["segmenters.model_weights"] = max(counts["segmenters.model_weights"], len(model.weights))


TAGS = {"annotate.align_sentence": _tag_align}
RESULT_HOOKS = {
    "srt_io.parse_srt": _count_cues,
    "pipeline.reannotate": _count_reports,
    "segmenters.train": _count_weights,
    "segmenters.fine_tune": _count_weights,
    "segmenters.parse_model": _count_weights,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, tag, ok]
        self.counts: Counter = Counter()
        self.flat_s: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name, tag=None):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, tag, True]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException:
            record[5] = False
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, func, name):
        tag_of = TAGS.get(name)
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            with self.span(name, tag_of(args, kwargs) if tag_of else None):
                result = func(*args, **kwargs)
            if hook:
                hook(self.counts, result)
            return result

        return traced

    def _timed_counter_wrapper(self, func, name):
        counts, flat_s, key = self.counts, self.flat_s, name + ".calls"
        hook = RESULT_HOOKS.get(name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                flat_s[name] += time.perf_counter() - start
                counts[key] += 1
            if hook:
                hook(counts, result)
            return result

        return timed

    def _counter_wrapper(self, func, name):
        counts, key = self.counts, name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every binding of the listed functions in loaded subseg modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "subseg" or n.startswith("subseg.")]
        plan = (
            [(spec, self._span_wrapper) for spec in SPANS]
            + [(spec, self._timed_counter_wrapper) for spec in TIMED_COUNTERS]
            + [(spec, self._counter_wrapper) for spec in COUNTERS]
        )
        try:
            for (module_name, attr), make in plan:
                name = f"{module_name}.{attr}"
                module = importlib.import_module(f"subseg.{module_name}")
                if attr == "from_text":
                    cls = module.AnnotatedSentence
                    original = cls.__dict__["from_text"]
                    self._patches.append((cls, "from_text", original))
                    setattr(cls, "from_text", classmethod(make(original.__func__, name)))
                    continue
                original = getattr(module, attr)
                wrapper = make(original, name)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, key, original))
                            setattr(owner, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line, ids by position."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, tag, ok) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "tag": tag, "ok": ok}
                    )
                    + "\n"
                )


def span(tracer, name):
    """A span on ``tracer``, or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for sid, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_metrics(tracer: Tracer, short_talks, long_talks) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    metrics: dict[str, float] = {}
    selfs = self_times(tracer.spans)
    busy: defaultdict = defaultdict(float)
    total: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    ok: Counter = Counter()
    align_ms: dict[str, list[float]] = {"short": [], "long": []}
    for (name, start, end, _, tag, passed), own in zip(tracer.spans, selfs):
        busy[name] += own
        total[name] += end - start
        calls[name] += 1
        ok[name] += passed
        if name == "annotate.align_sentence":
            half = "short" if tag in short_talks else "long" if tag in long_talks else None
            if half:
                align_ms[half].append(1000.0 * (end - start))

    for module_name, attr in SPANS:
        metrics[f"{module_name}.{attr}.s"] = busy[f"{module_name}.{attr}"]
    for module_name, attr in TIMED_COUNTERS:
        metrics[f"{module_name}.{attr}.s"] = tracer.flat_s[f"{module_name}.{attr}"]
        metrics[f"{module_name}.{attr}.calls"] = tracer.counts[f"{module_name}.{attr}.calls"]
    for module_name, attr in COUNTERS:
        metrics[f"{module_name}.{attr}.calls"] = tracer.counts[f"{module_name}.{attr}.calls"]
    for name in ("annotate.align_sentence", "segmenters.fine_tune", "segmenters.segment_learned"):
        metrics[f"{name}.calls"] = calls[name]

    align = "annotate.align_sentence"
    metrics[f"{align}.ok_ratio"] = ok[align] / calls[align] if calls[align] else 0.0
    for half, values in align_ms.items():
        metrics[f"{align}.{half}_talk_ms"] = sum(values) / len(values) if values else 0.0
    metrics["srt_io.parse_srt.cues"] = tracer.counts["srt_io.parse_srt.cues"]
    metrics["pipeline.reannotate.iterations"] = tracer.counts["pipeline.reannotate.iterations"]
    selected = tracer.counts["pipeline.reannotate.selected"]
    metrics["pipeline.reannotate.accepted_ratio"] = (
        tracer.counts["pipeline.reannotate.accepted"] / selected if selected else 0.0
    )
    metrics["segmenters.model_weights"] = tracer.counts["segmenters.model_weights"]
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.s"] = total[f"cli.{command}"]
        metrics[f"cli.{command}.self_s"] = busy[f"cli.{command}"]
    return metrics
