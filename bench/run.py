"""Benchmark of the subseg CLI chain, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload align-talks --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from ``--seed``.  Then, for
``--seconds``, one caller runs timed passes over the same inputs, one at a
time, in this process and its single thread, checking every pass's outputs
and requiring them to be byte-identical from pass to pass.  Set-up is
repeated after every pass, and every repeat must give identical files.
``setup_s`` is the fastest set-up; a pass's time is the sum of each of its
steps' fastest time (see :func:`fastest`), and ``wall_ref`` is that time
divided by the fastest time of a fixed reference loop sampled before every
pass and set-up.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics: stage timings from the untraced passes, layer timings and
counts from the fastest traced pass, and the tracing overhead between the
two.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
seed, input and output digests, per-pass times, the number of set-up
repeats, Python version, usable CPUs and git SHA.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SAMPLES = 5  # reference-loop samples before every pass and set-up


def digest(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``directory``."""
    sha = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        sha.update(path.relative_to(directory).as_posix().encode() + b"\0")
        sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout: git would search its parents
        return "unknown"
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def fastest(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each step's least time over the passes, and ``wall_s``, their sum.

    The host switches between a fast state and one about 1.45x slower,
    for a second to minutes at a time (a fixed pure-Python loop took
    22-25 ms in one and 32-36 ms in the other).  A median follows the share
    of the run spent in the slow state, which left runs on identical inputs
    20-30% apart.  Taking each step's fastest run tracks the fast state, and
    short steps catch it more often than whole passes do.  Some runs spend
    all of their time in the slow state, so the end-to-end time is also
    given relative to the reference loop's fastest time in the same run.
    """
    steps = {key: min(p[key] for p in passes) for key in passes[0]}
    steps["wall_s"] = sum(steps.values())
    return steps


def reference_loop() -> float:
    """Time of a fixed pure-Python loop (about 5 ms on a fast 2-CPU VM)."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - start


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload, work: Path, seconds: float, trace: bool):
    from tracer import Tracer, layer_metrics
    from workloads import Outcome

    setups, digests, references = [], [], []

    def set_up(path: Path) -> Path:
        fresh(path)
        gc.collect()
        references.extend(reference_loop() for _ in range(REFERENCE_SAMPLES))
        start = time.perf_counter()
        workload.setup(path)
        setups.append(time.perf_counter() - start)
        digests.append(digest(path))
        return path

    inp = set_up(work / "in")
    total = Outcome()
    untraced, traced, layers = [], [], []
    output_digest = None
    last_tracer = None
    deadline = time.perf_counter() + seconds
    while len(untraced) + len(traced) < (2 if trace else 1) or time.perf_counter() < deadline:
        out = fresh(work / "out")
        tracer = Tracer() if trace and len(untraced) > len(traced) else None
        gc.collect()
        references.extend(reference_loop() for _ in range(REFERENCE_SAMPLES))
        if tracer:
            tracer.install()
        try:
            steps, outcome = workload.run(inp, out, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            last_tracer = tracer
            traced.append(steps)
            layers.append(layer_metrics(tracer, workload.short_talks, workload.long_talks))
        else:
            untraced.append(steps)
        quality = workload.check(inp, out, outcome)
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        this_digest = digest(out)
        output_digest = output_digest or this_digest
        total.expect(this_digest == output_digest, "a pass wrote different outputs from the first")
        # spread over the run like the passes, so that it samples the same host states
        set_up(work / "again")
    total.expect(len(set(digests)) == 1, "set-up gave different inputs for the same seed")

    if last_tracer is not None:
        last_tracer.write(work.parent / f"{workload.name}-seed{workload.seed}-spans.jsonl")

    fast = fastest(untraced)
    if trace:
        # the layer numbers of the fastest traced pass, so that they add up
        metrics = dict(min(zip(traced, layers), key=lambda pair: sum(pair[0].values()))[1])
        for key in ("train_s", "fine_tune_s", "reannotate_s"):
            metrics[key] = fast.get(key, 0.0)
        metrics.update({"build_corpus_sps": 0.0, "segment_sps": 0.0}, **workload.rates(fast))
        metrics["trace.untraced_wall_s"] = fast["wall_s"]
        metrics["trace.traced_wall_s"] = fastest(traced)["wall_s"]
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["exact_frac"] = quality.pop("exact_frac")
    else:
        metrics = dict(quality)
        del metrics["exact_frac"]
        metrics.update(
            setup_s=min(setups),
            wall_ref=fast["wall_s"] / min(references),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ok_frac=1 - total.failed / total.attempted,
        )
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "pass_wall_s": {
            "untraced": [sum(steps.values()) for steps in untraced],
            "traced": [sum(steps.values()) for steps in traced],
        },
        "fastest_steps_s": fast,
        "setup_repeats": len(setups),
        "reference_s": min(references),
        "input_digest": digests[0],
        "output_digest": output_digest,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    return metrics, total, info


def result_line(metrics: dict[str, float], spec: list[dict], total) -> dict:
    """The result object; ``spec`` is the BENCHMARK.json list it must match."""
    names = [m["name"] for m in spec]
    if set(names) != set(metrics):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(names) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(names))}"
        )
    return {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in spec},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import subseg  # noqa: F401
        import synth  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program or its test generator from {ROOT}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.seed)
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, total, info = measure(workload, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = result_line(metrics, spec["per_layer" if args.trace else "end_to_end"], total)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
