#!/usr/bin/env python3
"""Benchmark entry point: one workload, one process, one result line.

    python3 perfbench/run.py --workload suite-cold --seed 7 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the program from its
``src/`` directory.  With ``--trace 0`` it times repetitions of the
workload's task for ``--seconds`` (at least two), timing a fixed
reference kernel (``reference.py``) between repetitions, and prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced repetitions and prints every per-layer metric.  The
last line of standard output is the JSON result; a record with the
machine fingerprint is appended to ``perfbench/out/results.jsonl`` and a
traced run also writes its spans as Chrome/Perfetto JSON next to it.

The process is single-threaded: BLAS/OpenMP pools are pinned to one thread
before NumPy loads, and no workload uses the program's ``jobs`` fan-out.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 7
#: seed kept out of tuning; a later speed claim must also hold on it.
HELD_OUT_SEED = 1009
MIN_REPS = 2
MAX_REFERENCE_PASSES = 6
#: set-up is sampled this many times per run (this process + fresh probes).
SETUP_SAMPLES = 3
#: stop starting repetitions after this long, whatever --seconds says.
HARD_STOP_S = 120.0
PROBE_TIMEOUT_S = 60.0

clock = time.perf_counter


def _parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {source / 'repro'}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {source}")


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _quartiles(values: list[float]) -> tuple[float, float] | None:
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _fingerprint() -> dict[str, Any]:
    import numpy

    digest = hashlib.sha256()
    source = ROOT / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class Session:
    """Repetitions of one workload and everything measured about them."""

    def __init__(self, workload: Any, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.expected: Any = None
        self.attempted = 0
        self.failed = 0
        self.mismatched_traced = 0
        self.times: dict[bool, list[float]] = {False: [], True: []}
        self.phases: dict[str, list[float]] = {}
        self.counters: list[dict[str, float]] = []
        self.traced_runs: list[str] = []
        self.references: list[float] = []
        self.ratios: list[float] = []

    def repeat(self, tracer: Any = None) -> None:
        """Repeat the task until the time budget is spent and each kind of
        repetition ran often enough; with a tracer, alternate untraced and
        traced repetitions, starting untraced.

        The reference kernel runs before the first repetition and after
        each one; an untraced repetition's time divided by the mean of the
        two reference times around it is its ``task_ref`` sample.  One
        kernel pass is noisy next to a long repetition, so each reference
        time is the median of about one pass per 1.5 s of the last
        repetition (1 to 6 passes).  Another repetition starts only while
        it would end nearer the budget than stopping now does, so runs end
        close to ``seconds``.
        """
        from reference import reference_s

        kinds = (False, True) if tracer is not None else (False,)
        minimum = 1 if tracer is not None else MIN_REPS
        reps = dict.fromkeys(kinds, 0)
        started = clock()
        last_s = 0.0
        index = 0
        before = statistics.median(reference_s()
                                   for _ in range(MAX_REFERENCE_PASSES))
        self.references.append(before)
        while (min(reps.values()) < minimum
               or (clock() - started + last_s / 2 < self.seconds
                   and clock() - START < HARD_STOP_S)):
            traced = kinds[index % len(kinds)]
            began = clock()
            elapsed = self.one(tracer if traced else None, f"task-{index}")
            last_s = clock() - began
            passes = max(1, min(MAX_REFERENCE_PASSES, round(last_s / 1.5)))
            after = statistics.median(reference_s() for _ in range(passes))
            self.references.append(after)
            if elapsed is not None and not traced:
                self.ratios.append(elapsed / ((before + after) / 2))
            before = after
            reps[traced] += 1
            index += 1

    def one(self, tracer: Any, run_id: str) -> float | None:
        """One repetition; its host seconds, or None when it raised."""
        from repro.engine import cache_stats, compile_stats, reset_compile_stats
        from layers import cache_counts

        workload = self.workload
        traced = tracer is not None
        self.attempted += workload.ops
        try:
            workload.prepare()
            reset_compile_stats()
            caches_before = cache_stats()
            gc.collect()
            if traced:
                tracer.install()
                try:
                    with tracer.root("bench.task", run_id) as root:
                        output, phases = workload.task()
                finally:
                    tracer.uninstall()
                elapsed = tracer.duration(root.index)
            else:
                start = clock()
                output, phases = workload.task()
                elapsed = clock() - start
            canonical = workload.canonical(output)
            failed = workload.check(output, self.expected)
        except Exception:  # one failed repetition must not end the run
            traceback.print_exc()
            self.failed += workload.ops
            return None
        if self.expected is None:
            self.expected = canonical
        elif traced and canonical != self.expected:
            self.mismatched_traced += 1
        self.failed += failed
        self.times[traced].append(elapsed)
        if traced:
            self.traced_runs.append(run_id)
        else:
            for name, value in phases.items():
                self.phases.setdefault(name, []).append(value)
        compiled = compile_stats()
        counters = {
            "engine.cells": compiled["cells"],
            "engine.unique_plans": compiled["unique_plans"],
            "engine.dedup_ratio": (compiled["cells"] / compiled["unique_plans"]
                                   if compiled["unique_plans"] else 0.0),
            **cache_counts(caches_before, cache_stats()),
            **workload.counts(output),
        }
        self.counters.append(counters)
        return elapsed


def _setup_probe(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter (imports included)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(result.stdout.strip().splitlines()[-1])["setup_s"])


def _print_line(name: str, value: float | None, unit: str,
                samples: list[float] | None = None) -> None:
    text = "n/a" if value is None else f"{value:.6g}"
    line = f"  {name:<34} {text:>14} {unit}"
    if samples:
        spread = _quartiles(samples)
        line += f"   (median of {len(samples)}"
        if spread:
            line += f", q1 {spread[0]:.6g}, q3 {spread[1]:.6g}"
        line += ")"
    print(line)


def _end_to_end(args: argparse.Namespace, session: Session,
                setup_samples: list[float]) -> dict[str, float | None]:
    from workloads import REQUESTS

    untraced = session.times[False]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    error_rate = session.failed / session.attempted if session.attempted else 1.0
    print(f"end-to-end ({args.workload}, seed {args.seed}):")
    _print_line("task_ref", _median(session.ratios), "ref", session.ratios)
    _print_line("task_s", _median(untraced), "s", untraced)
    _print_line("reference_s", _median(session.references), "s",
                session.references)
    _print_line("setup_s", _median(setup_samples), "s", setup_samples)
    _print_line("peak_rss_mb", rss_mb, "MB")
    _print_line("error_rate", error_rate, "ratio")
    print(f"    = {session.failed} failed / {session.attempted} attempted")
    for phase, samples in sorted(session.phases.items()):
        if phase == "fleet_run_s":
            rates = [REQUESTS / seconds for seconds in samples]
            _print_line("fleet_requests_per_s", _median(rates),
                        "simulated req/host s", rates)
        else:
            _print_line(phase, _median(samples), "s", samples)
    return {"task_ref": _median(session.ratios),
            "setup_s": _median(setup_samples), "peak_rss_mb": rss_mb}


def _per_layer(args: argparse.Namespace, session: Session, tracer: Any,
               units: dict[str, str]) -> dict[str, float | None]:
    from layers import OUTPUT_COUNTS, span_metrics

    metrics: dict[str, float | None] = dict(
        span_metrics(tracer, session.traced_runs, "setup"))
    for name in OUTPUT_COUNTS:
        metrics[name] = statistics.median(
            [counters.get(name, 0) for counters in session.counters] or [0])
    batches = metrics.get("fleet.sim.batches") or 0
    run_s = _median(session.phases.get("fleet_run_s", []))
    metrics["fleet.host_us_per_batch"] = (
        run_s * 1e6 / batches if run_s is not None and batches else 0.0)
    traced = _median(session.times[True])
    untraced = _median(session.times[False])
    metrics["trace.overhead_s"] = (traced - untraced
                                   if traced is not None and untraced is not None
                                   else None)
    print(f"per-layer ({args.workload}, seed {args.seed}, traced):")
    for name, value in metrics.items():
        _print_line(name, value, units.get(name, ""))
    # Accounting: within each traced task the layer spans' self times plus
    # the root span's own (unattributed) time make up the timed region.
    layered, rooted = tracer.coverage(session.traced_runs, "bench.task")
    print(f"  layer self times cover {layered:.6g} s of {rooted:.6g} s traced "
          f"task time ({len(session.traced_runs)} traced, "
          f"{len(session.times[False])} untraced "
          "repetitions); traced outputs "
          + ("identical to untraced" if not session.mismatched_traced
             else "DIFFER from untraced"))
    return metrics


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from layers import register_targets
        from tracer import Tracer

        tracer = Tracer()
        register_targets(tracer)
        tracer.install()
        try:
            with tracer.root("bench.setup", "setup"):
                workload.setup(args.seed)
        finally:
            tracer.uninstall()
    else:
        workload.setup(args.seed)
    setup_s = clock() - START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    session = Session(workload, args.seconds)
    session.repeat(tracer)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        wanted = spec["per_layer"]
        metrics = _per_layer(args, session, tracer,
                             {entry["name"]: entry["unit"] for entry in wanted})
    else:
        setup_samples = [setup_s] + [_setup_probe(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
        metrics = _end_to_end(args, session, setup_samples)
        wanted = spec["end_to_end"]
    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")
    result_metrics = {entry["name"]: {"value": metrics[entry["name"]],
                                      "unit": entry["unit"]}
                      for entry in wanted}
    correct = (session.failed == 0 and session.mismatched_traced == 0
               and all(entry["value"] is not None
                       for entry in result_metrics.values()))

    fingerprint = _fingerprint()
    print("machine: " + ", ".join(f"{key}={value}"
                                  for key, value in fingerprint.items()))
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        # The file keeps set-up and the first traced repetition; the
        # metrics above use every repetition.
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path, ["setup", *session.traced_runs[:1]],
                                  {"workload": args.workload, "seed": args.seed,
                                   **fingerprint})
        print(f"trace: {trace_path.relative_to(ROOT)}")
    record = {"workload": args.workload, "seed": args.seed,
              "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fingerprint,
              "correct": correct, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics,
              "task_samples_s": session.times[False],
              "task_ref_samples": session.ratios,
              "reference_samples_s": session.references,
              "traced_task_samples_s": session.times[True],
              "phase_samples_s": session.phases}
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
