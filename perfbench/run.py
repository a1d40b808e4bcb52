#!/usr/bin/env python3
"""Benchmark of the performance model's planner: one workload per run.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload search-scalar --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``search-scalar``, ``search-batch``,
``pareto`` and ``api-mix``.  A run starts fresh single-threaded
interpreters (``worker.py``), all on one core: nine only to time set-up,
then one that runs the workload's seeded request list in passes for about
``--seconds`` and checks every answer.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: interpreter start until the first request can go out
  (imports, model/system builds, for api-mix the app and the server bind),
  median of nine interpreters;
* ``wall_s``: one pass over the whole request list, median over passes;
* ``peak_rss_mb``: peak resident memory of the workload process after its
  first pass.

Both times are in reference seconds (see ``calibration.py``): measured
seconds scaled by a machine-speed loop timed between requests, so that a
busy host does not read as a slower planner.  The measured seconds are
printed above the result.  With ``--trace 1`` the metrics are the
per-layer ones of ``layers.PER_LAYER``, from traced passes that alternate
with untraced ones; the spans of the last traced pass are written to
``.bench_out/``, and the run fails if a layer the workload must reach
recorded no call.  The lines before the result also give ``failed_share``
and, for api-mix, latency percentiles per request class with their sample
counts (a percentile only when at least 10 samples lie beyond it).

Self-checks: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import Stopwatch
from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search-scalar", "search-batch", "pareto", "api-mix")

#: Interpreters started per untraced run only to time set-up; the median
#: is reported.
SETUP_SAMPLES = 9
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Percentiles reported per api-mix request class.
PERCENTILES = {"cold": (50, 90), "warm": (50, 90), "hit": (50, 99)}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values, pct: int):
    """Nearest-rank percentile, or None unless 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def _environment() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One ``worker.py`` interpreter; constructing it waits until it is ready."""

    def __init__(self, args, deadline: float, setup_only: bool) -> None:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            argv.append("--setup-only")
        self.deadline = deadline
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
            line = self.proc.stdout.readline() if ready else ""
            if line.strip() != "READY":
                raise BenchError(f"worker did not get ready (got {line.strip()!r})")
        except BaseException:
            self.stop()
            raise

    def _remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker ran past the time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            clock = Stopwatch()
            clock.checkpoint()
            with clock.stretch():
                worker = Worker(args, deadline, setup_only=True)
            worker.finish()
            clock.checkpoint()
            setup.append(clock)
    worker = Worker(args, deadline, setup_only=False)
    lines = [line for line in worker.finish().splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    report = json.loads(lines[-1][len("RESULT "):])
    report["setup_measured"] = [clock.seconds for clock in setup]
    report["setup_reference"] = [clock.reference_seconds for clock in setup]
    report["setup_loop_means"] = [clock.loop_mean for clock in setup]
    return report


def summarize(args, report: dict) -> dict:
    """Print the readable report and return the final result object."""
    attempted, failed = report["attempted"], report["failed"]
    walls = ", ".join(f"{w:.3f}" for w in report["plain_walls"])
    print(f"workload {args.workload}, seed {args.seed}, untraced passes (s): {walls}")
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted} requests)")
    for problem in report["problems"]:
        print(f"  wrong: {problem}")
    for cls, pcts in PERCENTILES.items():
        samples = report["latencies_ms"].get(cls, [])
        for pct in pcts if samples else ():
            value = percentile(samples, pct)
            shown = f"{value:.3f} ms" if value is not None else "n/a (fewer than 10 samples beyond it)"
            print(f"{cls}_ms_p{pct} {shown} (n={len(samples)})")
    correct = failed == 0
    if args.trace:
        for line in report["predictions"]:
            print(line)
        if report["missing_layers"]:
            correct = False
            print("layers with zero calls (wrapper on the wrong lookup site?): "
                  + ", ".join(report["missing_layers"]))
        print(f"spans written to {report['spans_file']}")
        metrics = {name: {"value": report["per_layer"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        print(f"measured seconds: set-up {statistics.median(report['setup_measured']):.4f}, "
              f"pass {statistics.median(report['plain_walls']):.4f}; calibration loop "
              f"{statistics.mean(report['setup_loop_means']) * 1e3:.2f} ms at set-up, "
              f"{statistics.mean(report['loop_means']) * 1e3:.2f} ms in passes")
        metrics = {
            "setup_s": {"value": statistics.median(report["setup_reference"]), "unit": "s"},
            "wall_s": {"value": statistics.median(report["reference_walls"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no planner source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # One core for this process and every interpreter it starts: the
    # machine-speed loop and the work it calibrates then share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        report = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args, report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
