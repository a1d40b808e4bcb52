"""One benchmark process: set a workload up, run timed passes, report.

``run.py`` starts this file in a fresh interpreter.  It prints ``READY``
on standard output as soon as the first request could go out, then (unless
``--setup-only``) runs passes over the workload's request list for about
``--seconds`` and prints ``RESULT <json>``.  With ``--trace 1`` untraced
and traced passes alternate: the untraced ones give the tracing overhead,
the traced ones the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(workload, seconds: float, trace: bool):
    """Run passes until ``seconds`` is used up (at least one of each kind).

    Returns the passes and the process's peak memory after the first one.
    """
    kinds = ("plain", "traced") if trace else ("plain",)
    done = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while len(done) < len(kinds) or time.perf_counter() - start + done[-1][1].wall_s <= seconds:
        kind = kinds[len(done) % len(kinds)]
        if done:
            workload.close()
            workload.open()
        tracer = installer = None
        if kind == "traced":
            tracer = Tracer()
            installer = layers.install(tracer)
        try:
            result = workload.run_pass(tracer)
        finally:
            if installer is not None:
                installer.uninstall()
        done.append((kind, result, tracer))
        if len(done) == 1:
            peak_rss_mb = _peak_rss_mb()
    return done, peak_rss_mb


def _latencies_ms(passes) -> dict:
    """api-mix request latencies in ms, by class, over the untraced passes."""
    out: dict = {}
    for kind, result, _ in passes:
        if kind == "plain":
            for cls, seconds in result.latencies:
                out.setdefault(cls, []).append(seconds * 1e3)
    return out


def _write_spans(name: str, seed: int, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}.spans.json"
    path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "request", "continued"],
                                "spans": spans}))
    return path


def measure(workload, name: str, seed: int, seconds: float, trace: bool) -> dict:
    passes, peak_rss_mb = _passes(workload, seconds, trace)
    workload.close()
    attempted = failed = 0
    problems = []
    for index, (_, result, _) in enumerate(passes):
        workload.check(result, first=index == 0)
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
    plain = [r for kind, r, _ in passes if kind == "plain"]
    report = {
        "plain_walls": [r.wall_s for r in plain],
        "reference_walls": [r.clock.reference_seconds for r in plain],
        "loop_means": [r.clock.loop_mean for r in plain],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "latencies_ms": _latencies_ms(passes),
    }
    if trace:
        traced = [(r, t) for kind, r, t in passes if kind == "traced"]
        walls = [r.clock.reference_seconds for r, _ in traced]
        untraced = statistics.median(report["reference_walls"])
        overhead = (statistics.median(walls) - untraced) / untraced
        per_pass = [
            layers.per_layer_metrics(
                t.spans, t.counts, stats=r.stats, cache_hits=r.cache_hits,
                cache_lookups=r.cache_lookups, engine_solves=r.engine_solves,
                overhead_share=overhead,
            )
            for r, t in traced
        ]
        spans = traced[-1][1].spans
        report["per_layer"] = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        report["missing_layers"] = layers.missing_layers(name, spans)
        report["predictions"] = layers.predictions(name, spans, getattr(workload, "hit_requests", None))
        report["spans_file"] = str(_write_spans(name, seed, spans).relative_to(ROOT))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make_workload(args.workload, args.seed)
    workload.open()
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0
    report = measure(workload, args.workload, args.seed, args.seconds, bool(args.trace))
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
