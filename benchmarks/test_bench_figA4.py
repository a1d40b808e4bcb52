"""Fig. A4: relative speedups of the 2D TP variants over 1D TP for GPT3-1T.

Paper observations reproduced here: both 2D variants yield modest speedups
(~5-10%, up to ~1.3x) over 1D TP, with SUMMA helping most in the
resource-constrained regime (A100-class capacity, small GPU counts, small
NVS domains) and the advantage shrinking on newer GPU generations.

Set ``REPRO_FULL_SWEEP=1`` for the full 3x3 system grid of the paper.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import GLOBAL_BATCH, full_sweep_enabled, gpu_grid, run_once
from repro.analysis.reporting import render_speedups
from repro.analysis.speedups import speedup_sweep, speedups_by_system
from repro.core.model import GPT3_1T

if full_sweep_enabled():
    GENERATIONS = ("A100", "H200", "B200")
    NVS_SIZES = (4, 8, 64)
    GRID = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
else:
    GENERATIONS = ("A100", "B200")
    NVS_SIZES = (4, 8)
    GRID = (512, 2048, 8192)


@pytest.mark.benchmark(group="figA4")
def test_figA4a_summa_speedup(benchmark, save_report):
    points = run_once(
        benchmark,
        speedup_sweep,
        GPT3_1T,
        variant_strategy="summa",
        gpu_generations=GENERATIONS,
        nvs_domain_sizes=NVS_SIZES,
        n_gpus_list=GRID,
        global_batch_size=GLOBAL_BATCH,
        eval_mode="batch",
    )
    save_report("figA4a_summa_vs_tp1d", render_speedups(points))

    by_system = speedups_by_system(points)
    # SUMMA helps in the resource-constrained regime (A100, small NVS).
    constrained = by_system.get("A100-NVS4", [])
    assert any(p.speedup > 1.0 for p in constrained if p.baseline_time != float("inf"))
    # Speedups stay within the paper's modest band (no order-of-magnitude wins).
    finite = [p.speedup for p in points if 0 < p.speedup != float("inf")]
    assert all(s < 1.6 for s in finite)

    # The advantage shrinks on the newest generation.
    def mean_speedup(prefix):
        vals = [
            p.speedup
            for name, series in by_system.items()
            if name.startswith(prefix)
            for p in series
            if 0 < p.speedup != float("inf")
        ]
        return sum(vals) / len(vals) if vals else 0.0

    assert mean_speedup("A100") >= mean_speedup("B200") * 0.95


@pytest.mark.benchmark(group="figA4")
def test_figA4b_tp2d_speedup(benchmark, save_report):
    points = run_once(
        benchmark,
        speedup_sweep,
        GPT3_1T,
        variant_strategy="tp2d",
        gpu_generations=GENERATIONS,
        nvs_domain_sizes=NVS_SIZES,
        n_gpus_list=GRID,
        global_batch_size=GLOBAL_BATCH,
    )
    save_report("figA4b_tp2d_vs_tp1d", render_speedups(points))

    finite = [p for p in points if 0 < p.speedup != float("inf")]
    assert finite
    # 2D TP is at least competitive with 1D TP at the largest scales swept.
    largest = [p for p in finite if p.n_gpus == max(GRID)]
    assert any(p.speedup > 0.98 for p in largest)
    assert all(p.speedup < 1.6 for p in finite)
