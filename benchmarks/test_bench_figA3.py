"""Fig. A3: GPT3-1T strong scaling on a 64-GPU NVS domain (1D TP and SUMMA).

Paper observations reproduced here: with the large fast domain the optimal
1D TP configurations use *less* pipeline parallelism at scale than on the
8-GPU domain (the domain is spent on data parallelism instead), and the
SUMMA search mostly degenerates to 1D TP except at the largest scales.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import GLOBAL_BATCH, gpu_grid, run_once
from repro.analysis.reporting import render_scaling_sweep
from repro.analysis.sweeps import GPT_SCALING_GPUS, scaling_sweep
from repro.core.model import GPT3_1T
from repro.core.system import make_system

GRID = gpu_grid(GPT_SCALING_GPUS, (2048, 8192, 16384))


@pytest.mark.benchmark(group="figA3")
def test_figA3a_gpt_1d_tp_nvs64(benchmark, save_report):
    sweep = run_once(
        benchmark,
        scaling_sweep,
        GPT3_1T,
        make_system("B200", 64),
        strategy="tp1d",
        n_gpus_list=GRID,
        global_batch_size=GLOBAL_BATCH,
    )
    save_report("figA3a_gpt3_1t_tp1d_nvs64", render_scaling_sweep(sweep))

    nvs8 = scaling_sweep(
        GPT3_1T, make_system("B200", 8), strategy="tp1d",
        n_gpus_list=(GRID[-1],), global_batch_size=GLOBAL_BATCH,
    )
    big_domain_best = sweep.points[-1].result.best
    small_domain_best = nvs8.points[-1].result.best

    # Less pipeline parallelism and at least as fast on the big domain.
    assert big_domain_best.config.pipeline_parallel <= small_domain_best.config.pipeline_parallel
    assert big_domain_best.total_time <= small_domain_best.total_time * 1.001


@pytest.mark.benchmark(group="figA3")
def test_figA3b_gpt_summa_nvs64(benchmark, save_report):
    sweep = run_once(
        benchmark,
        scaling_sweep,
        GPT3_1T,
        make_system("B200", 64),
        strategy="summa",
        n_gpus_list=GRID,
        global_batch_size=GLOBAL_BATCH,
        eval_mode="batch",
    )
    save_report("figA3b_gpt3_1t_summa_nvs64", render_scaling_sweep(sweep))

    assert all(p.found for p in sweep.points)
    # At small/moderate scale the SUMMA optimum degenerates to 1D (n2 = 1).
    assert sweep.points[0].result.best.config.tensor_parallel_2 == 1
    # Compute remains the dominant cost throughout.
    for point in sweep.points:
        assert point.result.best.breakdown.fractions()["compute"] > 0.4
