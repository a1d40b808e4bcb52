"""Whole-enumeration helpers for the batch-vs-scalar equivalence suites.

The search prices memory-filtered chunks through
:func:`repro.core.batch_eval.batch_candidate_breakdowns`; these helpers
materialize and price a strategy's *full* enumeration instead, which is
the form the equivalence suites pin against the scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.batch_eval import BatchBreakdown, batch_candidate_breakdowns
from repro.core.config_space import (
    SearchSpace,
    count_configurations,
    gpu_assignments,
    parallel_configs,
)
from repro.core.execution import DEFAULT_OPTIONS, ModelingOptions
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.system import SystemSpec


#: One fully-specified search candidate, with its bookkeeping indices:
#: ``rank`` is the parallelization's enumeration rank and ``assign_idx`` the
#: index of the assignment within ``gpu_assignments`` — the same tie-break
#: key order the scalar search uses.
@dataclass(frozen=True)
class CandidateRow:
    rank: int
    config: ParallelConfig
    assign_idx: int
    assignment: GpuAssignment


def materialize_enumeration(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    *,
    check_counts: bool = True,
) -> List[CandidateRow]:
    """Materialize every (parallelization, assignment) candidate as rows.

    With ``check_counts`` (the default, active under ``__debug__``), the
    materialized row count is asserted equal to
    :func:`~repro.core.config_space.count_configurations`, so the
    enumeration and the batch pricer can never silently diverge.
    """
    rows: List[CandidateRow] = []
    n_configs = 0
    for rank, config in enumerate(
        parallel_configs(model, n_gpus, global_batch_size, strategy, space)
    ):
        n_configs += 1
        for assign_idx, assignment in enumerate(
            gpu_assignments(config, system.nvs_domain_size, space)
        ):
            rows.append(CandidateRow(rank, config, assign_idx, assignment))
    if check_counts and __debug__:
        counted_configs, counted_rows = count_configurations(
            model, n_gpus, global_batch_size, strategy, system.nvs_domain_size, space
        )
        assert (n_configs, len(rows)) == (counted_configs, counted_rows), (
            f"enumeration drifted from count_configurations: materialized "
            f"({n_configs}, {len(rows)}) != counted ({counted_configs}, {counted_rows})"
        )
    return rows


def batch_evaluate_enumeration(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    *,
    space: SearchSpace,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> Tuple[List[CandidateRow], BatchBreakdown]:
    """Price one strategy's full enumeration; returns (rows, breakdowns).

    The search itself prices memory-filtered chunks (see
    :func:`repro.core.search.find_optimal_config`).
    """
    rows = materialize_enumeration(
        model, system, n_gpus, global_batch_size, strategy, space
    )
    priced = batch_candidate_breakdowns(
        model,
        system,
        [(row.config, row.assignment) for row in rows],
        global_batch_size=global_batch_size,
        options=options,
    )
    return rows, priced
