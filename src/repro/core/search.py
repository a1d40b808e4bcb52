"""Optimal-configuration search (stage S3 of the performance model).

Given ``n`` GPUs, a global batch size and a system description, the solver
enumerates every admissible configuration — the parallelization tuple
``(b_m, n1, n2, np, nd)``, the NVSwitch-domain assignment
``(nNVS1, nNVS2, nNVSp, nNVSd)`` and, for SUMMA, the panel count ``nb`` —
evaluates the analytical iteration time of each, discards configurations
that do not fit in HBM and returns the fastest feasible one (plus search
diagnostics and, optionally, the top-k runners-up).

A cheap memory pre-filter runs before the full time evaluation: the memory
footprint does not depend on the NVS assignment, so infeasible
parallelizations are rejected before the assignment loop.

On top of the pre-filter, the search runs branch-and-bound pruning (see
:class:`repro.core.config_space.SearchSpace.prune_with_lower_bound`):
parallelizations are ordered by an assignment-independent compute-only
lower bound and, once the incumbent optimum beats a parallelization's
bound, its entire NVS-assignment loop — and that of every later, worse
bound — is skipped.  The selected optimum (and top-k set) is provably
unchanged; :class:`SearchStatistics` records how much work was avoided.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config_space import (
    DEFAULT_SEARCH_SPACE,
    SearchSpace,
    config_in_space,
    gpu_assignments,
    microbatch_candidates,
    parallel_configs,
)
from repro.core.execution import (
    DEFAULT_BACKEND,
    DEFAULT_OPTIONS,
    IterationEstimate,
    ModelingOptions,
    cache_stats,
    config_time_lower_bound,
    estimate_config_memory,
    evaluate_config,
)
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.system import SystemSpec

#: Strategies searched when the caller asks for "all".
ALL_STRATEGIES = ("tp1d", "tp2d", "summa")

#: Re-exported evaluation modes (see :mod:`repro.core.batch_eval`): the
#: per-candidate scalar oracle (default) and the vectorized batch pricer.
DEFAULT_EVAL_MODE = "scalar"
EVAL_MODES = ("scalar", "batch")

#: Parallelizations priced per vectorized block in batch mode.  Large enough
#: to amortize the NumPy dispatch, small enough that the incumbent (and the
#: branch-and-bound threshold derived from it) refreshes frequently.
_BATCH_CHUNK_CONFIGS = 256

#: Objective name of the classic training search (minimise iteration time).
#: The serving objectives live in :data:`repro.core.inference.SERVING_OBJECTIVES`.
TRAINING_OBJECTIVE = "iteration"


@dataclass(frozen=True)
class SearchStatistics:
    """Diagnostics of one search run."""

    #: Parallelizations ``(b_m, n1, n2, np, nd[, nb])`` enumerated, including
    #: those later rejected by the memory pre-filter or pruned by the bound.
    parallel_configs: int = 0
    #: Full (parallelization, NVS-assignment) candidates whose iteration time
    #: was evaluated (including warm-start seed evaluations).  How many
    #: candidates the branch-and-bound actually prices depends on how tight
    #: the initial threshold is — warm hints, shared incumbents and batch
    #: chunking all shift it without changing the selected optimum — so the
    #: counter is diagnostics-only and excluded from equality.
    candidates_evaluated: int = field(default=0, compare=False)
    #: Candidates rejected because they do not fit in HBM — either by the
    #: assignment-independent memory pre-filter (counted once per
    #: parallelization) or by the per-candidate feasibility check.
    infeasible_memory: int = 0
    #: Parallelizations rejected for structural reasons (bad divisibility
    #: surfacing as ``ValueError`` during the memory estimate).
    infeasible_other: int = 0
    #: Parallelizations whose compute-only lower bound was computed for
    #: branch-and-bound ordering (0 when pruning is disabled).
    bounds_computed: int = 0
    #: Parallelizations skipped outright because their lower bound met or
    #: exceeded the incumbent optimum; their NVS-assignment loops never ran.
    #: Like :attr:`candidates_evaluated`, the count depends on the initial
    #: threshold (warm hints / shared incumbents), so it is excluded from
    #: equality.
    pruned_configs: int = field(default=0, compare=False)
    #: Of :attr:`pruned_configs`, how many were pruned only thanks to an
    #: incumbent *shared from outside this strategy's own search* — a
    #: previously-searched strategy of the same call, or another
    #: :class:`~repro.runtime.executor.SweepExecutor` worker's published
    #: bound (batch eval mode only).  Cross-worker sharing depends on worker
    #: timing, so the counter is diagnostics-only and excluded from equality.
    shared_incumbent_prunes: int = field(default=0, compare=False)
    #: Hits/misses of the memoized per-layer workload cache during this
    #: search (``execution._cached_workload``) — hits mean microbatch,
    #: schedule and assignment candidates re-used an already-built workload.
    #: The counters depend on how warm the process-local caches already are,
    #: so they are diagnostics only and excluded from equality: a parallel
    #: sweep (cold workers) still compares equal to a serial one.
    workload_cache_hits: int = field(default=0, compare=False)
    workload_cache_misses: int = field(default=0, compare=False)
    #: Hits/misses of the memoized roofline stage-time cache
    #: (``execution._cached_stage_times``); stage times are shared across
    #: every schedule/assignment candidate of one TP parallelization.
    stage_cache_hits: int = field(default=0, compare=False)
    stage_cache_misses: int = field(default=0, compare=False)
    #: Warm-start hints (winners carried over from a neighboring search
    #: point) that adapted into the current point's space and evaluated
    #: feasible, i.e. actually seeded the branch-and-bound threshold.
    warm_start_hits: int = field(default=0, compare=False)
    #: Wall-clock seconds spent adapting and evaluating warm hints before
    #: the enumeration started (0.0 for cold searches).
    warm_seed_time: float = field(default=0.0, compare=False)

    def merged(self, other: "SearchStatistics") -> "SearchStatistics":
        """Combine statistics of two (sub-)searches."""
        return SearchStatistics(
            parallel_configs=self.parallel_configs + other.parallel_configs,
            candidates_evaluated=self.candidates_evaluated + other.candidates_evaluated,
            infeasible_memory=self.infeasible_memory + other.infeasible_memory,
            infeasible_other=self.infeasible_other + other.infeasible_other,
            bounds_computed=self.bounds_computed + other.bounds_computed,
            pruned_configs=self.pruned_configs + other.pruned_configs,
            shared_incumbent_prunes=(
                self.shared_incumbent_prunes + other.shared_incumbent_prunes
            ),
            warm_start_hits=self.warm_start_hits + other.warm_start_hits,
            warm_seed_time=self.warm_seed_time + other.warm_seed_time,
            workload_cache_hits=self.workload_cache_hits + other.workload_cache_hits,
            workload_cache_misses=self.workload_cache_misses + other.workload_cache_misses,
            stage_cache_hits=self.stage_cache_hits + other.stage_cache_hits,
            stage_cache_misses=self.stage_cache_misses + other.stage_cache_misses,
        )


@dataclass
class SearchResult:
    """Outcome of :func:`find_optimal_config`."""

    model_name: str
    system_name: str
    n_gpus: int
    global_batch_size: int
    strategy: str
    best: Optional[IterationEstimate]
    top_k: List[IterationEstimate] = field(default_factory=list)
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    @property
    def found(self) -> bool:
        """True when at least one feasible configuration exists."""
        return self.best is not None

    @property
    def best_time(self) -> float:
        """Iteration time of the best configuration (``inf`` if none found)."""
        return self.best.total_time if self.best is not None else math.inf

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports and JSON archives."""
        out: Dict[str, object] = {
            "model": self.model_name,
            "system": self.system_name,
            "n_gpus": self.n_gpus,
            "global_batch": self.global_batch_size,
            "strategy": self.strategy,
            "found": self.found,
            "configs_searched": self.statistics.parallel_configs,
            "candidates_evaluated": self.statistics.candidates_evaluated,
            "pruned_configs": self.statistics.pruned_configs,
        }
        if self.best is not None:
            out.update(self.best.summary())
        return out


def evaluate_candidates(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignments: Sequence[GpuAssignment],
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> List[IterationEstimate]:
    """Evaluate one parallelization under every NVS assignment."""
    estimates = []
    for assignment in assignments:
        estimates.append(
            evaluate_config(
                model,
                system,
                config,
                assignment,
                global_batch_size=global_batch_size,
                options=options,
                backend=backend,
            )
        )
    return estimates


#: Adapted hint parallelizations evaluated per strategy when seeding.  Hints
#: beyond this many are ignored: each seed evaluation costs a full
#: ``evaluate_config`` sweep over the config's NVS assignments, and the first
#: (nearest) hint almost always provides the tight threshold.
MAX_WARM_HINTS = 4


def adapt_warm_hints(
    model: TransformerConfig,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    warm_hints: Sequence,
    limit: int = MAX_WARM_HINTS,
) -> List[ParallelConfig]:
    """Translate warm hints into members of the *current* point's space.

    Each hint is a :class:`ParallelConfig` (or ``(config, assignment)``
    tuple; the assignment half is ignored — assignments are re-searched at
    the current point) typically taken from a neighboring search point's
    winner.  A hint whose GPU count differs from ``n_gpus`` is rescaled by
    the integer ratio along the data-parallel axis (growing) or greedily
    across the DP, PP, TP1 and TP2 axes (shrinking); a microbatch that no longer
    divides the new per-replica batch snaps to the nearest admissible
    candidate.  Only configs that pass :func:`config_in_space` — i.e. that
    the current enumeration itself would yield — are returned, which is what
    makes their evaluated times sound branch-and-bound seeds.
    """
    adapted: List[ParallelConfig] = []
    seen = set()
    for hint in warm_hints:
        config = hint[0] if isinstance(hint, tuple) else hint
        if not isinstance(config, ParallelConfig) or config.strategy != strategy:
            continue
        total = config.total_gpus
        if total != n_gpus:
            if n_gpus % total == 0:
                config = replace(
                    config, data_parallel=config.data_parallel * (n_gpus // total)
                )
            elif total % n_gpus == 0:
                ratio = total // n_gpus
                # Greedy gcd absorption across every parallel axis the
                # strategy populates — including the second tensor axis, so
                # tp2d/summa hints shrink instead of being dropped when only
                # ``tensor_parallel_2`` can absorb the surplus ratio.
                axes = {
                    "data_parallel": config.data_parallel,
                    "pipeline_parallel": config.pipeline_parallel,
                    "tensor_parallel_1": config.tensor_parallel_1,
                    "tensor_parallel_2": config.tensor_parallel_2,
                }
                for name in axes:
                    g = math.gcd(axes[name], ratio)
                    axes[name] //= g
                    ratio //= g
                if ratio != 1:
                    continue
                config = replace(config, **axes)
            else:
                continue
        if global_batch_size % config.data_parallel != 0:
            continue
        ep = math.gcd(config.expert_parallel, config.data_parallel)
        if ep != config.expert_parallel:
            config = replace(config, expert_parallel=ep)
        bms = microbatch_candidates(global_batch_size // config.data_parallel, space)
        if config.microbatch_size not in bms:
            if not bms:
                continue
            bm = min(bms, key=lambda c: (abs(c - config.microbatch_size), c))
            config = replace(config, microbatch_size=bm)
        if config in seen:
            continue
        if config_in_space(model, n_gpus, global_batch_size, strategy, space, config):
            seen.add(config)
            adapted.append(config)
            if len(adapted) >= limit:
                break
    return adapted


def _seed_from_hints(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    options: ModelingOptions,
    backend: str,
    warm_hints: Sequence,
) -> Tuple[float, int, int]:
    """Evaluate warm hints at the current point before enumeration.

    Returns ``(seed_threshold, hits, evaluations)``.  The threshold is the
    best feasible time among the adapted hints (``inf`` when none is
    feasible); since every adapted hint is a member of the current space,
    the threshold is a true upper bound on this strategy's optimum, and
    strict-``>`` pruning against it can never discard the optimum or an
    exact tie — the search result is bit-identical to a cold run.
    """
    threshold = math.inf
    hits = 0
    n_eval = 0
    for config in adapt_warm_hints(
        model, n_gpus, global_batch_size, strategy, space, warm_hints
    ):
        best_time = math.inf
        for assignment in gpu_assignments(config, system.nvs_domain_size, space):
            n_eval += 1
            estimate = evaluate_config(
                model,
                system,
                config,
                assignment,
                global_batch_size=global_batch_size,
                options=options,
                backend=backend,
            )
            if estimate.feasible and estimate.total_time < best_time:
                best_time = estimate.total_time
        if best_time < math.inf:
            hits += 1
            if best_time < threshold:
                threshold = best_time
    return threshold, hits, n_eval


def _batch_pass_two(
    model: TransformerConfig,
    system: SystemSpec,
    global_batch_size: int,
    space: SearchSpace,
    options: ModelingOptions,
    top_k: int,
    prune: bool,
    survivors: List[Tuple[float, int, ParallelConfig]],
    board,
    consume_keys: Sequence[str],
    publish_key: Optional[str],
    seed_threshold: float = math.inf,
) -> Tuple[Optional[IterationEstimate], List[IterationEstimate], int, int, int]:
    """Vectorized pass 2: price survivors in bound-ordered chunks.

    Chunks of parallelizations are expanded into (config, assignment) rows
    and priced by :func:`repro.core.batch_eval.batch_candidate_times` — one
    NumPy array program per chunk instead of one ``evaluate_config`` call
    per candidate.  The branch-and-bound threshold (the incumbent best, or
    the k-th best with a leaderboard) refreshes between chunks rather than
    between candidates, so batch mode may *evaluate* a few more candidates
    than scalar mode near the pruning frontier — but since pruning remains
    sound, the selected optimum and the exact top-k set are identical, and
    the winners are re-priced through the scalar oracle so the returned
    :class:`IterationEstimate` objects (plans included) are bit-identical
    to the scalar path's.

    With ``top_k == 0`` the threshold additionally consults the shared
    :class:`~repro.core.batch_eval.IncumbentBoard` (``consume_keys``) and
    publishes improvements under ``publish_key``.  A shared bound is a true
    feasible time of the consumed scope, so it can only prune candidates
    that cannot win; prunes that only the shared bound explains are
    tallied separately (the fifth return value).  ``seed_threshold`` — the
    best feasible time of the warm-start hints, already evaluated at this
    point — tightens the threshold the same sound way from the very first
    chunk.

    Returns ``(best, leaderboard, evaluated, pruned, shared_prunes)``.
    """
    from repro.core import batch_eval

    best_row: Optional[Tuple[ParallelConfig, GpuAssignment]] = None
    best_key: Tuple[float, int, int] = (math.inf, -1, -1)
    topk_heap: List[tuple] = []
    n_eval = 0
    n_pruned = 0
    n_shared = 0
    share = board is not None and top_k == 0 and prune
    bounds = [item[0] for item in survivors]

    i = 0
    while i < len(survivors):
        local_threshold = math.inf
        if prune:
            if top_k > 0:
                if len(topk_heap) >= top_k:
                    local_threshold = -topk_heap[0][0]
            else:
                local_threshold = min(best_key[0], seed_threshold)
        threshold = local_threshold
        if share:
            threshold = min(threshold, board.get(consume_keys))
        if prune and bounds[i] > threshold:
            n_pruned += len(survivors) - i
            if threshold < local_threshold:
                # Survivors the local incumbent alone would have kept alive.
                n_shared += bisect.bisect_right(bounds, local_threshold, i) - i
            break
        j = min(i + _BATCH_CHUNK_CONFIGS, len(survivors))
        if prune:
            # Bound-sorted: everything past the first too-large bound is
            # prunable; leave it for the next iteration's threshold check.
            j = bisect.bisect_right(bounds, threshold, i, j)
        rows: List[Tuple[int, ParallelConfig, int, GpuAssignment]] = []
        for _, rank, config in survivors[i:j]:
            assignments = gpu_assignments(config, system.nvs_domain_size, space)
            rows.extend(
                (rank, config, assign_idx, assignment)
                for assign_idx, assignment in enumerate(assignments)
            )
        n_eval += len(rows)
        times = batch_eval.batch_candidate_times(
            model,
            system,
            [(config, assignment) for _, config, _, assignment in rows],
            global_batch_size=global_batch_size,
            options=options,
        )
        for (rank, config, assign_idx, assignment), time in zip(rows, times):
            # Pass 1 already established feasibility (memory is
            # assignment-independent), so every row is a contender.
            time = float(time)
            key = (time, rank, assign_idx)
            if best_row is None or key < best_key:
                best_row = (config, assignment)
                best_key = key
            if top_k > 0:
                entry = (-time, -rank, -assign_idx, (config, assignment))
                if len(topk_heap) < top_k:
                    heapq.heappush(topk_heap, entry)
                elif entry > topk_heap[0]:
                    heapq.heapreplace(topk_heap, entry)
        if share and publish_key is not None and best_row is not None:
            board.publish(publish_key, best_key[0])
        i = j

    def _scalar(config: ParallelConfig, assignment: GpuAssignment) -> IterationEstimate:
        return evaluate_config(
            model,
            system,
            config,
            assignment,
            global_batch_size=global_batch_size,
            options=options,
            backend=DEFAULT_BACKEND,
        )

    best = _scalar(*best_row) if best_row is not None else None
    leaderboard = [
        _scalar(*row)
        for _, _, _, row in sorted(topk_heap, key=lambda e: (-e[0], -e[1], -e[2]))
    ]
    return best, leaderboard, n_eval, n_pruned, n_shared


def _search_single_strategy(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    options: ModelingOptions,
    top_k: int,
    backend: str = DEFAULT_BACKEND,
    eval_mode: str = DEFAULT_EVAL_MODE,
    board=None,
    consume_keys: Sequence[str] = (),
    publish_key: Optional[str] = None,
    warm_hints: Sequence = (),
) -> SearchResult:
    best: Optional[IterationEstimate] = None
    n_parallel = 0
    n_eval = 0
    n_mem = 0
    n_other = 0
    n_bounds = 0
    n_pruned = 0
    caches_before = cache_stats()
    # The compute-only lower bound is provably admissible for the analytic
    # evaluation; a simulated bubble may legitimately undercut the closed
    # form, so pruning is disabled for any non-default backend.
    prune = space.prune_with_lower_bound and backend == DEFAULT_BACKEND

    # Warm-start seeding: evaluate carried-over hints at *this* point first
    # and open the branch-and-bound with their best feasible time.  Only
    # meaningful with pruning on, and only sound for a best-only search — a
    # top-k leaderboard prunes on the k-th best, which a single seed time
    # would over-tighten.
    seed_threshold = math.inf
    warm_hits = 0
    warm_time = 0.0
    if warm_hints and prune and top_k == 0:
        t0 = time.perf_counter()
        seed_threshold, warm_hits, n_seed = _seed_from_hints(
            model, system, n_gpus, global_batch_size, strategy, space,
            options, backend, warm_hints,
        )
        warm_time = time.perf_counter() - t0
        n_eval += n_seed
        if board is not None and publish_key is not None and warm_hits:
            # A seed is a true feasible time of this scope: publishing it
            # lets sibling strategies and sweep workers prune against it.
            board.publish(publish_key, seed_threshold)

    # Pass 1: memory pre-filter (assignment-independent), then compute the
    # cheap compute-only lower bound of every surviving parallelization so
    # the expensive NVS-assignment loops run in best-bound-first order.
    # Each survivor keeps its enumeration rank: exact-tie candidates are
    # resolved by (time, rank, assignment index) below, so the winner is
    # the same whether or not the bound-sorted order was applied.
    survivors: List[Tuple[float, int, ParallelConfig]] = []
    for config in parallel_configs(model, n_gpus, global_batch_size, strategy, space):
        n_parallel += 1
        # Memory does not depend on the assignment: reject early.
        try:
            memory = estimate_config_memory(
                model, config, global_batch_size=global_batch_size, options=options
            )
        except ValueError:
            n_other += 1
            continue
        if not memory.fits(system.gpu.hbm_capacity):
            n_mem += 1
            continue
        bound = 0.0
        if prune:
            bound = config_time_lower_bound(
                model, system, config, global_batch_size=global_batch_size, options=options
            )
            n_bounds += 1
        survivors.append((bound, len(survivors), config))
    if prune:
        survivors.sort(key=lambda item: item[0])

    # Pass 2: evaluate assignments, skipping every parallelization whose
    # lower bound cannot beat the incumbent.  ``threshold`` is the incumbent
    # best time — or, when a top-k leaderboard is requested, the k-th best
    # time so far, so that pruning also preserves the exact top-k set.
    #
    # The leaderboard is a bounded max-heap of the k best estimates keyed by
    # (-time, -enumeration rank, -assignment index): heap[0] is the worst
    # kept entry — which doubles as the pruning threshold — and exact time
    # ties resolve by enumeration order, independent of evaluation order.
    n_shared = 0
    if eval_mode == "batch":
        best, leaderboard, n_batch_eval, n_pruned, n_shared = _batch_pass_two(
            model,
            system,
            global_batch_size,
            space,
            options,
            top_k,
            prune,
            survivors,
            board,
            consume_keys,
            publish_key,
            seed_threshold,
        )
        n_eval += n_batch_eval
    else:
        topk_heap: List[Tuple[float, int, int, IterationEstimate]] = []
        best_key: Tuple[float, int, int] = (math.inf, -1, -1)
        for idx, (bound, rank, config) in enumerate(survivors):
            if prune:
                if top_k > 0:
                    threshold = -topk_heap[0][0] if len(topk_heap) >= top_k else math.inf
                else:
                    threshold = best.total_time if best is not None else math.inf
                    threshold = min(threshold, seed_threshold)
                if bound > threshold:
                    # Survivors are bound-sorted: no later one can beat (or
                    # exactly tie, hence the strict >) the incumbent either.
                    n_pruned += len(survivors) - idx
                    break

            assignments = gpu_assignments(config, system.nvs_domain_size, space)
            for assign_idx, assignment in enumerate(assignments):
                n_eval += 1
                estimate = evaluate_config(
                    model,
                    system,
                    config,
                    assignment,
                    global_batch_size=global_batch_size,
                    options=options,
                    backend=backend,
                )
                if not estimate.feasible:
                    n_mem += 1
                    continue
                key = (estimate.total_time, rank, assign_idx)
                if best is None or key < best_key:
                    best = estimate
                    best_key = key
                if top_k > 0:
                    entry = (-estimate.total_time, -rank, -assign_idx, estimate)
                    if len(topk_heap) < top_k:
                        heapq.heappush(topk_heap, entry)
                    elif entry > topk_heap[0]:
                        heapq.heapreplace(topk_heap, entry)

        leaderboard = [
            est for _, _, _, est in sorted(topk_heap, key=lambda e: (-e[0], -e[1], -e[2]))
        ]

    caches_after = cache_stats()

    return SearchResult(
        model_name=model.name,
        system_name=system.name,
        n_gpus=n_gpus,
        global_batch_size=global_batch_size,
        strategy=strategy,
        best=best,
        top_k=leaderboard,
        statistics=SearchStatistics(
            parallel_configs=n_parallel,
            candidates_evaluated=n_eval,
            infeasible_memory=n_mem,
            infeasible_other=n_other,
            bounds_computed=n_bounds,
            pruned_configs=n_pruned,
            shared_incumbent_prunes=n_shared,
            warm_start_hits=warm_hits,
            warm_seed_time=warm_time,
            workload_cache_hits=(
                caches_after["workload"]["hits"] - caches_before["workload"]["hits"]
            ),
            workload_cache_misses=(
                caches_after["workload"]["misses"] - caches_before["workload"]["misses"]
            ),
            stage_cache_hits=(
                caches_after["stage_times"]["hits"] - caches_before["stage_times"]["hits"]
            ),
            stage_cache_misses=(
                caches_after["stage_times"]["misses"] - caches_before["stage_times"]["misses"]
            ),
        ),
    )


def find_optimal_config(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    *,
    strategy: str | Sequence[str] = "tp1d",
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    top_k: int = 0,
    fallback_activation_checkpointing: bool = True,
    backend: str = DEFAULT_BACKEND,
    objective: str = TRAINING_OBJECTIVE,
    serving=None,
    eval_mode: str = DEFAULT_EVAL_MODE,
    warm_hints: Sequence = (),
):
    """Brute-force search for the fastest feasible configuration.

    ``strategy`` may be a single strategy name, a sequence of names, or
    ``"all"`` to search 1D TP, 2D TP and SUMMA together (the overall best is
    returned and the per-strategy statistics are merged).

    ``backend`` selects the evaluation backend per candidate
    (:mod:`repro.core.backends`); with a non-default backend the
    branch-and-bound pruning is disabled, since the analytic lower bound is
    only provably admissible for the analytic evaluation.

    ``eval_mode`` selects how candidates are priced.  ``"scalar"`` (the
    default) calls :func:`~repro.core.execution.evaluate_config` once per
    candidate; ``"batch"`` prices memory-filtered survivors in vectorized
    NumPy chunks (:mod:`repro.core.batch_eval`) — the selected optimum and
    top-k set are identical (the batch pricer is bit-exact against the
    scalar oracle, and the winners are re-priced through it), but searches
    run several times faster.  Batch mode is analytic-only: combining it
    with a non-default ``backend`` raises :class:`ValueError`.  With
    pruning enabled and no top-k request, batch mode additionally shares
    the incumbent bound across this call's strategies and (best-effort)
    across :class:`~repro.runtime.executor.SweepExecutor` workers.

    ``objective`` selects the execution regime.  The default
    (:data:`TRAINING_OBJECTIVE`) minimises the training iteration time and
    returns a :class:`SearchResult`.  The serving objectives
    (``"throughput"``, ``"ttft"``, ``"tpot"`` — see
    :mod:`repro.core.inference`) evaluate the same EP/TP/PP/DP space in
    inference mode against the ``serving`` traffic description
    (a :class:`~repro.core.inference.ServingSpec`, defaulted when omitted)
    and return a :class:`~repro.core.inference.ServingSearchResult`;
    ``global_batch_size``, ``strategy`` and the training-only knobs are
    ignored there (serving models 1D TP with round-robin decode).

    ``warm_hints`` seeds the branch-and-bound: each hint (a
    :class:`ParallelConfig` or ``(config, assignment)`` tuple, typically a
    neighboring search point's winner) is adapted to this point, validated
    as a member of the enumerated space and evaluated *before* the
    enumeration; the best feasible time opens the pruning threshold.  The
    selected optimum and top-k set are bit-identical to a cold search —
    a seed is just a candidate evaluated first — and
    :attr:`SearchStatistics.warm_start_hits` /
    :attr:`SearchStatistics.warm_seed_time` record the effect.  Hints are
    ignored when pruning is off, when ``top_k > 0`` (a single seed would
    over-tighten the k-th-best threshold) or when none adapts into the
    space.

    When no configuration fits in HBM and ``fallback_activation_checkpointing``
    is set (the default), the search is repeated once with full activation
    checkpointing enabled — recomputing each block during the backward pass —
    which is how capacity-limited systems (e.g. A100 + the long-sequence ViT)
    are handled in practice.
    """
    # Local import: batch_eval sits on top of execution/config_space, which
    # this module also imports; resolving it lazily keeps startup costs off
    # the scalar path and avoids fragile import ordering.
    from repro.core import batch_eval

    eval_mode = batch_eval.validate_eval_mode(eval_mode)
    if eval_mode == "batch" and backend != DEFAULT_BACKEND:
        raise ValueError(
            f"eval_mode='batch' vectorizes the analytic closed forms and is "
            f"only exact against backend={DEFAULT_BACKEND!r}; got {backend!r}"
        )
    if objective != TRAINING_OBJECTIVE:
        # Local import: repro.core.inference imports this module for the
        # shared SearchStatistics, so the dependency must stay one-way.
        from repro.core.inference import ServingSpec, find_serving_config

        return find_serving_config(
            model,
            system,
            n_gpus,
            serving=serving if serving is not None else ServingSpec(),
            objective=objective,
            space=space,
            options=options,
            top_k=top_k,
            backend=backend,
            eval_mode=eval_mode,
            warm_hints=warm_hints,
        )
    if isinstance(strategy, str):
        strategies: Tuple[str, ...] = ALL_STRATEGIES if strategy == "all" else (strategy,)
    else:
        strategies = tuple(strategy)
    if not strategies:
        raise ValueError("at least one strategy is required")

    def _run(opts: ModelingOptions) -> List[SearchResult]:
        # Shared-incumbent sharing requires: batch pricing, a plain best-only
        # search (a top-k leaderboard prunes on the k-th best, which a scope
        # incumbent would over-tighten) and pruning enabled.  Cross-strategy
        # consumption is sound because a multi-strategy call only reports the
        # *merged* best: any candidate a sibling's incumbent pruned has time
        # >= its bound > incumbent >= merged best.
        board = None
        keys: List[str] = []
        if eval_mode == "batch" and top_k == 0 and space.prune_with_lower_bound:
            board = batch_eval.incumbent_board()
            keys = batch_eval.incumbent_scope_keys(
                model, system, n_gpus, global_batch_size, space, opts, strategies
            )
        return [
            _search_single_strategy(
                model, system, n_gpus, global_batch_size, strat, space, opts,
                top_k, backend, eval_mode,
                board=board,
                consume_keys=tuple(keys),
                publish_key=keys[i] if keys else None,
                warm_hints=warm_hints,
            )
            for i, strat in enumerate(strategies)
        ]

    results = _run(options)

    if (
        fallback_activation_checkpointing
        and not options.activation_checkpointing
        and all(res.best is None for res in results)
    ):
        from dataclasses import replace as _replace

        results = _run(_replace(options, activation_checkpointing=True))

    if len(results) == 1:
        return results[0]

    merged_stats = SearchStatistics()
    best_overall: Optional[IterationEstimate] = None
    merged_topk: List[IterationEstimate] = []
    for res in results:
        merged_stats = merged_stats.merged(res.statistics)
        merged_topk.extend(res.top_k)
        if res.best is not None and (
            best_overall is None or res.best.total_time < best_overall.total_time
        ):
            best_overall = res.best
    merged_topk.sort(key=lambda est: est.total_time)
    if top_k > 0:
        merged_topk = merged_topk[:top_k]

    return SearchResult(
        model_name=model.name,
        system_name=system.name,
        n_gpus=n_gpus,
        global_batch_size=global_batch_size,
        strategy="+".join(strategies),
        best=best_overall,
        top_k=merged_topk,
        statistics=merged_stats,
    )


# ----------------------------------------------------------------------
# Multi-objective (Pareto) search
# ----------------------------------------------------------------------

@dataclass
class ParetoPoint:
    """One frontier member: the estimate plus its raw metric values.

    ``metrics`` maps objective name to the *raw* value (headroom in bytes,
    cost in USD, ...) — maximised objectives are stored in their natural
    orientation, not the canonical minimised one.
    """

    estimate: IterationEstimate
    metrics: Dict[str, float]


@dataclass
class ParetoResult:
    """Outcome of :func:`find_pareto_configs`.

    ``points`` is the Pareto frontier in deterministic order: sorted by the
    canonical metric vector, then by (strategy, enumeration rank, assignment
    index) — so equal-vector ties keep every member and the order never
    depends on evaluation scheduling or eval mode.
    """

    model_name: str
    system_name: str
    n_gpus: int
    global_batch_size: int
    strategy: str
    objectives: Tuple[str, ...]
    points: List[ParetoPoint] = field(default_factory=list)
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    @property
    def found(self) -> bool:
        """True when at least one feasible configuration exists."""
        return bool(self.points)

    @property
    def best(self) -> Optional[IterationEstimate]:
        """The minimum-iteration-time frontier member (``None`` when empty).

        This is what lets a Pareto solve feed the warm-start hint index and
        the sweep winner chain exactly like a scalar solve: the fastest
        frontier point is a true member of the search space and an excellent
        seed for scalar searches of the same structure.
        """
        if not self.points:
            return None
        return min(self.points, key=lambda p: p.estimate.total_time).estimate

    @property
    def best_time(self) -> float:
        """Iteration time of the fastest frontier member (``inf`` if none)."""
        best = self.best
        return best.total_time if best is not None else math.inf

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports and JSON archives."""
        out: Dict[str, object] = {
            "model": self.model_name,
            "system": self.system_name,
            "n_gpus": self.n_gpus,
            "global_batch": self.global_batch_size,
            "strategy": self.strategy,
            "objectives": list(self.objectives),
            "found": self.found,
            "frontier_size": len(self.points),
            "configs_searched": self.statistics.parallel_configs,
            "candidates_evaluated": self.statistics.candidates_evaluated,
            "pruned_configs": self.statistics.pruned_configs,
        }
        best = self.best
        if best is not None:
            out.update(best.summary())
        return out


def _strictly_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when canonical vector ``a`` strictly dominates ``b``.

    ``a`` dominates ``b`` when it is no worse in every component and
    strictly better in at least one; equal vectors never dominate each
    other (both stay on the frontier).
    """
    better = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            better = True
    return better


class _FrontierArchive:
    """Incumbent Pareto frontier of evaluated candidates.

    Entries are ``(vector, order, config, assignment)`` where ``order`` is
    the deterministic ``(strategy index, enumeration rank, assignment
    index)`` tie key.  The archive is the multi-objective analogue of the
    scalar incumbent: :meth:`dominates_bound` is the branch-and-bound
    pruning test — a parallelization whose admissible bound vector is
    strictly dominated by an archived point cannot contribute a frontier
    member (every real candidate of it is ``>=`` the bound componentwise,
    so the archived point strictly dominates them all; by transitivity the
    final frontier does too).
    """

    def __init__(self) -> None:
        self.entries: List[
            Tuple[Tuple[float, ...], Tuple[int, int, int], ParallelConfig, GpuAssignment]
        ] = []

    @property
    def vectors(self):
        """The archived vectors as an ``(a, k)`` float64 array."""
        import numpy as np

        return np.array([vec for vec, _, _, _ in self.entries], dtype=np.float64)

    def dominates_bound(self, bound: Sequence[float]) -> bool:
        """True when some archived vector strictly dominates ``bound``."""
        return any(_strictly_dominates(vec, bound) for vec, _, _, _ in self.entries)

    def insert(
        self,
        vector: Tuple[float, ...],
        order: Tuple[int, int, int],
        config: ParallelConfig,
        assignment: GpuAssignment,
    ) -> bool:
        """Offer a candidate; keep the archive non-dominated.  True if kept."""
        if self.dominates_bound(vector):
            return False
        self.entries = [
            entry for entry in self.entries if not _strictly_dominates(vector, entry[0])
        ]
        self.entries.append((vector, order, config, assignment))
        return True

    def sorted_entries(self):
        """Entries in the deterministic report order (vector, then order)."""
        return sorted(self.entries, key=lambda entry: (entry[0], entry[1]))


def _pareto_single_strategy(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    strategy_index: int,
    space: SearchSpace,
    options: ModelingOptions,
    objectives,
    ctx,
    archive: _FrontierArchive,
    backend: str,
    eval_mode: str,
) -> SearchStatistics:
    """Fold one strategy's enumeration into the shared frontier archive.

    The same two-pass structure as the scalar search: a memory pre-filter
    plus per-objective admissible bound vectors (pass 1, sorted by bound),
    then candidate evaluation with dominance pruning against the incumbent
    frontier (pass 2, scalar loop or vectorized chunks).  Sharing one
    archive across strategies only ever prunes more — dominance is
    transitive, so a candidate pruned by a sibling strategy's point is
    dominated by the merged frontier too.
    """
    n_parallel = 0
    n_eval = 0
    n_mem = 0
    n_other = 0
    n_bounds = 0
    n_pruned = 0
    caches_before = cache_stats()
    # Like the scalar search: the analytic time lower bound (which every
    # affine objective bound is built from) is only admissible against the
    # analytic evaluation.
    prune = space.prune_with_lower_bound and backend == DEFAULT_BACKEND

    # Pass 1: memory pre-filter + affine coefficients + bound vectors.
    survivors: List[tuple] = []
    for rank, config in enumerate(
        parallel_configs(model, n_gpus, global_batch_size, strategy, space)
    ):
        n_parallel += 1
        try:
            memory = estimate_config_memory(
                model, config, global_batch_size=global_batch_size, options=options
            )
        except ValueError:
            n_other += 1
            continue
        if not memory.fits(system.gpu.hbm_capacity):
            n_mem += 1
            continue
        coeffs = tuple(obj.coefficients(config, ctx) for obj in objectives)
        bound_vec: Tuple[float, ...] = ()
        if prune:
            time_bound = config_time_lower_bound(
                model, system, config, global_batch_size=global_batch_size, options=options
            )
            n_bounds += 1
            # Admissible in exact arithmetic, but summed in another order
            # than evaluate_config's total, so it can round an ulp above the
            # time of a candidate with no exposed communication.  That lets
            # an archived tie (the same candidate enumerated by another
            # strategy) strictly dominate the bound and prune the tie away.
            # A relative slack far above rounding error keeps it admissible.
            time_bound *= 1.0 - 1e-12
            bound_vec = tuple(off + slope * time_bound for off, slope in coeffs)
        survivors.append((bound_vec, rank, config, coeffs))
    if prune:
        # Best-first along the first objective's bound (ties by rank) so the
        # archive fills with strong points before the bulk of the pruning
        # tests run.  Unlike the scalar search there is no early break — a
        # later parallelization may trade the first objective for another.
        survivors.sort(key=lambda item: (item[0], item[1]))

    # Pass 2: evaluate, prune by dominance, fold into the archive.
    if eval_mode == "batch":
        from repro.core import batch_eval
        import numpy as np

        i = 0
        while i < len(survivors):
            block = []
            while i < len(survivors) and len(block) < _BATCH_CHUNK_CONFIGS:
                bound_vec, rank, config, coeffs = survivors[i]
                i += 1
                if prune and archive.dominates_bound(bound_vec):
                    n_pruned += 1
                    continue
                block.append((rank, config, coeffs))
            if not block:
                continue
            rows: List[tuple] = []
            for rank, config, coeffs in block:
                for assign_idx, assignment in enumerate(
                    gpu_assignments(config, system.nvs_domain_size, space)
                ):
                    rows.append((rank, config, assign_idx, assignment, coeffs))
            times = batch_eval.batch_candidate_times(
                model,
                system,
                [(config, assignment) for _, config, _, assignment, _ in rows],
                global_batch_size=global_batch_size,
                options=options,
            )
            n_eval += len(rows)
            # coeffs[row, objective] = (offset, slope).  The same IEEE
            # multiply-add as the scalar loop below, applied to the bit-exact
            # batch times: the vectors are identical in both modes.
            coeffs = np.array([row[4] for row in rows], dtype=np.float64)
            vectors = coeffs[:, :, 0] + coeffs[:, :, 1] * times[:, None]
            # Rows an archived point dominates can never reach the frontier;
            # the archive's own inserts settle dominance within the chunk (an
            # entry is only evicted by a newer one that dominates everything
            # it filtered out).
            keep = batch_eval.non_dominated_mask(vectors, archive.vectors)
            for index in np.flatnonzero(keep).tolist():
                rank, config, assign_idx, assignment, _ = rows[index]
                archive.insert(
                    tuple(vectors[index].tolist()),
                    (strategy_index, rank, assign_idx),
                    config,
                    assignment,
                )
    else:
        for bound_vec, rank, config, coeffs in survivors:
            if prune and archive.dominates_bound(bound_vec):
                n_pruned += 1
                continue
            for assign_idx, assignment in enumerate(
                gpu_assignments(config, system.nvs_domain_size, space)
            ):
                n_eval += 1
                estimate = evaluate_config(
                    model,
                    system,
                    config,
                    assignment,
                    global_batch_size=global_batch_size,
                    options=options,
                    backend=backend,
                )
                if not estimate.feasible:
                    n_mem += 1
                    continue
                vector = tuple(
                    off + slope * estimate.total_time for off, slope in coeffs
                )
                archive.insert(
                    vector, (strategy_index, rank, assign_idx), config, assignment
                )

    caches_after = cache_stats()
    return SearchStatistics(
        parallel_configs=n_parallel,
        candidates_evaluated=n_eval,
        infeasible_memory=n_mem,
        infeasible_other=n_other,
        bounds_computed=n_bounds,
        pruned_configs=n_pruned,
        workload_cache_hits=(
            caches_after["workload"]["hits"] - caches_before["workload"]["hits"]
        ),
        workload_cache_misses=(
            caches_after["workload"]["misses"] - caches_before["workload"]["misses"]
        ),
        stage_cache_hits=(
            caches_after["stage_times"]["hits"] - caches_before["stage_times"]["hits"]
        ),
        stage_cache_misses=(
            caches_after["stage_times"]["misses"] - caches_before["stage_times"]["misses"]
        ),
    )


def find_pareto_configs(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    *,
    objectives: Sequence[str] = (),
    strategy: str | Sequence[str] = "tp1d",
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    fallback_activation_checkpointing: bool = True,
    backend: str = DEFAULT_BACKEND,
    eval_mode: str = DEFAULT_EVAL_MODE,
    warm_hints: Sequence = (),
) -> ParetoResult:
    """Multi-objective search: the Pareto frontier of the candidate space.

    Where :func:`find_optimal_config` returns the single fastest feasible
    configuration, this returns every *non-dominated* one under the named
    ``objectives`` (defaulting to
    :data:`repro.core.objectives.DEFAULT_PARETO_OBJECTIVES` — time, HBM
    headroom, cost, energy).  A candidate is dominated when another is no
    worse on every objective and strictly better on one; equal metric
    vectors are mutually non-dominated, so exact ties all stay.

    Branch-and-bound still prunes: every registered objective provides an
    admissible assignment-independent lower bound (see
    :mod:`repro.core.objectives`), and a parallelization whose bound
    *vector* is strictly dominated by an already-evaluated frontier point
    provably contains no frontier member — the exact multi-objective
    analogue of the scalar threshold.  The returned frontier equals the
    exhaustive non-dominated filter over the full enumeration (a tier-1
    invariant pins this, for scalar and batch eval modes alike).

    A single-entry ``objectives=("time",)`` degenerates to the scalar
    search: the frontier is exactly the set of minimum-time candidates and
    its fastest member matches :func:`find_optimal_config`'s winner.

    ``eval_mode="batch"`` prices survivors through the vectorized batch
    pricer in chunks and drops every row of a chunk that an archived point
    strictly dominates with one vectorized test against the incumbent
    frontier (:func:`repro.core.batch_eval.non_dominated_mask`) before
    inserting the rest; the frontier is bit-identical to scalar mode (the
    batch times are bit-exact, the metric vectors use the same float
    arithmetic, and every frontier member is re-priced through the scalar
    oracle).  Batch mode is analytic-only.

    ``warm_hints`` is accepted for interface compatibility with
    :func:`find_optimal_config` (sweep plumbing attaches hints uniformly)
    but ignored: a scalar seed time cannot soundly open a *frontier*
    threshold, and the frontier must equal the exhaustive filter
    regardless of seeding.
    """
    from repro.core import batch_eval
    from repro.core.objectives import (
        DEFAULT_PARETO_OBJECTIVES,
        ObjectiveContext,
        resolve_objectives,
    )

    del warm_hints  # accepted but unused (see docstring)
    eval_mode = batch_eval.validate_eval_mode(eval_mode)
    if eval_mode == "batch" and backend != DEFAULT_BACKEND:
        raise ValueError(
            f"eval_mode='batch' vectorizes the analytic closed forms and is "
            f"only exact against backend={DEFAULT_BACKEND!r}; got {backend!r}"
        )
    objs = resolve_objectives(objectives or DEFAULT_PARETO_OBJECTIVES)
    if isinstance(strategy, str):
        strategies: Tuple[str, ...] = ALL_STRATEGIES if strategy == "all" else (strategy,)
    else:
        strategies = tuple(strategy)
    if not strategies:
        raise ValueError("at least one strategy is required")

    def _run(opts: ModelingOptions) -> Tuple[_FrontierArchive, SearchStatistics]:
        archive = _FrontierArchive()
        ctx = ObjectiveContext(
            model=model,
            system=system,
            n_gpus=n_gpus,
            global_batch_size=global_batch_size,
            options=opts,
        )
        stats = SearchStatistics()
        for strategy_index, strat in enumerate(strategies):
            stats = stats.merged(
                _pareto_single_strategy(
                    model, system, n_gpus, global_batch_size, strat, strategy_index,
                    space, opts, objs, ctx, archive, backend, eval_mode,
                )
            )
        return archive, stats

    used_options = options
    archive, stats = _run(options)
    if (
        fallback_activation_checkpointing
        and not options.activation_checkpointing
        and not archive.entries
    ):
        used_options = replace(options, activation_checkpointing=True)
        archive, stats = _run(used_options)

    points: List[ParetoPoint] = []
    for vector, _, config, assignment in archive.sorted_entries():
        estimate = evaluate_config(
            model,
            system,
            config,
            assignment,
            global_batch_size=global_batch_size,
            options=used_options,
            backend=DEFAULT_BACKEND if eval_mode == "batch" else backend,
        )
        points.append(
            ParetoPoint(
                estimate=estimate,
                metrics={
                    obj.name: obj.raw(component)
                    for obj, component in zip(objs, vector)
                },
            )
        )

    return ParetoResult(
        model_name=model.name,
        system_name=system.name,
        n_gpus=n_gpus,
        global_batch_size=global_batch_size,
        strategy="+".join(strategies),
        objectives=tuple(obj.name for obj in objs),
        points=points,
        statistics=stats,
    )


def best_assignment_for(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    *,
    global_batch_size: int,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> IterationEstimate:
    """Evaluate ``config`` under its best NVS assignment.

    This is the helper the "rationale" experiments (Figs. 1-3) use: the
    parallelization is fixed by hand and only the GPU placement is optimised,
    mirroring the paper's methodology.
    """
    assignments = gpu_assignments(config, system.nvs_domain_size, space)
    estimates = evaluate_candidates(
        model,
        system,
        config,
        assignments,
        global_batch_size=global_batch_size,
        options=options,
        backend=backend,
    )
    feasible = [est for est in estimates if est.feasible]
    pool = feasible if feasible else estimates
    return min(pool, key=lambda est: est.total_time)
