"""Vectorized (NumPy) pricing of whole candidate enumerations.

The scalar evaluation path prices one ``(ParallelConfig, GpuAssignment)``
candidate per :func:`~repro.core.execution.evaluate_config` call — thousands
of Python object constructions per search.  This module prices an *entire*
batch of candidates as NumPy array programs instead: the candidate axes
(tp/pp/dp/ep x schedule x virtual stages x NVS assignment) are packed into
structured arrays, every :class:`~repro.core.plan.CostPhase` term is
evaluated as one vectorized operation across all candidates, and the final
reduction produces the per-candidate step times in a single pass.

**The scalar path stays the bit-exactness oracle.**  Every formula here is
the elementwise float64 transcription of the corresponding scalar code —
same operations, same association order — so with the analytic backend the
batch totals equal :attr:`IterationEstimate.total_time` bit for bit:

* collectives: :func:`repro.core.collectives.collective_time` (latency +
  ring-bandwidth closed forms of §III-A).  A group's collectives are
  priced as the rows of one stacked ``(R, C)`` program — R collectives by
  C candidates: the TP comm ops and SUMMA panel broadcasts of both passes
  in one call, the DP ReduceScatter/AllGather rows in another — and each
  total is then summed row by row in op order, as the scalar loop adds
  it up (never ``np.sum``, whose pairwise summation rounds differently);
* plan assembly: :func:`repro.core.execution._assemble_plan` (per-layer
  roofline times x layers per stage, SUMMA prologue/spill-over, DP
  ReduceScatter/AllGather with overlap budgets);
* reduction: :meth:`repro.core.plan.ExecutionPlan.reduce` /
  :attr:`repro.core.plan.TimeBreakdown.total` (category accumulation in
  plan order).

The equivalence is pinned by ``tests/test_batch_eval.py`` (scenario grid)
and ``tests/test_batch_eval_properties.py`` (hypothesis properties); the
documented tolerance is **exact equality** (``==``) on every category and
on the total.  Only the analytic backend is supported — a simulated bubble
has no closed form to vectorize — and callers are expected to enforce
``backend == DEFAULT_BACKEND`` before routing here.

The module also hosts the :class:`IncumbentBoard`: the best-known feasible
iteration time per search scope, shared across the strategies of one
:func:`~repro.core.search.find_optimal_config` call and (best-effort, via
``multiprocessing.Value`` slots installed by
:class:`~repro.runtime.executor.SweepExecutor`) across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.collectives import _BANDWIDTH_MULTIPLIER, POINT_TO_POINT
from repro.core.config_space import SearchSpace
from repro.core.execution import (
    ModelingOptions,
    DEFAULT_OPTIONS,
    _cached_stage_times,
    _cached_workload,
    _largest_divisor_at_most,
    register_cache,
)
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import (
    GROUP_DP,
    GROUP_DP_TP2,
    GROUP_EP,
    GROUP_PP,
    GROUP_TP1,
    GROUP_TP2,
    GpuAssignment,
    ParallelConfig,
)
from repro.core.parallelism.data_parallel import (
    GRAD_BYTES_PER_PARAM,
    WEIGHT_BYTES_PER_PARAM,
    resolve_zero_stage,
)
from repro.core.schedules import get_schedule
from repro.core.system import NetworkSpec, SystemSpec
from repro.utils.serialization import canonical_fingerprint, to_jsonable

__all__ = [
    "DEFAULT_EVAL_MODE",
    "EVAL_MODES",
    "BatchBreakdown",
    "IncumbentBoard",
    "batch_candidate_breakdowns",
    "batch_candidate_times",
    "batch_serving_prefill_comm",
    "incumbent_board",
    "incumbent_scope_keys",
    "install_shared_slots",
    "non_dominated_mask",
    "validate_eval_mode",
]

#: Evaluation modes understood by the search (``--eval-mode``): the scalar
#: per-candidate oracle, and the vectorized batch pricer of this module.
EVAL_MODES = ("scalar", "batch")
DEFAULT_EVAL_MODE = "scalar"


def validate_eval_mode(eval_mode: str) -> str:
    """Normalise and validate an ``--eval-mode`` value."""
    mode = str(eval_mode).strip().lower()
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown eval_mode {eval_mode!r}; supported: {EVAL_MODES}")
    return mode


# ----------------------------------------------------------------------
# Vectorized §III-A collective closed forms
# ----------------------------------------------------------------------

def _p2p_time_arr(volume_bytes, gpus_per_domain: np.ndarray, network: NetworkSpec):
    """Elementwise :func:`~repro.core.collectives.point_to_point_time`."""
    fast = network.nvs_latency + volume_bytes / network.effective_nvs_bandwidth
    slow = network.ib_latency + volume_bytes / network.effective_ib_bandwidth
    out = np.where(gpus_per_domain > 1, fast, slow)
    return np.where(np.asarray(volume_bytes) <= 0, 0.0, out)


def _collective_time_arr(
    collectives: Sequence[str],
    volume_bytes: np.ndarray,
    size: np.ndarray,
    gpus_per_domain: np.ndarray,
    network: NetworkSpec,
) -> np.ndarray:
    """Row-stacked :func:`~repro.core.collectives.collective_time`.

    Row ``r`` prices ``collectives[r]``; ``size``/``gpus_per_domain`` are
    ``(R, C)`` int64 arrays (one column per candidate) and ``volume_bytes``
    broadcasts against them (``(R, 1)`` for per-row volumes).  Every
    operation mirrors the scalar closed form in order and association, so
    each entry is the bit-exact float64 result of the scalar call.
    """
    multiplier = np.array(
        [1.0 if c == POINT_TO_POINT else _BANDWIDTH_MULTIPLIER[c] for c in collectives]
    )[:, None]
    # latency_time: slow hops across domains plus fast hops inside them.
    num_domains = size // gpus_per_domain
    lat = network.ib_latency * (num_domains - 1) + network.nvs_latency * (
        size - num_domains
    )
    # ring_bandwidth_time: (n-1)/n * max(fast-domain, NIC-multiplexed slow).
    fast = volume_bytes / network.effective_nvs_bandwidth
    share = gpus_per_domain / network.nvs_domain_size
    nics = np.maximum(1.0, network.nics_per_node * np.minimum(1.0, share))
    slow = volume_bytes / (nics * network.effective_ib_bandwidth)
    per_ring = np.where(size > gpus_per_domain, np.maximum(fast, slow), fast)
    ring = (size - 1) / size * per_ring
    out = lat + multiplier * ring
    p2p = [r for r, c in enumerate(collectives) if c == POINT_TO_POINT]
    if p2p:
        out[p2p] = _p2p_time_arr(volume_bytes, gpus_per_domain, network)[p2p]
    return np.where((size == 1) | (volume_bytes <= 0), 0.0, out)


def _op_order_sum(rows: np.ndarray, count: int) -> np.ndarray:
    """Row-by-row sum from zero: the scalar ``total += t`` loop, lane-wise.

    Deliberately not ``np.sum``, whose pairwise summation regroups the
    additions and so changes the rounding.
    """
    total = np.zeros(count)
    for row in rows:
        total += row
    return total


@register_cache("batch_ep_divisor")
@lru_cache(maxsize=4096)
def _ep_colocated(size: int, limit: int) -> int:
    """Memoized largest divisor of ``size`` at most ``limit`` (EP carve-out)."""
    return _largest_divisor_at_most(size, max(1, limit))


# ----------------------------------------------------------------------
# Candidate batches
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BatchBreakdown:
    """Per-candidate category times (aligned float64 arrays).

    The fields mirror :class:`~repro.core.plan.TimeBreakdown`;
    :attr:`total` is their sum accumulated in the same category order.
    """

    compute: np.ndarray
    memory: np.ndarray
    tp_comm: np.ndarray
    pp_bubble: np.ndarray
    pp_comm: np.ndarray
    dp_comm: np.ndarray
    total: np.ndarray

    def __len__(self) -> int:
        return len(self.total)


class _GroupGeometry:
    """Vectorized group placement for one homogeneous candidate group.

    Replicates :func:`repro.core.execution._group_placement` (including the
    EP carve-out and the ``GroupPlacement`` co-location clamp) as aligned
    ``(size, gpus_per_nvs_domain)`` int64 arrays, lazily per group label.
    """

    def __init__(
        self,
        n1: int,
        n2: int,
        ep: int,
        np_: np.ndarray,
        nd: np.ndarray,
        nvs_tp1: np.ndarray,
        nvs_tp2: np.ndarray,
        nvs_pp: np.ndarray,
        nvs_dp: np.ndarray,
    ):
        self.n1, self.n2, self.ep = n1, n2, ep
        self.np_, self.nd = np_, nd
        self.nvs = {
            GROUP_TP1: nvs_tp1,
            GROUP_TP2: nvs_tp2,
            GROUP_PP: nvs_pp,
            GROUP_DP: nvs_dp,
        }
        self._count = len(nd)
        self._cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def _const(self, value: int) -> np.ndarray:
        return np.full(self._count, value, dtype=np.int64)

    def _base_size(self, group: str) -> np.ndarray:
        if group.endswith("/ep"):
            # Validity is checked during enumeration; here ep always divides.
            return self._base_size(group[: -len("/ep")]) // self.ep
        if group == GROUP_TP1:
            return self._const(self.n1)
        if group == GROUP_TP2:
            return self._const(self.n2)
        if group == GROUP_PP:
            return self.np_
        if group == GROUP_DP:
            return self.nd
        if group == GROUP_DP_TP2:
            return self.nd * self.n2
        if group == GROUP_EP:
            return self._const(self.ep)
        if group == "tp":
            return self._const(self.n1 * self.n2)
        raise KeyError(f"unknown parallel group {group!r}")

    def _base_nvs(self, group: str) -> np.ndarray:
        if group == GROUP_DP_TP2:
            return self.nvs[GROUP_DP] * self.nvs[GROUP_TP2]
        if group == "tp":
            return self.nvs[GROUP_TP1] * self.nvs[GROUP_TP2]
        return self.nvs[group]

    def __call__(self, group: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(size, gpus_per_nvs_domain)`` arrays of the named group."""
        cached = self._cache.get(group)
        if cached is not None:
            return cached
        size = self._base_size(group)
        if group == GROUP_EP or group.endswith("/ep"):
            base = group[: -len("/ep")] if group.endswith("/ep") else GROUP_DP
            base_nvs = self._base_nvs(base)
            nvs = np.fromiter(
                (_ep_colocated(int(s), int(b)) for s, b in zip(size, base_nvs)),
                dtype=np.int64,
                count=self._count,
            )
        else:
            nvs = self._base_nvs(group)
        # GroupPlacement.__post_init__ clamps co-location to the group size.
        nvs = np.minimum(nvs, size)
        self._cache[group] = (size, nvs)
        return size, nvs

    def rows(self, groups: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Row-stacked ``(len(groups), C)`` size and co-location arrays."""
        labels: Dict[str, int] = {}
        pick = [labels.setdefault(group, len(labels)) for group in groups]
        placed = [self(group) for group in labels]
        shape = (len(labels), self._count)
        size = np.array([s for s, _ in placed], dtype=np.int64).reshape(shape)
        nvs = np.array([n for _, n in placed], dtype=np.int64).reshape(shape)
        return size[pick], nvs[pick]


def _tp_comm_arrs(segments, geometry: _GroupGeometry, network: NetworkSpec):
    """Per-layer exposed TP communication of each ``(comms, summa_records)`` segment.

    Vectorizes :func:`repro.core.execution._comm_time` +
    :func:`~repro.core.execution._summa_comm_time`.  Every collective of
    every segment is one row of a single stacked ``(R, C)`` program: per
    segment, the non-overlapped comm ops, then the SUMMA activation panel
    broadcasts (``act_bytes / nb``), then the weight panel broadcasts.  The
    SUMMA prologue + spill-over is one ``(records, C)`` expression, and each
    segment's total is the op-order sum of its comm rows plus the op-order
    sum of its SUMMA rows, exactly as the scalar loops add them up.
    """
    collectives: List[str] = []
    volumes: List[float] = []
    groups: List[str] = []
    act_rows: List[int] = []
    w_rows: List[int] = []
    panel_compute: List[float] = []
    spill_panels: List[int] = []
    slices = []  # per segment: (its comm rows, its SUMMA records)
    for comms, records in segments:
        exposed = [comm for comm in comms if not comm.overlapped]
        first_act = len(collectives) + len(exposed)
        slices.append((
            slice(len(collectives), first_act),
            slice(len(panel_compute), len(panel_compute) + len(records)),
        ))
        act_rows += range(first_act, first_act + len(records))
        w_rows += range(first_act + len(records), first_act + 2 * len(records))
        collectives += [comm.collective for comm in exposed]
        collectives += ["broadcast"] * (2 * len(records))
        volumes += [comm.volume_bytes for comm in exposed]
        groups += [comm.group for comm in exposed]
        volumes += [rec[0] / rec[5] for rec in records] + [rec[2] / rec[5] for rec in records]
        groups += [rec[1] for rec in records] + [rec[3] for rec in records]
        panel_compute += [rec[4] for rec in records]
        spill_panels += [max(0, rec[5] - 1) for rec in records]

    size, nvs = geometry.rows(groups)
    times = _collective_time_arr(
        collectives, np.array(volumes, dtype=np.float64)[:, None], size, nvs, network
    )
    count = size.shape[1]
    totals = [_op_order_sum(times[comm_rows], count) for comm_rows, _ in slices]
    if not panel_compute:
        # No SUMMA records: the scalar path adds a 0.0 SUMMA total, a no-op.
        return totals
    panel_comm = times[act_rows] + times[w_rows]
    exposed_per_panel = np.maximum(0.0, panel_comm - np.array(panel_compute)[:, None])
    summa = panel_comm + np.array(spill_panels)[:, None] * exposed_per_panel
    return [
        total + _op_order_sum(summa[record_rows], count)
        for total, (_, record_rows) in zip(totals, slices)
    ]


def _dp_comm_arrs(
    param_sets: Sequence[Tuple[float, str]],
    stage_layers: np.ndarray,
    zero_stage: int,
    geometry: _GroupGeometry,
    network: NetworkSpec,
):
    """Vectorized DP plan volumes + collective times, summed over parameter sets.

    Mirrors :func:`~repro.core.parallelism.data_parallel.data_parallel_plan`
    plus the pricing loop of ``_assemble_plan`` for each
    ``(params_per_gpu, sync_group)``: a ReduceScatter of the gradients and
    an AllGather of the weights, priced as two stacked rows per set (a
    group of size 1 prices to 0, as its zero plan volume does in the scalar
    path).  Returns the ``(reduce_scatter, all_gather)`` totals in set order.
    """
    volumes, groups = [], []
    for params_per_gpu, sync_group in param_sets:
        params = params_per_gpu * stage_layers
        weight_bytes = WEIGHT_BYTES_PER_PARAM * params
        if zero_stage >= 3:
            weight_bytes = 2.0 * weight_bytes
        volumes += [GRAD_BYTES_PER_PARAM * params, weight_bytes]
        groups += [sync_group, sync_group]
    size, nvs = geometry.rows(groups)
    times = _collective_time_arr(
        ("reduce_scatter", "all_gather") * len(param_sets), np.array(volumes), size, nvs, network
    )
    count = size.shape[1]
    return _op_order_sum(times[0::2], count), _op_order_sum(times[1::2], count)


#: Axes that are constant within one vectorized group: everything the cached
#: stage times / workload depend on, plus the schedule (whose bubble formula
#: and P2P volume factor differ per schedule).
_GroupKey = Tuple[str, int, int, int, int, int, str]


def _group_key(config: ParallelConfig) -> _GroupKey:
    return (
        config.strategy,
        config.microbatch_size,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        config.expert_parallel,
        config.schedule,
    )


def _price_group(
    model: TransformerConfig,
    system: SystemSpec,
    candidates: Sequence[Tuple[ParallelConfig, GpuAssignment]],
    global_batch_size: int,
    options: ModelingOptions,
) -> BatchBreakdown:
    """Price one homogeneous group (shared stage times) of candidates."""
    head = candidates[0][0]
    schedule = get_schedule(head.schedule)
    network = system.network
    count = len(candidates)

    stage = _cached_stage_times(
        head.strategy,
        model,
        system.gpu,
        head.microbatch_size,
        head.tensor_parallel_1,
        head.tensor_parallel_2,
        head.summa_panels,
        options.flash_attention,
        options.include_dropout,
        options.include_flop_latency,
        head.expert_parallel,
    )
    workload = _cached_workload(
        head.strategy,
        model,
        head.microbatch_size,
        head.tensor_parallel_1,
        head.tensor_parallel_2,
        head.summa_panels,
        options.flash_attention,
        options.include_dropout,
        head.expert_parallel,
    )

    # --- per-candidate integer axes ------------------------------------
    np_ = np.fromiter((c.pipeline_parallel for c, _ in candidates), np.int64, count)
    nd = np.fromiter((c.data_parallel for c, _ in candidates), np.int64, count)
    v = np.fromiter((c.virtual_stages for c, _ in candidates), np.int64, count)
    m = np.fromiter(
        (c.num_microbatches(global_batch_size) for c, _ in candidates), np.int64, count
    )
    stage_layers = model.depth // np_
    geometry = _GroupGeometry(
        head.tensor_parallel_1,
        head.tensor_parallel_2,
        head.expert_parallel,
        np_,
        nd,
        np.fromiter((a.nvs_tp1 for _, a in candidates), np.int64, count),
        np.fromiter((a.nvs_tp2 for _, a in candidates), np.int64, count),
        np.fromiter((a.nvs_pp for _, a in candidates), np.int64, count),
        np.fromiter((a.nvs_dp for _, a in candidates), np.int64, count),
    )

    # --- per-microbatch, per-stage times (mirrors _assemble_plan) -------
    fwd_tp_comm, bwd_tp_comm = _tp_comm_arrs(
        ((stage.fwd_comms, stage.fwd_summa), (stage.bwd_comms, stage.bwd_summa)),
        geometry,
        network,
    )

    fwd_compute = stage.fwd_flop * stage_layers
    fwd_memory = stage.fwd_mem_exposed * stage_layers
    bwd_compute = stage.bwd_flop * stage_layers
    bwd_memory = stage.bwd_mem_exposed * stage_layers
    fwd_tp_comm = fwd_tp_comm * stage_layers
    bwd_tp_comm = bwd_tp_comm * stage_layers

    if options.activation_checkpointing:
        bwd_compute = bwd_compute + fwd_compute
        bwd_memory = bwd_memory + fwd_memory
        bwd_tp_comm = bwd_tp_comm + fwd_tp_comm

    tf = fwd_compute + fwd_memory + fwd_tp_comm
    tb = bwd_compute + bwd_memory + bwd_tp_comm

    compute = m * (fwd_compute + bwd_compute)
    memory = m * (fwd_memory + bwd_memory)
    tp_comm = m * (fwd_tp_comm + bwd_tp_comm)
    pp_bubble = schedule.bubble_time_batch(np_, m, tf, tb, v)

    # --- pipeline P2P ---------------------------------------------------
    if options.overlap_pp:
        pp_comm = np.zeros(count)
    else:
        # pipeline_p2p_volume_bytes, hoisted: constant within the group.
        elements = (
            head.microbatch_size * model.seq_len * model.embed_dim / head.tensor_parallel
        )
        p2p_volume = 2.0 * (elements * model.dtype_bytes)
        _, pp_nvs = geometry(GROUP_PP)
        factors = {vs: schedule.p2p_volume_factor(vs) for vs in np.unique(v).tolist()}
        factor = np.fromiter((factors[vv] for vv in v.tolist()), np.float64, count)
        pp_comm = np.where(
            np_ > 1, m * (factor * _p2p_time_arr(p2p_volume, pp_nvs, network)), 0.0
        )

    # --- data parallel ---------------------------------------------------
    zero_stage = resolve_zero_stage(options.zero_stage, options.zero_optimizer)
    param_sets = [(workload.params_per_gpu, workload.grad_sync_group)]
    if workload.expert_params_per_gpu > 0:
        param_sets.append((workload.expert_params_per_gpu, workload.expert_grad_sync_group))
    rs_total, ag_total = _dp_comm_arrs(param_sets, stage_layers, zero_stage, geometry, network)
    if options.overlap_dp:
        dp_comm = np.maximum(0.0, rs_total - tb) + np.maximum(0.0, ag_total - tf)
    else:
        dp_comm = rs_total + ag_total

    total = compute + memory + tp_comm + pp_bubble + pp_comm + dp_comm
    return BatchBreakdown(
        compute=compute,
        memory=memory,
        tp_comm=tp_comm,
        pp_bubble=pp_bubble,
        pp_comm=pp_comm,
        dp_comm=dp_comm,
        total=total,
    )


def batch_candidate_breakdowns(
    model: TransformerConfig,
    system: SystemSpec,
    candidates: Sequence[Tuple[ParallelConfig, GpuAssignment]],
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> BatchBreakdown:
    """Per-candidate category breakdowns of a heterogeneous candidate batch.

    Candidates are grouped by their stage-time key (strategy, microbatch,
    TP factorization, panels, EP, schedule); each group is priced as one
    array program and the results are scattered back into input order.
    """
    count = len(candidates)
    fields = {
        name: np.zeros(count)
        for name in ("compute", "memory", "tp_comm", "pp_bubble", "pp_comm", "dp_comm", "total")
    }
    groups: Dict[_GroupKey, List[int]] = {}
    for idx, (config, _) in enumerate(candidates):
        groups.setdefault(_group_key(config), []).append(idx)
    for indices in groups.values():
        priced = _price_group(
            model,
            system,
            [candidates[i] for i in indices],
            global_batch_size,
            options,
        )
        for name, out in fields.items():
            out[indices] = getattr(priced, name)
    return BatchBreakdown(**fields)


def batch_candidate_times(
    model: TransformerConfig,
    system: SystemSpec,
    candidates: Sequence[Tuple[ParallelConfig, GpuAssignment]],
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> np.ndarray:
    """Per-candidate total iteration times (float64, input order)."""
    return batch_candidate_breakdowns(
        model, system, candidates, global_batch_size=global_batch_size, options=options
    ).total


def batch_serving_prefill_comm(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignments: Sequence[GpuAssignment],
    *,
    prompt_tokens: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized prefill communication of one serving parallelization.

    Returns aligned float64 arrays over ``assignments``: the per-layer
    prefill TP-collective time and the stage-boundary P2P transfer time —
    the only two serving quantities that vary with the NVS assignment
    (everything else in a serving estimate is assignment-independent or, in
    decode's case, depends on the Little's-law batch and stays scalar).
    Each lane is the bit-exact scalar value
    (:func:`repro.core.inference._evaluate_serving` computes the same
    closed forms through the analytic pricer), so injecting these into the
    scalar evaluator leaves every serving estimate byte-identical.
    """
    count = len(assignments)
    prefill_model = model.scaled(seq_len=prompt_tokens)
    stage = _cached_stage_times(
        "tp1d",
        prefill_model,
        system.gpu,
        1,  # one request per prefill microbatch
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        options.include_flop_latency,
        config.expert_parallel,
    )
    geometry = _GroupGeometry(
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.expert_parallel,
        np.full(count, config.pipeline_parallel, dtype=np.int64),
        np.full(count, config.data_parallel, dtype=np.int64),
        np.fromiter((a.nvs_tp1 for a in assignments), np.int64, count),
        np.fromiter((a.nvs_tp2 for a in assignments), np.int64, count),
        np.fromiter((a.nvs_pp for a in assignments), np.int64, count),
        np.fromiter((a.nvs_dp for a in assignments), np.int64, count),
    )
    (comm,) = _tp_comm_arrs(((stage.fwd_comms, ()),), geometry, system.network)
    _, pp_nvs = geometry(GROUP_PP)
    volume = model.dtype_bytes * prompt_tokens * model.embed_dim
    p2p = _p2p_time_arr(volume, pp_nvs, system.network)
    return comm, np.broadcast_to(p2p, (count,)).astype(np.float64, copy=False)


# ----------------------------------------------------------------------
# Vectorized Pareto dominance
# ----------------------------------------------------------------------

def non_dominated_mask(vectors: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``vectors`` that ``frontier`` does not dominate.

    ``vectors`` is an ``(n, k)`` and ``frontier`` an ``(a, k)`` float64
    matrix of canonical (minimised) metric vectors.  Row ``i`` is *strictly
    dominated* when some frontier row is ``<=`` it in every component and
    ``<`` in at least one; the mask keeps exactly the rows no frontier row
    strictly dominates.  Equal vectors never dominate each other, and an
    empty ``frontier`` keeps every row.

    Rows are *not* compared with each other: this is the batch Pareto
    search's O(n * a) filter of a priced chunk against the incumbent
    archive, whose inserts then settle dominance within the chunk.
    """
    pts = np.asarray(vectors, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, k) matrix, got shape {pts.shape}")
    front = np.asarray(frontier, dtype=np.float64)
    if front.size == 0:
        return np.ones(len(pts), dtype=bool)
    if front.ndim != 2 or front.shape[1] != pts.shape[1]:
        raise ValueError(
            f"expected an (a, {pts.shape[1]}) frontier, got shape {front.shape}"
        )
    # [a, n]: does frontier row j strictly dominate row i?
    le = (front[:, None, :] <= pts[None, :, :]).all(axis=2)
    lt = (front[:, None, :] < pts[None, :, :]).any(axis=2)
    return ~(le & lt).any(axis=0)


# ----------------------------------------------------------------------
# Shared-incumbent board
# ----------------------------------------------------------------------

class IncumbentBoard:
    """Best-known feasible iteration times keyed by search scope.

    A *scope key* identifies one exact search problem — model, system, GPU
    count, batch, space, options and strategy (see
    :func:`incumbent_scope_keys`) — so a published time is always a true
    upper bound on that scope's optimum and pruning against it is sound.

    Two storage tiers compose:

    * a plain per-instance dict — deterministic sharing across the
      strategies of one :func:`~repro.core.search.find_optimal_config`
      call (and nothing else, so repeated searches stay reproducible);
    * optional ``multiprocessing.Value('d')`` slots — best-effort sharing
      across :class:`~repro.runtime.executor.SweepExecutor` workers.  The
      slots only ever tighten the pruning threshold, so results are
      unchanged; the *work counters* of a parallel sweep may legitimately
      differ from a serial one when a slot fires (tracked separately in
      ``SearchStatistics.shared_incumbent_prunes``).
    """

    def __init__(self, shared: Optional[Mapping[str, object]] = None):
        self._local: Dict[str, float] = {}
        self._shared = dict(shared) if shared else {}

    def get(self, keys: Iterable[str]) -> float:
        """Tightest published time over ``keys`` (``inf`` when none)."""
        best = math.inf
        for key in keys:
            best = min(best, self._local.get(key, math.inf))
            slot = self._shared.get(key)
            if slot is not None:
                with slot.get_lock():
                    best = min(best, slot.value)
        return best

    def get_local(self, keys: Iterable[str]) -> float:
        """Like :meth:`get` but ignoring the cross-process slots."""
        best = math.inf
        for key in keys:
            best = min(best, self._local.get(key, math.inf))
        return best

    def publish(self, key: str, value: float) -> None:
        """Record ``value`` under ``key`` if it improves the incumbent."""
        if value < self._local.get(key, math.inf):
            self._local[key] = value
        slot = self._shared.get(key)
        if slot is not None:
            with slot.get_lock():
                if value < slot.value:
                    slot.value = value


#: Cross-process slots installed by the SweepExecutor pool initializer.
_SHARED_SLOTS: Dict[str, object] = {}


def install_shared_slots(slots: Optional[Mapping[str, object]]) -> None:
    """Install (or clear) the process-wide cross-worker incumbent slots."""
    global _SHARED_SLOTS
    _SHARED_SLOTS = dict(slots) if slots else {}


def incumbent_board() -> IncumbentBoard:
    """Fresh board for one search call, bound to any installed slots."""
    return IncumbentBoard(_SHARED_SLOTS)


def incumbent_scope_keys(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    space: SearchSpace,
    options: ModelingOptions,
    strategies: Sequence[str],
) -> List[str]:
    """Scope keys (one per strategy) of a batch-mode training search.

    The key fingerprints every input that defines the feasible set and the
    objective, so two searches share a key only when their per-strategy
    optima are interchangeable.
    """
    base = canonical_fingerprint(
        {
            "model": to_jsonable(model),
            "system": to_jsonable(system),
            "n_gpus": n_gpus,
            "global_batch_size": global_batch_size,
            "space": to_jsonable(space),
            "options": to_jsonable(options),
        }
    )
    return [f"{base}|{strategy}" for strategy in strategies]
