"""The stacked collective pricer of ``batch_eval._price_group``.

Every collective of a candidate group — the non-overlapped TP comm ops and
the SUMMA panel broadcasts of the forward and backward pass — is one row of
a single ``(R, C)`` call of the §III-A closed form.  These tests pin that
program bit for bit (``==``) against the scalar oracle on stages built to
exercise each kind of row, and count the closed-form calls per group.

Stages that the enumerated strategies never produce (an overlapped op, an
``all_to_all`` on a ``…/ep`` group, a stage with every op overlapped) are
injected by wrapping ``_cached_stage_times`` in both the scalar and the
batch module, so that both paths price the same stage.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import pytest

from batch_enumeration import materialize_enumeration
from repro.core import batch_eval, execution
from repro.core.config_space import DEFAULT_SEARCH_SPACE
from repro.core.execution import DEFAULT_OPTIONS, evaluate_config
from repro.core.model import TransformerConfig
from repro.core.operations import CommOp
from repro.core.system import make_system

DENSE = TransformerConfig(name="tiny-dense", seq_len=1024, embed_dim=2048, num_heads=16, depth=16)
MOE = TransformerConfig(
    name="tiny-moe",
    seq_len=1024,
    embed_dim=2048,
    num_heads=16,
    depth=16,
    num_experts=8,
    moe_top_k=2,
)
B200_NVS8 = make_system("B200", 8)
A100_NVS4 = make_system("A100", 4)
N_GPUS = 16
GLOBAL_BATCH = 64
SPACE = replace(DEFAULT_SEARCH_SPACE, microbatch_sizes=(1, 2))
MOE_SPACE = replace(SPACE, expert_parallel=(2,))
CHECKPOINTING = replace(DEFAULT_OPTIONS, activation_checkpointing=True)


def _mixed(comms):
    """Ring collectives and a P2P on tp1, tp2 and the full tp group, one overlapped."""
    volume = comms[0].volume_bytes if comms else 1.0e6
    ops = [
        CommOp("ag1", "all_gather", volume, "tp1"),
        CommOp("rs2", "reduce_scatter", 0.5 * volume, "tp2"),
        CommOp("ar1", "all_reduce", 0.25 * volume, "tp1"),
        CommOp("hidden", "all_reduce", volume, "tp2", overlapped=True),
        CommOp("ar2", "all_reduce", 3.0 * volume, "tp2"),
        CommOp("ag", "all_gather", volume / 3.0, "tp"),
        CommOp("rs1", "reduce_scatter", 7.0 * volume, "tp1"),
        CommOp("p2p2", "p2p", 2.0 * volume, "tp2"),
    ]
    return tuple(ops)


def _mixed_stage(stage):
    return replace(stage, fwd_comms=_mixed(stage.fwd_comms), bwd_comms=_mixed(stage.bwd_comms)[::-1])


def _moe_stage(stage):
    """Dispatch/combine all_to_all on ``ep`` plus an expert-shard ``dp/ep`` one."""
    extra = (
        CommOp("a2a-ep", "all_to_all", 2.5e6, "ep"),
        CommOp("a2a-dp/ep", "all_to_all", 1.5e6, "dp/ep"),
    )
    return replace(stage, fwd_comms=stage.fwd_comms + extra, bwd_comms=extra + stage.bwd_comms)


def _all_overlapped_stage(stage):
    """Every comm op overlapped and no SUMMA records: zero stacked rows."""
    return replace(
        stage,
        fwd_comms=tuple(replace(c, overlapped=True) for c in stage.fwd_comms),
        bwd_comms=tuple(replace(c, overlapped=True) for c in stage.bwd_comms),
        fwd_summa=(),
        bwd_summa=(),
    )


@pytest.fixture
def stage_transform(monkeypatch):
    """Install a transform of every stage both pricers read."""

    def install(transform):
        real = execution._cached_stage_times

        def patched(*args, **kwargs):
            return transform(real(*args, **kwargs))

        monkeypatch.setattr(execution, "_cached_stage_times", patched)
        monkeypatch.setattr(batch_eval, "_cached_stage_times", patched)

    return install


def _assert_batch_equals_scalar(model, system, strategy, space, options):
    rows = materialize_enumeration(model, system, N_GPUS, GLOBAL_BATCH, strategy, space)
    assert rows, "vacuous scenario"
    priced = batch_eval.batch_candidate_breakdowns(
        model,
        system,
        [(row.config, row.assignment) for row in rows],
        global_batch_size=GLOBAL_BATCH,
        options=options,
    )
    for i, row in enumerate(rows):
        estimate = evaluate_config(
            model, system, row.config, row.assignment,
            global_batch_size=GLOBAL_BATCH, options=options,
        )
        scalar = estimate.breakdown
        assert priced.tp_comm[i] == scalar.tp_comm, (row.config, row.assignment)
        assert priced.compute[i] == scalar.compute
        assert priced.memory[i] == scalar.memory
        assert priced.pp_bubble[i] == scalar.pp_bubble
        assert priced.pp_comm[i] == scalar.pp_comm
        assert priced.dp_comm[i] == scalar.dp_comm
        assert priced.total[i] == estimate.total_time


def _stage_of(config, model, system, options):
    return batch_eval._cached_stage_times(
        config.strategy, model, system.gpu, config.microbatch_size,
        config.tensor_parallel_1, config.tensor_parallel_2, config.summa_panels,
        options.flash_attention, options.include_dropout, options.include_flop_latency,
        config.expert_parallel,
    )


OPTIONS = [
    pytest.param(DEFAULT_OPTIONS, id="defaults"),
    pytest.param(CHECKPOINTING, id="checkpointing"),
]
SYSTEMS = [pytest.param(B200_NVS8, id="b200-nvs8"), pytest.param(A100_NVS4, id="a100-nvs4")]


@pytest.mark.parametrize("options", OPTIONS)
@pytest.mark.parametrize("system", SYSTEMS)
class TestStackedRowsMatchScalar:
    def test_mixed_collectives_on_tp1_and_tp2(self, stage_transform, system, options):
        stage_transform(_mixed_stage)
        _assert_batch_equals_scalar(DENSE, system, "tp2d", SPACE, options)

    def test_moe_all_to_all_on_ep_and_expert_shard_groups(self, stage_transform, system, options):
        stage_transform(_moe_stage)
        _assert_batch_equals_scalar(MOE, system, "tp1d", MOE_SPACE, options)

    def test_every_comm_overlapped(self, stage_transform, system, options):
        stage_transform(_all_overlapped_stage)
        _assert_batch_equals_scalar(DENSE, system, "tp2d", SPACE, options)

    def test_no_summa_records(self, system, options):
        rows = materialize_enumeration(DENSE, system, N_GPUS, GLOBAL_BATCH, "tp2d", SPACE)
        stage = _stage_of(rows[0].config, DENSE, system, options)
        assert stage.fwd_summa == () and stage.bwd_summa == ()
        _assert_batch_equals_scalar(DENSE, system, "tp2d", SPACE, options)

    def test_six_and_twelve_summa_records(self, system, options):
        rows = materialize_enumeration(DENSE, system, N_GPUS, GLOBAL_BATCH, "summa", SPACE)
        stage = _stage_of(rows[0].config, DENSE, system, options)
        assert (len(stage.fwd_summa), len(stage.bwd_summa)) == (6, 12)
        assert len({row.config.summa_panels for row in rows}) > 1
        _assert_batch_equals_scalar(DENSE, system, "summa", SPACE, options)

    def test_summa_records_after_mixed_collectives(self, stage_transform, system, options):
        stage_transform(_mixed_stage)
        _assert_batch_equals_scalar(DENSE, system, "summa", SPACE, options)


@pytest.fixture
def closed_form_calls(monkeypatch) -> List[int]:
    """A list that grows by one entry per ``_collective_time_arr`` call."""
    real = batch_eval._collective_time_arr
    calls: List[int] = []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(batch_eval, "_collective_time_arr", spy)
    return calls


class TestClosedFormCallCount:
    """One stacked TP/SUMMA program plus one stacked DP program per group."""

    @staticmethod
    def _calls_per_group(calls, model, strategy, space) -> Dict[tuple, int]:
        rows = materialize_enumeration(model, B200_NVS8, N_GPUS, GLOBAL_BATCH, strategy, space)
        groups: Dict[tuple, list] = {}
        for row in rows:
            groups.setdefault(batch_eval._group_key(row.config), []).append(
                (row.config, row.assignment)
            )
        per_group = {}
        for key, candidates in groups.items():
            calls.clear()
            batch_eval._price_group(model, B200_NVS8, candidates, GLOBAL_BATCH, DEFAULT_OPTIONS)
            per_group[key] = len(calls)
        return per_group

    @pytest.mark.parametrize(
        "model,strategy,space",
        [
            pytest.param(DENSE, "tp1d", SPACE, id="dense-tp1d"),
            pytest.param(DENSE, "summa", SPACE, id="dense-summa"),
            pytest.param(MOE, "tp2d", MOE_SPACE, id="moe-tp2d"),
        ],
    )
    def test_fixed_calls_whatever_the_row_count(self, closed_form_calls, model, strategy, space):
        per_group = self._calls_per_group(closed_form_calls, model, strategy, space)
        assert per_group
        assert set(per_group.values()) == {2}

    def test_zero_stacked_rows_keep_the_call_count(self, closed_form_calls, stage_transform):
        stage_transform(_all_overlapped_stage)
        per_group = self._calls_per_group(closed_form_calls, DENSE, "tp2d", SPACE)
        assert set(per_group.values()) == {2}

    def test_serving_prefill_comm_is_one_program(self, closed_form_calls):
        rows = materialize_enumeration(DENSE, B200_NVS8, N_GPUS, GLOBAL_BATCH, "tp1d", SPACE)
        config = next(row.config for row in rows if row.config.tensor_parallel_1 > 1)
        assignments = [row.assignment for row in rows if row.config == config]
        batch_eval.batch_serving_prefill_comm(
            DENSE, B200_NVS8, config, assignments, prompt_tokens=512
        )
        assert len(closed_form_calls) == 1
