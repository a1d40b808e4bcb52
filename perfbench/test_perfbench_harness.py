"""Self-checks of the benchmark harness (``pytest perfbench``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import CONTINUED, Installer, Tracer, layer_totals, self_times  # noqa: E402


def _span(sid, name, start, end, parent=None, request=None, continued=False):
    return [sid, name, start, end, parent, request, continued]


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, "root", 0.0, 10.0),
        # Two overlapping children (e.g. spans of two threads): together
        # they cover [1, 6], not 3 + 4 = 7 seconds.
        _span(1, "child", 1.0, 4.0, parent=0),
        _span(2, "child", 2.0, 6.0, parent=0),
        # A child that runs past its parent's end only counts inside it.
        _span(3, "late", 9.0, 12.0, parent=0),
        # A grandchild is subtracted from its own parent, not from root.
        _span(4, "leaf", 2.5, 3.5, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 10.0 - 5.0 - 1.0, 1: 3.0, 2: 4.0 - 1.0, 3: 3.0, 4: 1.0}
    totals = layer_totals(spans)
    assert totals["child"] == {"calls": 2, "self_s": 6.0}
    assert layer_totals(spans, requests={None})["root"]["self_s"] == 4.0
    assert layer_totals(spans, requests={7}) == {}


def test_recursive_reentry_is_one_span():
    tracer = Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("depth", depth)
    assert traced(5) == 5
    assert [s[1] for s in tracer.spans] == ["depth"]


def test_generator_counts_one_call_and_every_item():
    tracer = Tracer()

    def numbers(n):
        yield from range(n)

    def count(counts, args, kwargs, item):
        counts["items"] += 1

    traced = tracer.wrap("numbers", numbers, count)
    assert list(traced(3)) == [0, 1, 2]
    assert tracer.counts["items"] == 3
    assert [s[CONTINUED] for s in tracer.spans] == [False, True, True, True]
    assert layer_totals(tracer.spans)["numbers"]["calls"] == 1


def _bindings():
    """Identity snapshot of every attribute the wrappers may replace."""
    import repro.runtime.cache
    import repro.serve_api.app

    snapshot = {}
    for module in layers._repro_modules():
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
    for cls in (repro.runtime.cache.SearchCache, repro.serve_api.app.PlannerApp):
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = value
    return snapshot


def test_uninstall_restores_the_original_objects():
    tracer = Tracer()
    installer = layers.install(tracer)  # imports every traced module first
    installer.uninstall()
    before = _bindings()
    installer = layers.install(tracer)
    try:
        # Wrapped at every lookup site: a module global bound by name, a
        # module attribute, a class attribute.
        for site in (("repro.core.search", "evaluate_config"),
                     ("repro.core.objectives", "estimate_config_memory"),
                     ("repro.serve_api.app", "solve_search_task"),
                     ("repro.core.batch_eval", "non_dominated_mask"),
                     ("SearchCache", "fingerprint")):
            now = _bindings()[site]
            assert now is not before[site], site
    finally:
        installer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_installer_restores_a_staticmethod():
    class Holder:
        @staticmethod
        def f():
            return 1

    original = Holder.__dict__["f"]
    installer = Installer()
    installer.patch(Holder, "f", staticmethod(lambda: 2))
    assert Holder.f() == 2
    installer.uninstall()
    assert Holder.__dict__["f"] is original


def test_api_mix_stream_depends_only_on_the_seed():
    first = workloads.api_stream(3)
    assert first == workloads.api_stream(3)
    assert first != workloads.api_stream(4)
    classes = [r.cls for r in first]
    assert classes.count("hit") >= 1100
    assert classes.count("cold") >= 100 and classes.count("warm") >= 100
    # bench_search's replay is sent in its order: the first request of each
    # structure cold, the rest warm.
    replay = [(r.cls, r.endpoint, r.payload) for r in first
              if r.cls != "hit" and (r.endpoint, r.payload) in workloads.REPLAY]
    assert [(e, p) for _, e, p in replay] == list(workloads.REPLAY)
    assert [c for c, _, _ in replay].count("cold") == 2
    # Every exact repeat refers to a request sent earlier in the stream.
    seen = set()
    for request in first:
        assert (request.key in seen) == (request.cls == "hit")
        seen.add(request.key)


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(range(100), 90) == 89
    assert run.percentile(range(99), 90) is None
    assert run.percentile(range(1000), 99) == 989
    assert run.percentile(range(19), 50) is None


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOAD_NAMES)
    assert set(layers.REQUIRED) == set(run.WORKLOADS)
