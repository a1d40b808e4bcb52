"""Which of the planner's functions the traced run wraps, and what it reports.

Layers are named after their modules.  Every function below is wrapped at
each place the program looks it up (see :func:`install`); the per-layer
metrics are derived from the resulting spans and counts by
:func:`per_layer_metrics`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Dict, List, Optional, Sequence

from tracing import Installer, Tracer, layer_totals, lookup_sites

# ----------------------------------------------------------------------
# Observers: work counts taken from a wrapped call's arguments and result
# ----------------------------------------------------------------------

def _count_items(counts, args, kwargs, item) -> None:
    counts["config_space.parallel_configs.items"] += 1


def _count_feasible(counts, args, kwargs, estimate) -> None:
    counts["execution.evaluate_config.feasible"] += bool(estimate.feasible)


def _count_rows(counts, args, kwargs, times) -> None:
    counts["batch_eval.batch_candidate_times.rows"] += len(times)


def _count_mask(counts, args, kwargs, mask) -> None:
    counts["batch_eval.non_dominated_mask.rows"] += len(mask)
    counts["batch_eval.non_dominated_mask.kept"] += int(mask.sum())


def _count_hits(counts, args, kwargs, result) -> None:
    counts["cache.get.hits"] += result is not None


def _count_nonempty(counts, args, kwargs, hints) -> None:
    counts["cache.warm_hints.nonempty"] += bool(hints)


#: (span name, defining module, function, observer): module-level
#: functions, wrapped wherever a ``repro`` module binds them.
FUNCTIONS = (
    ("config_space.parallel_configs", "repro.core.config_space", "parallel_configs", _count_items),
    ("config_space.gpu_assignments", "repro.core.config_space", "gpu_assignments", None),
    ("execution.estimate_config_memory", "repro.core.execution", "estimate_config_memory", None),
    ("execution.config_time_lower_bound", "repro.core.execution", "config_time_lower_bound", None),
    ("execution.evaluate_config", "repro.core.execution", "evaluate_config", _count_feasible),
    ("batch_eval.batch_candidate_times", "repro.core.batch_eval", "batch_candidate_times", _count_rows),
    ("batch_eval.non_dominated_mask", "repro.core.batch_eval", "non_dominated_mask", _count_mask),
    ("search.find_optimal_config", "repro.core.search", "find_optimal_config", None),
    ("search.find_pareto_configs", "repro.core.search", "find_pareto_configs", None),
    ("inference.find_serving_config", "repro.core.inference", "find_serving_config", None),
    ("executor.solve_search_task", "repro.runtime.executor", "solve_search_task", None),
    ("serialization.dataclass_from_jsonable", "repro.utils.serialization", "dataclass_from_jsonable", None),
    ("serialization.to_jsonable", "repro.utils.serialization", "to_jsonable", None),
    ("serialization.canonical_fingerprint", "repro.utils.serialization", "canonical_fingerprint", None),
    *(
        ("schema.parse", "repro.serve_api.schema", f"parse_{kind}_request", None)
        for kind in ("search", "serve", "pareto", "sweep", "evaluate")
    ),
    *(
        ("schema.body", "repro.serve_api.schema", f"{kind}_body", None)
        for kind in ("result", "pareto", "pareto_point", "evaluate", "sweep")
    ),
)

#: (span name, module, class, method, observer): class attributes.
METHODS = (
    ("cache.fingerprint", "repro.runtime.cache", "SearchCache", "fingerprint", None),
    ("cache.get", "repro.runtime.cache", "SearchCache", "get", _count_hits),
    ("cache.put", "repro.runtime.cache", "SearchCache", "put", None),
    ("cache.warm_hints", "repro.runtime.cache", "SearchCache", "warm_hints", _count_nonempty),
    *(
        ("app", "repro.serve_api.app", "PlannerApp", endpoint, None)
        for endpoint in ("search", "serve", "pareto", "sweep", "evaluate")
    ),
)


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> Installer:
    """Wrap every layer function at each of its lookup sites."""
    installer = Installer()
    modules = {name: importlib.import_module(name) for _, name, *_ in FUNCTIONS + METHODS}
    repro_modules = _repro_modules()
    for span_name, module_name, attr, observe in FUNCTIONS:
        original = getattr(modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, observe)
        for owner, site in lookup_sites(repro_modules, original):
            installer.patch(owner, site, wrapper)
    for span_name, module_name, class_name, attr, observe in METHODS:
        cls = getattr(modules[module_name], class_name)
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            wrapper = staticmethod(tracer.wrap(span_name, original.__func__, observe))
        else:
            wrapper = tracer.wrap(span_name, original, observe)
        installer.patch(cls, attr, wrapper)
    return installer


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("config_space.parallel_configs.calls", "count"),
    ("config_space.parallel_configs.items", "count"),
    ("config_space.parallel_configs.self_s", "s"),
    ("execution.estimate_config_memory.calls", "count"),
    ("execution.estimate_config_memory.self_s", "s"),
    ("execution.config_time_lower_bound.calls", "count"),
    ("execution.config_time_lower_bound.self_s", "s"),
    ("config_space.gpu_assignments.self_s", "s"),
    ("execution.evaluate_config.calls", "count"),
    ("execution.evaluate_config.self_s", "s"),
    ("execution.evaluate_config.feasible_share", "share"),
    ("execution.cache_hit_share", "share"),
    ("batch_eval.batch_candidate_times.calls", "count"),
    ("batch_eval.batch_candidate_times.rows", "count"),
    ("batch_eval.batch_candidate_times.self_s", "s"),
    ("batch_eval.non_dominated_mask.calls", "count"),
    ("batch_eval.non_dominated_mask.rows", "count"),
    ("batch_eval.non_dominated_mask.kept_share", "share"),
    ("batch_eval.non_dominated_mask.self_s", "s"),
    ("search.find_pareto_configs.self_s", "s"),
    ("search.find_optimal_config.self_s", "s"),
    ("inference.find_serving_config.self_s", "s"),
    ("search.parallel_configs", "count"),
    ("search.candidates_evaluated", "count"),
    ("search.pruned_share", "share"),
    ("search.memory_reject_share", "share"),
    ("search.warm_start_hits", "count"),
    ("executor.solve_search_task.calls", "count"),
    ("executor.solve_search_task.self_s", "s"),
    ("cache.fingerprint.calls", "count"),
    ("cache.fingerprint.self_s", "s"),
    ("cache.get.calls", "count"),
    ("cache.get.hit_share", "share"),
    ("cache.get.self_s", "s"),
    ("cache.put.self_s", "s"),
    ("cache.warm_hints.self_s", "s"),
    ("cache.warm_hints.nonempty_share", "share"),
    ("serialization.dataclass_from_jsonable.calls", "count"),
    ("serialization.dataclass_from_jsonable.self_s", "s"),
    ("serialization.to_jsonable.self_s", "s"),
    ("serialization.canonical_fingerprint.self_s", "s"),
    ("schema.parse.self_s", "s"),
    ("schema.body.self_s", "s"),
    ("app.self_s", "s"),
    ("app.engine_solves", "count"),
    ("http.self_s", "s"),
    ("trace.overhead_share", "share"),
)

#: Layers that must record calls on each workload.  Zero calls there means
#: a wrapper sits on the wrong lookup site, so the traced run fails.
REQUIRED = {
    "search-scalar": (
        "config_space.parallel_configs", "execution.estimate_config_memory",
        "execution.config_time_lower_bound", "config_space.gpu_assignments",
        "execution.evaluate_config", "search.find_optimal_config",
    ),
    "search-batch": (
        "config_space.parallel_configs", "execution.estimate_config_memory",
        "execution.config_time_lower_bound", "config_space.gpu_assignments",
        "execution.evaluate_config", "batch_eval.batch_candidate_times",
        "search.find_optimal_config", "inference.find_serving_config",
        "executor.solve_search_task",
    ),
    "pareto": (
        "config_space.parallel_configs", "execution.estimate_config_memory",
        "execution.config_time_lower_bound", "config_space.gpu_assignments",
        "execution.evaluate_config", "batch_eval.batch_candidate_times",
        "batch_eval.non_dominated_mask", "search.find_pareto_configs",
    ),
    "api-mix": (
        "config_space.parallel_configs", "execution.estimate_config_memory",
        "execution.evaluate_config", "batch_eval.batch_candidate_times",
        "search.find_optimal_config", "search.find_pareto_configs",
        "inference.find_serving_config",
        "executor.solve_search_task", "cache.fingerprint", "cache.get", "cache.put",
        "cache.warm_hints", "serialization.dataclass_from_jsonable",
        "serialization.to_jsonable", "serialization.canonical_fingerprint",
        "schema.parse", "schema.body", "app", "http",
    ),
}

#: Pass 1 of a search: enumeration, memory pre-filter and lower bound.
PASS_ONE = (
    "config_space.parallel_configs",
    "execution.estimate_config_memory",
    "execution.config_time_lower_bound",
)


def _share(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def search_statistics(stats: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The ``search.*`` metrics summed over ``SearchStatistics`` dicts."""
    total = {
        key: sum(s.get(key, 0) for s in stats)
        for key in ("parallel_configs", "candidates_evaluated", "pruned_configs",
                    "infeasible_memory", "warm_start_hits")
    }
    return {
        "search.parallel_configs": total["parallel_configs"],
        "search.candidates_evaluated": total["candidates_evaluated"],
        "search.pruned_share": _share(total["pruned_configs"], total["parallel_configs"]),
        "search.memory_reject_share": _share(total["infeasible_memory"], total["parallel_configs"]),
        "search.warm_start_hits": total["warm_start_hits"],
    }


def per_layer_metrics(
    spans: Sequence[list],
    counts: Dict[str, float],
    *,
    stats: Sequence[Dict[str, Any]],
    cache_hits: int,
    cache_lookups: int,
    engine_solves: int,
    overhead_share: float,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced pass."""
    totals = layer_totals(spans)

    def calls(layer: str) -> int:
        return totals.get(layer, {}).get("calls", 0)

    out: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls(layer)
        elif field == "self_s":
            out[name] = totals.get(layer, {}).get("self_s", 0.0)
    out["config_space.parallel_configs.items"] = counts.get("config_space.parallel_configs.items", 0)
    out["execution.evaluate_config.feasible_share"] = _share(
        counts.get("execution.evaluate_config.feasible", 0), calls("execution.evaluate_config")
    )
    out["execution.cache_hit_share"] = _share(cache_hits, cache_lookups)
    out["batch_eval.batch_candidate_times.rows"] = counts.get("batch_eval.batch_candidate_times.rows", 0)
    out["batch_eval.non_dominated_mask.rows"] = counts.get("batch_eval.non_dominated_mask.rows", 0)
    out["batch_eval.non_dominated_mask.kept_share"] = _share(
        counts.get("batch_eval.non_dominated_mask.kept", 0),
        counts.get("batch_eval.non_dominated_mask.rows", 0),
    )
    out["cache.get.hit_share"] = _share(counts.get("cache.get.hits", 0), calls("cache.get"))
    out["cache.warm_hints.nonempty_share"] = _share(
        counts.get("cache.warm_hints.nonempty", 0), calls("cache.warm_hints")
    )
    out.update(search_statistics(stats))
    out["app.engine_solves"] = engine_solves
    out["trace.overhead_share"] = overhead_share
    return out


def missing_layers(workload: str, spans: Sequence[list]) -> List[str]:
    """Required layers of ``workload`` that recorded no call."""
    totals = layer_totals(spans)
    return [layer for layer in REQUIRED[workload] if not totals.get(layer, {}).get("calls")]


def predictions(workload: str, spans: Sequence[list], hit_requests: Optional[set]) -> List[str]:
    """The per-layer predictions for ``workload``, each confirmed or not met."""
    totals = layer_totals(spans)

    def self_s(layer: str, table=totals) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def largest(table) -> tuple:
        return max(((v["self_s"], k) for k, v in table.items()), default=(0.0, "none"))

    def verdict(ok: bool, claim: str, detail: str) -> str:
        return f"prediction {'confirmed' if ok else 'NOT MET'}: {claim} ({detail})"

    lines = []
    if workload == "search-scalar":
        top_s, top = largest(totals)
        lines.append(verdict(
            top == "execution.evaluate_config",
            "execution.evaluate_config has the largest self time",
            f"largest is {top} at {top_s:.3f} s; evaluate_config {self_s('execution.evaluate_config'):.3f} s",
        ))
        quiet = [k for k in totals if k.split(".")[0] in ("batch_eval", "cache", "serialization", "http")]
        lines.append(verdict(
            not quiet,
            "batch_eval, cache, serialization and http record zero calls",
            "layers with calls: " + (", ".join(sorted(quiet)) or "none"),
        ))
    elif workload == "search-batch":
        pass_one = sum(self_s(layer) for layer in PASS_ONE)
        pricer = self_s("batch_eval.batch_candidate_times")
        lines.append(verdict(
            pass_one > pricer,
            "pass 1 self time exceeds batch_eval.batch_candidate_times",
            f"pass 1 {pass_one:.3f} s vs batch pricer {pricer:.3f} s",
        ))
    elif workload == "pareto":
        top_s, top = largest(totals)
        lines.append(verdict(
            top == "batch_eval.non_dominated_mask",
            "batch_eval.non_dominated_mask has the largest self time",
            f"largest is {top} at {top_s:.3f} s; mask {self_s('batch_eval.non_dominated_mask'):.3f} s",
        ))
    elif workload == "api-mix":
        hits = layer_totals(spans, hit_requests or set())
        top_s, top = largest(hits)
        lines.append(verdict(
            top == "serialization.dataclass_from_jsonable",
            "serialization.dataclass_from_jsonable has the largest self time inside hits",
            f"largest is {top} at {top_s:.3f} s; dataclass_from_jsonable "
            f"{self_s('serialization.dataclass_from_jsonable', hits):.3f} s over {len(hit_requests or ())} hits",
        ))
    return lines
