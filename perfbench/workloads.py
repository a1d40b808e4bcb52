"""The benchmark's workloads: inputs made from a seed, one timed pass, answers.

Every workload is a fixed request list built from ``--seed``; one *pass*
runs the whole list once.  The offline workloads call the library directly
and clear the model's memoization before each top-level call, as a fresh
``repro-perf`` invocation would; ``api-mix`` sends closed-loop HTTP
traffic from one client to an in-process server, one connection at a time.
Each pass returns what the worker needs for the metrics; answers are
checked after the timed region.

=============  ========================================================
workload       legacy scenario it covers (``scripts/perf_guard.py``,
               ``scripts/bench_search.py``)
=============  ========================================================
search-scalar  scalar gpt3-1t all-strategy search (perf_guard ``search``)
search-batch   batch gpt3-1t all-strategy search (perf_guard ``--eval-mode
               batch``) and the warm fig. 4a sweep (perf_guard / bench
               sweep: gpt3-1t tp1d NVS-64 4k-128k, batch, warm start)
pareto         the gpt3-1t all-strategy batch frontier (perf_guard
               ``pareto``), at 1024 instead of 4096 GPUs
api-mix        the 20-request replay (bench_search ``api_replay``): its
               requests, in its order, are part of the stream, the first
               of each structure ``cold`` and the rest ``warm``
=============  ========================================================
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core import execution, inference, search
from repro.core.config_space import parallel_configs
from repro.core.system import make_system
from repro.core.workloads import get_workload
from repro.runtime import executor
from repro.utils.serialization import to_jsonable

from calibration import Stopwatch

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: api-mix requests between two calibration checkpoints (the offline
#: workloads take one around every item; see calibration.py).
CALIBRATE_EVERY = 25

# ----------------------------------------------------------------------
# Offline pools (paper points; answers recorded in expected.json)
# ----------------------------------------------------------------------

def _search(workload, nvs, gpus, *, strategy="all", eval_mode="scalar", top_k=0, batch=4096):
    return {"kind": "search", "workload": workload, "gpu": "B200", "nvs": nvs, "gpus": gpus,
            "batch": batch, "strategy": strategy, "eval_mode": eval_mode, "top_k": top_k}


#: search-scalar: one LLM point with a top-5 leaderboard plus two ViT
#: points.  The seed picks one of two sets that cost the same to within a
#: few per cent (the NVS-64 LLM point takes about 15% longer than the NVS-8
#: one and is paired with the cheapest ViT point), so that it changes what
#: is searched but hardly how long it takes.
SCALAR_SETS = (
    (_search("gpt3-1t", 8, 1024, top_k=5), _search("vit", 64, 1024), _search("vit", 8, 4096)),
    (_search("gpt3-1t", 64, 1024, top_k=5), _search("vit", 8, 2048), _search("vit", 8, 4096)),
)

#: search-batch: two warm-started sweeps, three all-strategy points and
#: serving searches over arrival rates x objectives.
BATCH_FIXED = (
    {"kind": "sweep", "workload": "gpt3-1t", "gpu": "B200", "nvs": 64, "strategy": "tp1d",
     "gpus": [4096, 8192, 16384, 32768, 65536, 131072], "batch": 4096},
    {"kind": "sweep", "workload": "vit", "gpu": "B200", "nvs": 8, "strategy": "all",
     "gpus": [256, 512, 1024, 2048, 4096, 8192, 16384], "batch": 4096},
    _search("gpt3-1t", 8, 1024, eval_mode="batch"),
    _search("gpt3-1t", 8, 4096, eval_mode="batch"),
    _search("gpt3-1t", 8, 16384, eval_mode="batch"),
)
SERVE_WORKLOADS = ("llama70b-serve", "moe-mixtral-serve")
SERVE_OBJECTIVES = ("throughput", "ttft", "tpot")
SERVE_RATES = (5.0, 10.0, 20.0, 40.0)


def _serve(workload, objective, rate):
    return {"kind": "serve", "workload": workload, "gpu": "B200", "nvs": 8, "gpus": 64,
            "objective": objective, "arrival_rate": rate, "eval_mode": "batch"}


def _pareto(workload, gpus, strategy, eval_mode):
    return {"kind": "pareto", "workload": workload, "gpu": "B200", "nvs": 8, "gpus": gpus,
            "batch": 4096, "strategy": strategy, "eval_mode": eval_mode}


#: pareto: the two batch frontiers plus one small scalar frontier.
PARETO_FIXED = (_pareto("gpt3-1t", 1024, "all", "batch"), _pareto("vit", 1024, "all", "batch"))
PARETO_SMALL = (
    _pareto("vit", 256, "tp1d", "scalar"),
    _pareto("gpt3-175b", 256, "tp1d", "scalar"),
    _pareto("gpt3-1t", 512, "tp1d", "scalar"),
)


def offline_pool() -> List[dict]:
    """Every item an offline workload can pick, for recording answers."""
    serve = [_serve(w, o, r) for w in SERVE_WORKLOADS for o in SERVE_OBJECTIVES for r in SERVE_RATES]
    scalar = {item_key(item): item for items in SCALAR_SETS for item in items}
    return [*scalar.values(), *BATCH_FIXED, *serve, *PARETO_FIXED, *PARETO_SMALL]


def item_key(item: dict) -> str:
    return json.dumps(item, sort_keys=True)


def offline_items(workload: str, seed: int) -> List[dict]:
    """The request list of an offline workload for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search-scalar":
        items = list(rng.choice(SCALAR_SETS))
    elif workload == "search-batch":
        items = list(BATCH_FIXED) + [
            _serve(w, o, r)
            for w in SERVE_WORKLOADS
            for o in SERVE_OBJECTIVES
            for r in rng.sample(SERVE_RATES, 2)
        ]
    elif workload == "pareto":
        items = [*PARETO_FIXED, rng.choice(PARETO_SMALL)]
    else:
        raise KeyError(workload)
    rng.shuffle(items)
    return items


def resolve(item: dict) -> tuple:
    """The workload spec and system an offline item runs on."""
    return get_workload(item["workload"]), make_system(item["gpu"], item["nvs"])


def run_item(item: dict, spec, system):
    """Solve one offline item through the library's public entry points."""
    kind = item["kind"]
    if kind == "search":
        return search.find_optimal_config(
            spec.model, system, item["gpus"], item["batch"], strategy=item["strategy"],
            eval_mode=item["eval_mode"], top_k=item["top_k"],
        )
    if kind == "sweep":
        from repro.analysis import sweeps

        return sweeps.scaling_sweep(
            spec.model, system, strategy=item["strategy"], n_gpus_list=item["gpus"],
            global_batch_size=item["batch"], eval_mode="batch", jobs=1, warm_start=True,
        )
    if kind == "serve":
        return inference.find_serving_config(
            spec.model, system, item["gpus"],
            serving=replace(spec.serving, arrival_rate=item["arrival_rate"]),
            objective=item["objective"], eval_mode=item["eval_mode"],
        )
    if kind == "pareto":
        return search.find_pareto_configs(
            spec.model, system, item["gpus"], item["batch"], strategy=item["strategy"],
            eval_mode=item["eval_mode"],
        )
    raise KeyError(kind)


def _winner(estimate) -> list:
    return [estimate.config.describe(), list(estimate.assignment.as_tuple())]


def answer(item: dict, result) -> Any:
    """The comparable answer of an offline item (floats kept exact)."""
    kind = item["kind"]
    if kind == "search":
        return {
            "best": _winner(result.best) + [result.best.total_time],
            "top_k": [_winner(est) + [est.total_time] for est in result.top_k],
        }
    if kind == "sweep":
        return [[p.n_gpus] + _winner(p.result.best) + [p.result.best.total_time] for p in result.points]
    if kind == "serve":
        return {"best": _winner(result.best), "value": result.best_value}
    frontier = [_winner(p.estimate) + [p.metrics] for p in result.points]
    digest = hashlib.sha256(json.dumps(frontier, sort_keys=True).encode()).hexdigest()
    return {"points": len(frontier), "hash": digest}


def statistics_of(item: dict, result) -> List[Dict[str, Any]]:
    if item["kind"] == "sweep":
        return [to_jsonable(p.result.statistics) for p in result.points]
    return [to_jsonable(result.statistics)]


def _cache_counts() -> Tuple[int, int]:
    """(hits, lookups) summed over the model's memoization caches."""
    stats = execution.cache_stats().values()
    hits = sum(s["hits"] for s in stats)
    return hits, hits + sum(s["misses"] for s in stats)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    """One pass over the request list; ``check`` fills in the verdicts."""

    clock: Stopwatch
    attempted: int
    #: Offline: the library results; api-mix: ``(status, body)`` replies.
    outputs: List[Any]
    cache_hits: int = 0
    cache_lookups: int = 0
    engine_solves: int = 0
    #: api-mix: (class, latency seconds) of every request.
    latencies: List[Tuple[str, float]] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``SearchStatistics`` dicts of every fresh solve.
    stats: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.clock.seconds


class OfflineWorkload:
    """search-scalar, search-batch or pareto: library calls, one process."""

    def __init__(self, name: str, seed: int) -> None:
        self.items = offline_items(name, seed)
        self.resolved = [resolve(item) for item in self.items]
        if any(item["kind"] == "sweep" for item in self.items):
            import repro.analysis.sweeps  # noqa: F401 — imported in set-up, not in the first pass

    def open(self) -> None:
        """Nothing to start: the library is called in-process."""

    def close(self) -> None:
        """Nothing to stop."""

    def run_pass(self, tracer=None) -> PassResult:
        results = []
        hits = lookups = 0
        # Traced passes sample only at checkpoints, so that no span
        # contains the sampling signal handler.
        clock = Stopwatch(sample_during=tracer is None)
        clock.checkpoint()
        for index, (item, (spec, system)) in enumerate(zip(self.items, self.resolved)):
            execution.clear_caches()
            if tracer is not None:
                tracer.request_id = index
            with clock.stretch():
                try:
                    results.append(run_item(item, spec, system))
                except Exception as exc:  # noqa: BLE001 — counted as a failed request
                    results.append(exc)
            item_hits, item_lookups = _cache_counts()
            hits += item_hits
            lookups += item_lookups
            clock.checkpoint()
        return PassResult(clock=clock, attempted=len(self.items), outputs=results,
                          cache_hits=hits, cache_lookups=lookups)

    def check(self, result: PassResult, first: bool) -> None:
        """Compare every answer with the one recorded in expected.json."""
        expected = json.loads(EXPECTED_PATH.read_text())
        for item, output in zip(self.items, result.outputs):
            key = item_key(item)
            if isinstance(output, Exception):
                result.failed += 1
                result.problems.append(f"{key}: {type(output).__name__}: {output}")
                continue
            result.stats.extend(statistics_of(item, output))
            got = json.loads(json.dumps(answer(item, output)))
            if got != expected.get(key):
                result.failed += 1
                result.problems.append(f"{key}: answer {got} differs from the recorded {expected.get(key)}")
        result.outputs = []


# ----------------------------------------------------------------------
# api-mix: closed-loop HTTP traffic
# ----------------------------------------------------------------------

API_SEARCH_WORKLOADS = ("gpt3-175b", "gpt3-1t", "gpt3-1t-gqa", "vit", "moe-mixtral")
API_GPUS = ("A100", "H200", "B200")
API_ZERO_STAGES = (None, 1, 3)
API_SEARCH_POINTS = [(g, b) for g in (128, 256, 512) for b in (2048, 4096)]
API_SERVE_POINTS = [(g, r) for g in (8, 16) for r in (4.0, 8.0, 16.0, 32.0)]
_POINTS = {"search": API_SEARCH_POINTS, "serve": API_SERVE_POINTS}
#: Pareto structures use NVS-4 so that no search request shares them.
API_PARETO = (("gpt3-175b", 128), ("gpt3-175b", 512), ("vit", 128), ("gpt3-1t", 512))

#: bench_search's 20-request replay (``scripts/bench_search.py``), in its
#: order: batch gpt3-1t NVS-64 searches at 4k-131k GPUs and llama70b
#: serving.  The first request of each of its two structures is ``cold``,
#: the other 18 are ``warm``; no other request shares these structures.
REPLAY_SEARCH = {"workload": "gpt3-1t", "gpu": "B200", "nvs": 64, "eval_mode": "batch"}
REPLAY_SERVE = {"workload": "llama70b-serve", "gpu": "B200", "nvs": 8}
REPLAY = (
    [("search", {**REPLAY_SEARCH, "gpus": g, "global_batch": b})
     for g in (4096, 8192, 16384, 32768) for b in (4096, 2048)]
    + [("serve", {**REPLAY_SERVE, "gpus": g, "arrival_rate": r})
       for g in (64, 128) for r in (10.0, 20.0, 40.0)]
    + [("search", {**REPLAY_SEARCH, "gpus": g, "global_batch": b})
       for g in (65536, 131072) for b in (4096, 8192, 2048)]
)

#: Requests per class in one pass, besides the replay's.
N_COLD_SEARCH, N_COLD_SERVE = 78, 30
N_WARM = 112
N_HIT, N_PARETO_HIT = 1080, 60
N_EVALUATE = 8
#: Popularity skew of exact repeats (Zipf exponent over a random rank).
HIT_SKEW = 0.8


def _search_structures() -> List[dict]:
    out = []
    for workload in API_SEARCH_WORKLOADS:
        for gpu in API_GPUS:
            for nvs in (8, 64):
                for zero in API_ZERO_STAGES:
                    if (workload, gpu, nvs, zero) == ("gpt3-1t", "B200", 64, None):
                        continue  # the replay's structure (tp1d is the default strategy)
                    payload = {"workload": workload, "gpu": gpu, "nvs": nvs, "strategy": "tp1d"}
                    if zero is not None:
                        payload["zero_stage"] = zero
                    out.append(payload)
    return out


def _serve_structures() -> List[dict]:
    out = []
    for workload in ("llama70b-serve", "moe-mixtral-serve"):
        for gpu in API_GPUS:
            for objective in SERVE_OBJECTIVES:
                for prompt in (None, 1024):
                    if (workload, gpu, objective, prompt) == ("llama70b-serve", "B200", "throughput", None):
                        continue  # the replay's structure (throughput is the default objective)
                    payload = {"workload": workload, "gpu": gpu, "nvs": 8, "objective": objective}
                    if prompt is not None:
                        payload["prompt_tokens"] = prompt
                    out.append(payload)
    return out


def _evaluate_payloads(rng: random.Random) -> List[dict]:
    spec = get_workload("gpt3-175b")
    payloads = []
    for gpus in (128, 256):
        configs = list(parallel_configs(spec.model, gpus, 4096, "tp1d"))
        for config in rng.sample(configs, N_EVALUATE // 2):
            payloads.append({"workload": "gpt3-175b", "gpu": "B200", "nvs": 8,
                             "global_batch": 4096, "config": to_jsonable(config)})
    return payloads


@dataclass(frozen=True)
class ApiRequest:
    cls: str  # cold, warm, hit or evaluate
    endpoint: str
    payload: Dict[str, Any]

    @property
    def key(self) -> str:
        return self.endpoint + " " + json.dumps(self.payload, sort_keys=True)


def api_stream(seed: int) -> List[ApiRequest]:
    """The seeded request stream of one api-mix pass."""
    rng = random.Random(f"api-mix:{seed}")
    searches = rng.sample(_search_structures(), N_COLD_SEARCH)
    serves = rng.sample(_serve_structures(), N_COLD_SERVE)
    paretos = list(API_PARETO)
    rng.shuffle(paretos)
    cold_queue = [("search", s) for s in searches] + [("serve", s) for s in serves]
    rng.shuffle(cold_queue)
    # The pareto structures go first so pareto repeats have something to hit.
    cold_queue = [("pareto", {"workload": w, "gpu": "B200", "nvs": 4, "strategy": "tp1d", "gpus": g})
                  for w, g in paretos] + cold_queue
    tokens = ["warm"] * N_WARM + ["hit"] * N_HIT + ["pareto-hit"] * N_PARETO_HIT
    tokens += ["evaluate"] * N_EVALUATE + ["cold"] * (len(cold_queue) - 8) + ["replay"] * len(REPLAY)
    rng.shuffle(tokens)
    tokens = ["cold"] * 8 + tokens
    replay = list(REPLAY)
    replay_started = set()  # endpoints whose replay structure has been sent
    evaluates = _evaluate_payloads(rng)

    stream: List[ApiRequest] = []
    issued: List[ApiRequest] = []  # search/serve/pareto requests, for repeats
    weights: List[float] = []
    structures: List[Tuple[str, dict, set]] = []  # search/serve, with points used

    def issue(request: ApiRequest) -> None:
        stream.append(request)
        issued.append(request)
        weights.append(1.0 / (rng.randrange(1, 4 * N_HIT) ** HIT_SKEW))

    def point_payload(endpoint: str, structure: dict, point) -> dict:
        if endpoint == "serve":
            return {**structure, "gpus": point[0], "arrival_rate": point[1]}
        return {**structure, "gpus": point[0], "global_batch": point[1]}

    for token in tokens:
        if token == "cold":
            endpoint, structure = cold_queue.pop(0)
            if endpoint == "pareto":
                issue(ApiRequest("cold", endpoint, structure))
                continue
            point = rng.choice(_POINTS[endpoint])
            structures.append((endpoint, structure, {point}))
            issue(ApiRequest("cold", endpoint, point_payload(endpoint, structure, point)))
        elif token == "warm":
            endpoint, structure, used, point = rng.choice([
                (endpoint, structure, used, point)
                for endpoint, structure, used in structures
                for point in _POINTS[endpoint]
                if point not in used
            ])
            used.add(point)
            issue(ApiRequest("warm", endpoint, point_payload(endpoint, structure, point)))
        elif token == "hit":
            pool = [i for i, r in enumerate(issued) if r.endpoint != "pareto"]
            pick = rng.choices(pool, weights=[weights[i] for i in pool])[0]
            stream.append(replace(issued[pick], cls="hit"))
        elif token == "pareto-hit":
            pool = [i for i, r in enumerate(issued) if r.endpoint == "pareto"]
            stream.append(replace(issued[rng.choice(pool)], cls="hit"))
        elif token == "replay":
            endpoint, payload = replay.pop(0)
            issue(ApiRequest("warm" if endpoint in replay_started else "cold", endpoint, payload))
            replay_started.add(endpoint)
        else:
            stream.append(ApiRequest("evaluate", "evaluate", evaluates.pop()))
    return stream


def _serve_connections(server, stop: threading.Event) -> None:
    """Serve the client's connections one after another on this thread."""
    while not stop.is_set():
        request, address = server.get_request()
        try:
            server.finish_request(request, address)
        finally:
            server.shutdown_request(request)


def _jsonable(obj):
    return json.loads(json.dumps(to_jsonable(obj), sort_keys=True))


#: Work counters of a solve that depend on how tight the starting bound was
#: (warm hints), not on the answer; the program excludes them from equality.
_WORK_COUNTERS = ("candidates_evaluated", "pruned_configs")


def _summary(body: dict) -> dict:
    return {k: v for k, v in body["summary"].items() if k not in _WORK_COUNTERS}


class ApiMixWorkload:
    """api-mix: one client, one connection, one server thread."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._stream = None
        self._server = None

    @property
    def stream(self) -> List[ApiRequest]:
        """The request list, built on first use: it is the client's work,
        not the program's set-up."""
        if self._stream is None:
            self._stream = api_stream(self.seed)
        return self._stream

    @property
    def hit_requests(self) -> set:
        return {i for i, r in enumerate(self.stream) if r.cls == "hit"}

    def open(self) -> None:
        """Start a fresh app (empty cache) behind a fresh server."""
        from repro.serve_api import handlers
        from repro.serve_api.app import PlannerApp

        self.app = PlannerApp(jobs=1, warm_start=True)
        self._server = handlers.create_server("127.0.0.1", 0, app=self.app, quiet=True)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=_serve_connections, args=(self._server, self._stop), daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        if self._server is None:
            return
        self._stop.set()
        # Wake the server thread from accept() so that it sees the flag.
        socket.create_connection(self._server.server_address[:2], timeout=30).close()
        self._thread.join(timeout=30)
        self._server.server_close()
        self.app.close()
        self._server = None

    def _send(self, indices, bodies, replies, latencies, tracer) -> None:
        """Send the requests ``indices``, each on a connection of its own."""
        host, port = self._server.server_address[:2]
        for index in indices:
            request = self.stream[index]
            if tracer is not None:
                tracer.request_id = index
                span = tracer.begin("http")
                tracer.request_span = span[0]
            sent = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=120)
            conn.request("POST", "/v1/" + request.endpoint, bodies[index], _HEADERS)
            response = conn.getresponse()
            data = response.read()
            conn.close()
            latencies.append((request.cls, time.perf_counter() - sent))
            if tracer is not None:
                tracer.end(span)
                tracer.request_span = None
            replies.append((response.status, data))

    def run_pass(self, tracer=None) -> PassResult:
        bodies = [json.dumps(r.payload).encode() for r in self.stream]
        replies: List[Tuple[int, bytes]] = []
        latencies: List[Tuple[str, float]] = []
        execution.clear_caches()
        # A timer signal would pause the server thread inside requests, so
        # api-mix samples the machine's speed at checkpoints only.
        clock = Stopwatch()
        clock.checkpoint()
        for first in range(0, len(self.stream), CALIBRATE_EVERY):
            with clock.stretch():
                self._send(range(first, min(first + CALIBRATE_EVERY, len(self.stream))),
                           bodies, replies, latencies, tracer)
            clock.checkpoint()
        hits, lookups = _cache_counts()
        return PassResult(
            clock=clock, attempted=len(self.stream), outputs=replies, latencies=latencies,
            cache_hits=hits, cache_lookups=lookups,
            engine_solves=self.app.status()["engine_solves"],
        )

    def check(self, result: PassResult, first: bool) -> None:
        """Every reply is a 200 and every repeat equals its first reply.

        On the run's first pass, every first reply must also equal a cold,
        hint-free library solve of the same request.
        """
        replies: Dict[str, dict] = {}
        for request, (status, data) in zip(self.stream, result.outputs):
            if status != 200:
                result.failed += 1
                result.problems.append(f"{request.key}: HTTP {status}: {data[:200]!r}")
                continue
            body = json.loads(data)
            if request.key not in replies:
                replies[request.key] = body
                if request.endpoint != "evaluate" and body.get("source") == "solved":
                    result.stats.append(body["statistics"])
                continue
            reference = {k: v for k, v in replies[request.key].items() if k != "source"}
            if {k: v for k, v in body.items() if k != "source"} != reference:
                result.failed += 1
                result.problems.append(f"{request.key}: repeat differs from its first reply")
        result.outputs = []
        if not first:
            return
        execution.clear_caches()
        for key, body in replies.items():
            if not _equals_cold_solve(key, body):
                result.failed += 1
                result.problems.append(f"{key}: reply differs from a cold library solve")


_HEADERS = {"Content-Type": "application/json"}
_PARSERS = {"search": "parse_search_request", "serve": "parse_serve_request",
            "pareto": "parse_pareto_request"}


def _equals_cold_solve(key: str, body: dict) -> bool:
    """Does ``body`` answer request ``key`` as a cold, hint-free solve does?"""
    from repro.serve_api import schema

    endpoint, _, payload = key.partition(" ")
    payload = json.loads(payload)
    if endpoint == "evaluate":
        estimate = schema.run_evaluate(schema.parse_evaluate_request(payload))
        return _jsonable(schema.evaluate_body(estimate)) == body
    result = executor.solve_search_task(getattr(schema, _PARSERS[endpoint])(payload))
    ok = _summary({"summary": _jsonable(result.summary())}) == _summary(body)
    if endpoint == "pareto":
        ok &= _jsonable(schema.pareto_body(result, source="solved")["frontier"]) == body["frontier"]
    elif result.top_k:
        ok &= _jsonable([est.summary() for est in result.top_k]) == body.get("top_k")
    return ok


def make_workload(name: str, seed: int):
    if name == "api-mix":
        return ApiMixWorkload(seed)
    return OfflineWorkload(name, seed)


WORKLOAD_NAMES = ("search-scalar", "search-batch", "pareto", "api-mix")
