"""Cache hits serve the stored live result.

A :class:`~repro.runtime.cache.SearchCache` hit is a dictionary lookup that
returns the object :meth:`~repro.runtime.cache.SearchCache.put` stored; only
``save()`` converts entries to JSON, and an entry read from disk is decoded
once, on its first hit.  These tests pin what that must not change:

* every path to an answer — a fresh solve, a live hit, a hit on an entry
  reloaded from disk — renders the same reply bytes;
* serving hits never mutates the shared stored result;
* the file ``save()`` writes is the JSON of each result, whatever form the
  entry is held in, and corrupt disk entries still degrade to misses;
* the API fingerprints each task once per request;
* ``dataclass_from_jsonable`` resolves each class's type hints once.
"""

from __future__ import annotations

import collections
import json
import sys
import threading
import time
import typing

import pytest

from repro.core.model import TransformerConfig
from repro.core.objectives import DEFAULT_PARETO_OBJECTIVES
from repro.core.search import SearchResult
from repro.core.system import make_system
from repro.runtime import SearchCache, SearchTask, solve_search_task
from repro.runtime import cache as cache_module
from repro.serve_api import PlannerApp, schema
from repro.utils import serialization
from repro.utils.serialization import dataclass_from_jsonable, to_jsonable

TINY = TransformerConfig(name="tiny", seq_len=256, embed_dim=512, num_heads=8, depth=4)
B200 = make_system("B200", 8)

SEARCH = {"model": "gpt3-175b", "gpus": 128, "strategy": "tp1d", "top_k": 3}
SERVE = {"gpus": 8}
PARETO = {"model": "gpt3-175b", "gpu": "B200", "nvs": 4, "gpus": 128, "strategy": "tp1d"}


def _tiny_task(n_gpus=8, **overrides):
    kwargs = dict(model=TINY, system=B200, n_gpus=n_gpus, global_batch_size=16, top_k=2)
    kwargs.update(overrides)
    return SearchTask(**kwargs)


def _fake_result(task):
    return SearchResult(
        model_name=task.model.name,
        system_name=task.system.name,
        n_gpus=task.n_gpus,
        global_batch_size=task.global_batch_size,
        strategy=str(task.strategy),
        best=None,
    )


def _reply_bytes(body, source):
    """The HTTP handler's encoding of ``body``, with ``source`` checked and blanked."""
    assert body["source"] == source
    return json.dumps({**body, "source": None}, sort_keys=True).encode("utf-8")


def _stream_bytes(events, source):
    """Encoded ``frontier`` and ``result`` lines of a Pareto event stream."""
    lines = []
    for event in events:
        if event["event"] == "result":
            lines.append(_reply_bytes(event, source))
        elif event["event"] == "frontier":
            lines.append(json.dumps(event, sort_keys=True).encode("utf-8"))
    assert lines and lines[-1].startswith(b'{"event": "result"')
    return lines


# ----------------------------------------------------------------------
# Reply bytes: solved == live hit == disk hit
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "endpoint, payload",
    [("search", SEARCH), ("serve", SERVE), ("pareto", PARETO)],
    ids=["search-top-k", "serve", "pareto"],
)
def test_every_path_to_an_answer_gives_the_same_reply_bytes(tmp_path, endpoint, payload):
    path = tmp_path / "cache.json"
    app = PlannerApp(cache_path=path)
    handle = getattr(app, endpoint)
    solved = _reply_bytes(handle(payload), "solved")
    live = _reply_bytes(handle(payload), "cache")
    app.close()

    fresh = PlannerApp(cache_path=path)
    from_disk = _reply_bytes(getattr(fresh, endpoint)(payload), "cache")
    assert fresh.status()["engine_solves"] == 0
    fresh.close()
    assert solved == live == from_disk
    if endpoint == "search":
        assert len(json.loads(solved)["top_k"]) == 3


def test_pareto_stream_is_the_same_from_every_path(tmp_path):
    path = tmp_path / "cache.json"
    app = PlannerApp(cache_path=path)
    solved = _stream_bytes(app.pareto_events(PARETO), "solved")
    live = _stream_bytes(app.pareto_events(PARETO), "cache")
    app.close()

    fresh = PlannerApp(cache_path=path)
    from_disk = _stream_bytes(fresh.pareto_events(PARETO), "cache")
    fresh.close()
    assert solved == live == from_disk
    assert len(solved) > 2  # several frontier lines before the result


def test_serving_hits_never_mutates_the_stored_result():
    app = PlannerApp()
    app.pareto(PARETO)
    app.search(SEARCH)
    pareto_task = schema.parse_pareto_request(PARETO)
    search_task = schema.parse_search_request(SEARCH)
    stored = {task: app.cache.get(task) for task in (pareto_task, search_task)}
    before = {task: to_jsonable(result) for task, result in stored.items()}

    def unchanged():
        return all(
            app.cache.get(task) is result and to_jsonable(result) == before[task]
            for task, result in stored.items()
        )

    for _ in range(5):
        assert app.pareto(PARETO)["source"] == "cache"
        assert app.search(SEARCH)["source"] == "cache"
        assert unchanged()  # after every hit: shared, never copied or changed
    events = list(app.pareto_events(PARETO))
    assert events[-1]["event"] == "result" and "frontier" not in events[-1]
    assert unchanged()


# ----------------------------------------------------------------------
# SearchCache: live and on-disk entries side by side
# ----------------------------------------------------------------------
def test_save_writes_the_same_bytes_from_live_and_json_entries(tmp_path):
    tasks = [
        _tiny_task(8),
        _tiny_task(16, strategy="tp2d"),
        _tiny_task(8, top_k=0, objectives=DEFAULT_PARETO_OBJECTIVES),
    ]
    results = [solve_search_task(task) for task in tasks]

    live = SearchCache()
    for task, result in zip(tasks, results):
        live.put(task, result)
    live_path = live.save(tmp_path / "live.json")

    # Entries loaded from disk stay JSON until asked for: saving them
    # re-emits the JSON the file held, exactly as a JSON-only store would.
    as_json = SearchCache(live_path)
    json_path = as_json.save(tmp_path / "json.json")
    # Decode one entry (now live again) and save a third time.
    assert as_json.get(tasks[0]) == results[0]
    mixed_path = as_json.save(tmp_path / "mixed.json")

    written = live_path.read_bytes()
    assert json_path.read_bytes() == written
    assert mixed_path.read_bytes() == written
    entries = json.loads(written)["entries"]
    assert entries == {
        SearchCache.fingerprint(task): json.loads(json.dumps(to_jsonable(result)))
        for task, result in zip(tasks, results)
    }


def test_disk_entry_is_decoded_once(tmp_path, monkeypatch):
    task = _tiny_task()
    result = solve_search_task(task)
    path = tmp_path / "cache.json"
    writer = SearchCache(path)
    writer.put(task, result)
    writer.save()

    decodes = []

    def counting(cls, data):
        decodes.append(cls)
        return dataclass_from_jsonable(cls, data)

    monkeypatch.setattr(cache_module, "dataclass_from_jsonable", counting)
    cache = SearchCache(path)
    first = cache.get(task)
    second = cache.get(task)
    assert decodes == [SearchResult]
    assert first is second
    assert first == result
    assert cache.stats()["hits"] == 2


def test_concurrent_first_hits_decode_a_disk_entry_once(tmp_path, monkeypatch):
    """Threads racing to the first hit of a disk entry all share one decode."""
    task = _tiny_task()
    path = tmp_path / "cache.json"
    writer = SearchCache(path)
    writer.put(task, solve_search_task(task))
    writer.save()

    decodes = []

    def counting(cls, data):
        decodes.append(cls)
        return dataclass_from_jsonable(cls, data)

    monkeypatch.setattr(cache_module, "dataclass_from_jsonable", counting)
    cache = SearchCache(path)
    n_threads = 16
    start = threading.Barrier(n_threads)
    got = []

    def hit():
        start.wait(timeout=10)
        got.append(cache.get(task))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hit) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == n_threads and got[0] is not None
    assert all(result is got[0] for result in got)
    assert decodes == [SearchResult]
    assert cache.stats()["hits"] == n_threads


def test_corrupt_disk_entry_beside_live_entries_is_a_miss_and_not_saved(tmp_path):
    good, bad, live = _tiny_task(8), _tiny_task(16), _tiny_task(32)
    path = tmp_path / "cache.json"
    writer = SearchCache(path)
    writer.put(good, solve_search_task(good))
    writer.save()
    data = json.loads(path.read_text())
    bad_fp = SearchCache.fingerprint(bad)
    data["entries"][bad_fp] = {"best": {"config": "garbage"}, "statistics": []}
    path.write_text(json.dumps(data))

    cache = SearchCache(path)
    cache.put(live, solve_search_task(live))
    assert len(cache) == 3
    assert cache.get(bad) is None  # degrades to a miss ...
    assert bad not in cache  # ... and is evicted
    assert cache.stats()["misses"] == 1
    assert cache.get(good) is not None and cache.get(live) is not None

    cache.save()
    saved = json.loads(path.read_text())["entries"]
    assert set(saved) == {SearchCache.fingerprint(good), SearchCache.fingerprint(live)}


# ----------------------------------------------------------------------
# One fingerprint per task
# ----------------------------------------------------------------------
@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Per-thread count of ``SearchCache.fingerprint`` calls."""
    calls = collections.Counter()
    real = SearchCache.fingerprint

    def counting(task):
        calls[threading.current_thread().name] += 1
        return real(task)

    monkeypatch.setattr(SearchCache, "fingerprint", staticmethod(counting))
    return calls


def test_cached_request_fingerprints_once(fingerprint_calls):
    app = PlannerApp(solver=_fake_result)
    app.search({"gpus": 128})
    fingerprint_calls.clear()
    assert app.search({"gpus": 128})["source"] == "cache"
    assert sum(fingerprint_calls.values()) == 1


def test_missed_request_fingerprints_once(fingerprint_calls):
    app = PlannerApp(solver=_fake_result)
    assert app.search({"gpus": 128})["source"] == "solved"
    assert sum(fingerprint_calls.values()) == 1  # lookup, in-flight and put
    assert len(app.cache) == 1


def test_deduplicated_waiter_fingerprints_once(fingerprint_calls):
    release = threading.Event()

    def solver(task):
        assert release.wait(timeout=10)
        return _fake_result(task)

    app = PlannerApp(solver=solver)
    sources = {}

    def request(name):
        sources[name] = app.search({"gpus": 128})["source"]

    owner = threading.Thread(target=request, args=("owner",), name="owner")
    owner.start()
    assert _wait_until(lambda: app.status()["in_flight"] == 1)
    waiter = threading.Thread(target=request, args=("waiter",), name="waiter")
    waiter.start()
    assert _wait_until(lambda: app.status()["dedup_hits"] == 1)
    release.set()
    owner.join(timeout=10)
    waiter.join(timeout=10)
    assert sources == {"owner": "solved", "waiter": "dedup"}
    assert fingerprint_calls == {"owner": 1, "waiter": 1}


def _wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# Type hints: resolved once per class
# ----------------------------------------------------------------------
def test_type_hints_are_resolved_once_per_class(monkeypatch):
    result = solve_search_task(_tiny_task())
    data = to_jsonable(result)
    calls = collections.Counter()
    real = typing.get_type_hints

    def counting(cls, *args, **kwargs):
        calls[cls] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(serialization.typing, "get_type_hints", counting)
    serialization._type_hints.cache_clear()
    try:
        for _ in range(3):
            assert dataclass_from_jsonable(SearchResult, data) == result
    finally:
        serialization._type_hints.cache_clear()
    assert SearchResult in calls and len(calls) > 3  # nested classes too
    assert set(calls.values()) == {1}
