"""Unit tests of the ``repro.runtime`` substrate.

Covers the generic LRU (eviction order, byte bounding, statistics, the
registry and ``configure(cache_bytes=...)``), the deterministic chunk
planner, the executor modes, and :class:`RunLedger` recording/merging.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime as runtime
from repro.runtime import RunLedger, configure, get_executor, plan_chunks
from repro.runtime.cache import (
    LruCache,
    cache_stats,
    default_sizeof,
    register_cache,
    registered_caches,
)
from repro.runtime.chunking import chunk_count
from repro.runtime.executor import EXECUTOR_MODES


@pytest.fixture(autouse=True)
def _reset_runtime_config():
    """Restore the process-wide runtime config after each test."""
    yield
    configure(max_bytes=None, cache_bytes=None)


class TestLruCache:
    def test_hits_misses_and_values(self):
        cache = LruCache("t_basic", max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        assert cache.get("b") == 2
        assert (cache.hits, cache.misses) == (2, 1)
        assert len(cache) == 2

    def test_eviction_order_is_least_recently_used(self):
        cache = LruCache("t_order", max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        # Touch "a" so "b" becomes the LRU entry.
        assert cache.get("a") == "A"
        cache.put("d", "D")
        assert "b" not in cache
        assert all(key in cache for key in ("a", "c", "d"))
        assert cache.evictions == 1
        # Re-inserting an existing key refreshes recency, not occupancy.
        cache.put("c", "C2")
        cache.put("e", "E")
        assert "a" not in cache  # "a" was oldest after c's refresh
        assert cache.get("c") == "C2"

    def test_byte_bound_evicts_and_counts(self):
        cache = LruCache("t_bytes", max_bytes=100)
        cache.put("a", None, nbytes=40)
        cache.put("b", None, nbytes=40)
        assert cache.current_bytes == 80
        cache.put("c", None, nbytes=40)  # 120 > 100: "a" must go
        assert "a" not in cache
        assert cache.current_bytes == 80
        assert cache.evictions == 1

    def test_oversized_entry_rejected_not_flushing(self):
        cache = LruCache("t_oversize", max_bytes=100)
        cache.put("small", None, nbytes=60)
        cache.put("huge", None, nbytes=1000)
        assert "huge" not in cache
        assert "small" in cache  # the rest of the cache survived
        assert cache.evictions == 1

    def test_disable_enable_and_clear(self):
        cache = LruCache("t_toggle", max_entries=4)
        cache.put("a", 1)
        cache.disable()
        assert cache.get("a") is None  # disabled: no hit, no miss count
        cache.put("b", 2)  # disabled: not stored
        cache.enable()
        assert cache.get("a") == 1
        assert "b" not in cache
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)

    def test_set_bounds_applies_immediately(self):
        cache = LruCache("t_rebound")
        for index in range(10):
            cache.put(index, index)
        cache.set_bounds(max_entries=3)
        assert len(cache) == 3
        assert cache.evictions == 7
        # Remaining entries are the three most recent.
        assert all(index in cache for index in (7, 8, 9))

    def test_stats_snapshot(self):
        cache = LruCache("t_stats", max_entries=2, max_bytes=1000)
        cache.put("a", np.zeros(8))
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats.name == "t_stats"
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.entries == 1
        assert stats.current_bytes == 64
        assert stats.hit_rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LruCache("bad", max_entries=0)
        with pytest.raises(ValueError):
            LruCache("bad", max_bytes=0)
        cache = LruCache("t_validate")
        with pytest.raises(ValueError):
            cache.set_bounds(max_entries=-1)


class TestLruCacheThreadSafety:
    def test_concurrent_hammer_loses_no_updates_or_counts(self):
        """Many threads hammering one cache: no lost updates, no stat races.

        Each thread owns a disjoint keyspace, so every read-back must see
        the thread's own last write; the shared stat counters must sum
        exactly (every ``get`` is a hit or a miss, puts never vanish).
        """
        import threading

        cache = LruCache("t_hammer")  # unbounded: no evictions to reason about
        n_threads, n_rounds = 8, 300
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            try:
                barrier.wait()
                for round_ in range(n_rounds):
                    key = (tid, round_ % 7)
                    cache.put(key, (tid, round_))
                    got = cache.get(key)
                    if got != (tid, round_):
                        errors.append((tid, round_, got))
                    cache.get((tid, "absent", round_))  # guaranteed miss
                    cache.stats()  # snapshot while others mutate
                    if round_ % 50 == 0:
                        cache.discard((tid, 0))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        total_gets = n_threads * n_rounds * 2
        assert cache.hits + cache.misses == total_gets
        assert cache.hits == n_threads * n_rounds
        assert cache.evictions == 0
        # Byte accounting stayed consistent with the surviving entries.
        stats = cache.stats()
        assert stats.entries == len(cache)

    def test_concurrent_registry_registration(self):
        import threading

        errors = []
        barrier = threading.Barrier(8)

        def worker(tid):
            try:
                barrier.wait()
                for index in range(50):
                    register_cache(LruCache(f"t_reg_race_{tid}_{index}"))
                    registered_caches()
                    cache_stats()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        names = [name for name in registered_caches()
                 if name.startswith("t_reg_race_")]
        assert len(names) == 8 * 50


class TestSizeof:
    def test_arrays_and_containers(self):
        assert default_sizeof(np.zeros(100)) == 800
        nested = {"a": np.zeros(10), "b": [np.zeros(5), "xyz"]}
        size = default_sizeof(nested)
        assert size >= 80 + 40 + 3

    def test_cycles_do_not_hang(self):
        loop = []
        loop.append(loop)
        assert default_sizeof(loop) >= 0


class TestRegistryAndConfigure:
    def test_registered_cache_reports_stats(self):
        cache = register_cache(LruCache("t_registered", max_entries=8))
        cache.put("k", 1)
        cache.get("k")
        stats = cache_stats()
        assert stats["t_registered"].hits == 1
        assert "t_registered" in registered_caches()

    def test_configure_cache_bytes_rebounds_registered_caches(self):
        cache = runtime.register_runtime_cache(
            LruCache("t_configured", max_bytes=1000))
        for index in range(6):
            cache.put(index, None, nbytes=100)
        configure(cache_bytes=250)
        assert cache.max_bytes == 250
        assert cache.current_bytes <= 250
        assert cache.evictions >= 3
        # None restores the registered default bound.
        configure(cache_bytes=None)
        assert cache.max_bytes == 1000

    def test_configure_applies_to_global_simulation_cache(self):
        from repro.spice.testbench import get_simulation_cache

        sim = get_simulation_cache()
        original = sim.max_bytes
        configure(cache_bytes=2**20)
        assert get_simulation_cache().max_bytes == 2**20
        configure(cache_bytes=None)
        assert get_simulation_cache().max_bytes == original
        assert cache_stats()["simulation"].name == "simulation"

    def test_configure_max_bytes_round_trip(self):
        configure(max_bytes=12345)
        assert runtime.runtime_config().max_bytes == 12345
        assert runtime.resolve_max_bytes(None) == 12345
        assert runtime.resolve_max_bytes(7) == 7
        configure(max_bytes=None)
        assert runtime.resolve_max_bytes(None) is None

    def test_configure_validation(self):
        with pytest.raises(ValueError):
            configure(max_bytes=0)
        with pytest.raises(ValueError):
            configure(cache_bytes=-5)


class TestChunkPlanning:
    def test_no_budget_is_one_chunk(self):
        assert plan_chunks(10) == [slice(0, 10)]
        assert plan_chunks(10, item_bytes=100, max_bytes=None) == [slice(0, 10)]

    def test_budget_splits_balanced_and_covering(self):
        chunks = plan_chunks(10, item_bytes=100, max_bytes=300)
        sizes = [c.stop - c.start for c in chunks]
        assert sum(sizes) == 10
        assert max(sizes) <= 3
        assert max(sizes) - min(sizes) <= 1
        assert chunks[0].start == 0 and chunks[-1].stop == 10
        for left, right in zip(chunks, chunks[1:]):
            assert left.stop == right.start

    def test_budget_smaller_than_item_still_schedules(self):
        chunks = plan_chunks(4, item_bytes=1000, max_bytes=1)
        assert [c.stop - c.start for c in chunks] == [1, 1, 1, 1]

    def test_deterministic(self):
        assert (plan_chunks(1000, 64, 4096)
                == plan_chunks(1000, 64, 4096))

    def test_empty_and_validation(self):
        assert plan_chunks(0, 8, 100) == []
        assert chunk_count(0, 8, 100) == 0
        with pytest.raises(ValueError):
            chunk_count(-1, 8, 100)
        with pytest.raises(ValueError):
            chunk_count(1, -8, 100)

    def test_explicit_chunk_count(self):
        chunks = plan_chunks(7, n_chunks=3)
        assert [c.stop - c.start for c in chunks] == [3, 2, 2]
        # More chunks than items collapses to one item per chunk.
        assert len(plan_chunks(2, n_chunks=5)) == 2


def _square(value):
    return value * value


def _square_with_ledger(value):
    ledger = RunLedger()
    ledger.add_metric("jobs", 1)
    ledger.add_simulations(2, label="t_exec")
    return value * value, ledger


class TestExecutors:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_map_preserves_order(self, mode):
        executor = get_executor(mode, max_workers=2)
        assert executor.map(_square, range(10)) == [v * v for v in range(10)]
        assert executor.map(_square, []) == []

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_map_accounted_merges_in_payload_order(self, mode):
        executor = get_executor(mode, max_workers=2)
        ledger = RunLedger()
        results = executor.map_accounted(_square_with_ledger, range(5),
                                         ledger=ledger)
        assert results == [v * v for v in range(5)]
        assert ledger.metrics()["jobs"] == 5
        assert ledger.simulations_by_label() == {"t_exec": 10}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            get_executor("threads")
        with pytest.raises(ValueError):
            get_executor("chunked")


class TestRunLedger:
    def test_stage_timing_and_merge(self):
        a = RunLedger()
        with a.stage("simulate"):
            pass
        a.add_simulations(5, label="x")
        a.add_metric("solver_iterations", 3)
        a.add_cache_activity("simulation", hits=2, misses=1)

        b = RunLedger()
        with b.stage("simulate"):
            pass
        b.add_simulations(7, label="x")
        b.add_simulations(1, label="y")
        b.add_metric("solver_iterations", 4)
        b.add_cache_activity("simulation", evictions=6)

        a.merge(b)
        assert a.simulations_total == 13
        assert a.simulations_by_label() == {"x": 12, "y": 1}
        assert a.stages()["simulate"]["calls"] == 2
        assert a.stage_seconds("simulate") >= 0.0
        assert a.metrics() == {"solver_iterations": 7}
        assert a.cache_activity()["simulation"] == {
            "hits": 2, "misses": 1, "evictions": 6}

    def test_caches_context_records_deltas(self):
        cache = register_cache(LruCache("t_ledger_cache", max_entries=4))
        cache.put("k", 1)
        ledger = RunLedger()
        with ledger.caches(names=["t_ledger_cache"]):
            cache.get("k")
            cache.get("absent")
        activity = ledger.cache_activity()["t_ledger_cache"]
        assert activity == {"hits": 1, "misses": 1, "evictions": 0}

    def test_as_dict_round_trips_to_json(self):
        import json

        ledger = RunLedger()
        with ledger.stage("s"):
            pass
        ledger.add_simulations(1)
        payload = json.loads(json.dumps(ledger.as_dict()))
        assert payload["simulations_total"] == 1
        assert "s" in payload["stages"]

    def test_validation(self):
        with pytest.raises(ValueError):
            RunLedger().add_simulations(-1)

    def test_gauges_keep_maximum_and_max_merge(self):
        a = RunLedger()
        a.set_gauge("service_queue_peak", 3)
        a.set_gauge("service_queue_peak", 2)  # lower value is ignored
        assert a.gauges() == {"service_queue_peak": 3.0}

        b = RunLedger()
        b.set_gauge("service_queue_peak", 7)
        b.set_gauge("batch_peak", 1)
        a.merge(b)
        assert a.gauges() == {"service_queue_peak": 7.0, "batch_peak": 1.0}
        assert a.as_dict()["gauges"]["service_queue_peak"] == 7.0


class TestCacheTokenPickling:
    """Cache-key tokens are process-local and must not survive pickling.

    A pickled object landing in another process would otherwise carry a
    token that process's own counter independently hands to an unrelated
    instance, silently cross-serving cached compile / Ieff entries.
    """

    def test_netlist_token_reissued_on_unpickle(self):
        import pickle

        from repro.sta import c17_benchmark

        netlist = c17_benchmark()
        compiled = netlist.compile()
        loaded = pickle.loads(pickle.dumps(netlist))
        assert loaded._token != netlist._token
        # The reissued token keys its own compilation, not the original's.
        assert loaded.compile() is not compiled
        assert [g.name for g in loaded.gates] == [g.name for g in netlist.gates]

    def test_ieff_token_dropped_on_pickle(self, tech28, inv_cell):
        import pickle

        from repro.cells import reduce_cell_cached
        from repro.characterization.input_space import InputCondition
        from repro.core.statistical_flow import StatisticalCharacterization

        variation = tech28.variation.sample(4, rng=2)
        inverter = reduce_cell_cached(inv_cell, tech28, variation=variation)
        characterization = StatisticalCharacterization(
            cell_name="INV_X1", arc_name="arc",
            delay_parameters=np.full((4, 4), 0.3),
            slew_parameters=np.full((4, 4), 0.2),
            inverter=inverter,
            fitting_conditions=(InputCondition(5e-12, 2e-15, 0.9),),
            simulation_runs=0)
        row = characterization._ieff_row(0.9)  # assigns a token
        assert "_ieff_token" in characterization.__dict__
        loaded = pickle.loads(pickle.dumps(characterization))
        assert "_ieff_token" not in loaded.__dict__
        # The clone reissues its own token and computes identical rows.
        np.testing.assert_array_equal(loaded._ieff_row(0.9), row)
        assert loaded.__dict__["_ieff_token"] != characterization.__dict__[
            "_ieff_token"]


class TestRunLedgerFormatting:
    def test_format_ledger_renders_all_sections(self):
        from repro.analysis import format_ledger

        ledger = RunLedger()
        with ledger.stage("simulate"):
            pass
        ledger.add_simulations(4, label="arc")
        ledger.add_metric("solver_iterations", 9)
        ledger.add_cache_activity("simulation", hits=3)
        text = format_ledger(ledger, title="Test ledger")
        for token in ("Test ledger", "simulate", "TOTAL", "solver_iterations",
                      "simulation", "evictions"):
            assert token in text
        assert "(empty ledger)" in format_ledger(RunLedger())
