"""Durable store tests: crash-safe commits, quarantine, and the cache tier.

PR 8's tentpole contract, exercised bottom-up: the canonical key digests
are stable across processes and ``PYTHONHASHSEED`` values (the property
that makes on-disk keys valid at all), :class:`DiskStore` survives
truncation, bit-rot, full disks and stale locks by quarantining or
degrading -- never by raising -- and the optional write-through tier under
:class:`LruCache` warm-starts a cleared cache from disk without disturbing
the memory-tier counters the accounting tests pin.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.runtime as runtime
from repro.runtime import persist
from repro.runtime.accounting import RunLedger
from repro.runtime.cache import LruCache, _REGISTRY
from repro.runtime.faultinject import FaultSpec, inject
from repro.runtime.persist import DiskStore, stable_key_digest


# ---------------------------------------------------------------------------
# Canonical key digests
# ---------------------------------------------------------------------------
class TestStableKeyDigest:
    def test_deterministic_and_type_tagged(self):
        key = ("INV_X1", 1.5, 3, None, True, b"sig", (2.0, "nested"))
        assert stable_key_digest(key) == stable_key_digest(key)
        # Length prefixes keep adjacent strings from sliding into each other.
        assert stable_key_digest(("ab", "c")) != stable_key_digest(("a", "bc"))
        # Type tags keep look-alike scalars apart.
        assert stable_key_digest((1,)) != stable_key_digest((1.0,))
        assert stable_key_digest((True,)) != stable_key_digest((1,))
        assert stable_key_digest(("1",)) != stable_key_digest((1,))
        assert stable_key_digest((None,)) != stable_key_digest(("None",))

    def test_ndarray_content_addressed(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        assert stable_key_digest((a,)) == stable_key_digest((a.copy(),))
        assert stable_key_digest((a,)) != stable_key_digest((a.ravel(),))
        assert stable_key_digest((a,)) != stable_key_digest((a + 1,))

    def test_rejects_unencodable_types(self):
        with pytest.raises(TypeError, match="canonicalize"):
            stable_key_digest((object(),))

    def test_stable_across_python_hash_seeds(self):
        """The cross-process key-stability contract: same digest whatever
        ``PYTHONHASHSEED`` the interpreter drew, for a representative
        simulation-cache condition key."""
        script = (
            "from repro.spice.testbench import SimulationCache\n"
            "from repro.cells import make_cell, Transition\n"
            "from repro.technology import get_technology\n"
            "from repro.runtime.persist import stable_key_digest\n"
            "cell = make_cell('INV_X1'); tech = get_technology('n28_bulk')\n"
            "arc = cell.arc(cell.input_pins[0], Transition.FALL)\n"
            "prefix = SimulationCache.arc_prefix(cell, tech, arc, 'nominal')\n"
            "key = SimulationCache.condition_key(prefix, 5e-12, 1e-15, 0.9, 64)\n"
            "print(stable_key_digest(key))\n"
        )
        digests = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert len(digests.pop()) == 64  # sha256 hex

    def test_fingerprints_are_sha256(self):
        from repro.technology import get_technology

        tech = get_technology("n28_bulk")
        assert len(tech.fingerprint()) == 64
        assert len(tech.variation.sample(3, rng=1).fingerprint()) == 64


# ---------------------------------------------------------------------------
# DiskStore basics
# ---------------------------------------------------------------------------
class TestDiskStore:
    def test_roundtrip_preserves_bits(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        delay = np.random.default_rng(0).normal(size=17)
        slew = np.random.default_rng(1).normal(size=17)
        assert store.put(("k", 1.25), (delay, slew))
        got_delay, got_slew = store.get(("k", 1.25))
        np.testing.assert_array_equal(got_delay, delay)
        np.testing.assert_array_equal(got_slew, slew)
        assert store.stats().hits == 1

    def test_miss_returns_default(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        assert store.get(("absent",)) is None
        assert store.get(("absent",), default=42) == 42
        assert store.stats().misses == 2

    def test_put_is_idempotent(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        assert store.put(("k",), 1) is True
        assert store.put(("k",), 1) is False
        assert store.stats().writes == 1

    def test_reopen_scans_inventory(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        store.put(("a",), np.arange(4.0))
        store.put(("b",), np.arange(8.0))
        reopened = DiskStore(tmp_path / "s")
        assert len(reopened) == 2
        assert ("a",) in reopened
        np.testing.assert_array_equal(reopened.get(("b",)), np.arange(8.0))
        assert reopened.stats().current_bytes == store.stats().current_bytes

    def test_orphaned_tmp_files_reaped_on_open(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        orphan = tmp_path / "s" / "tmp" / "dead.partial"
        orphan.write_bytes(b"half-written")
        reopened = DiskStore(tmp_path / "s")
        assert not orphan.exists()
        assert len(reopened) == 0

    def test_discard_and_clear(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.discard(("a",))
        assert store.get(("a",)) is None
        store.clear()
        assert len(store) == 0
        assert store.get(("b",)) is None

    def test_eviction_drops_oldest_first(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        for index in range(6):
            store.put(("k", index), np.full(128, float(index)))
            # Strictly increasing mtimes so "oldest" is well defined even on
            # coarse-timestamp filesystems.
            entry = store._entry_path(stable_key_digest(("k", index)))
            os.utime(entry, (index, index))
        per_entry = store.stats().current_bytes // 6
        store.set_max_bytes(3 * per_entry)
        assert store.stats().evictions >= 3
        assert store.get(("k", 5)) is not None  # newest survives
        assert store.get(("k", 0)) is None      # oldest went first

    def test_quarantined_entries_counts_files(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        store.put(("k",), 1)
        path = store._entry_path(stable_key_digest(("k",)))
        path.write_bytes(b"garbage")
        assert store.get(("k",)) is None
        assert store.quarantined_entries() == 1


# ---------------------------------------------------------------------------
# Corruption paths
# ---------------------------------------------------------------------------
class TestCorruptionQuarantine:
    def _entry_of(self, store, key):
        return store._entry_path(stable_key_digest(key))

    def test_truncated_entry_is_quarantined_not_raised(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        store.put(("k",), np.arange(64.0))
        path = self._entry_of(store, ("k",))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.get(("k",)) is None
        stats = store.stats()
        assert stats.quarantined == 1 and stats.misses == 1
        assert not path.exists()  # moved aside, never retried
        assert store.quarantined_entries() == 1
        # The key can be re-written and served again afterwards.
        store.put(("k",), np.arange(64.0))
        np.testing.assert_array_equal(store.get(("k",)), np.arange(64.0))

    def test_bitflipped_entry_fails_checksum(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        store.put(("k",), np.arange(64.0))
        path = self._entry_of(store, ("k",))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.get(("k",)) is None
        assert store.stats().quarantined == 1

    def test_wrong_magic_and_version_skew(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        for index, mutation in enumerate((b"XXXX", None)):
            key = ("k", index)
            store.put(key, 1)
            path = self._entry_of(store, key)
            data = bytearray(path.read_bytes())
            if mutation is not None:
                data[:4] = mutation  # wrong magic
            else:
                data[4] ^= 0xFF      # wrong schema version
            path.write_bytes(bytes(data))
            assert store.get(key) is None
        assert store.stats().quarantined == 2


# ---------------------------------------------------------------------------
# Injected filesystem faults (torn / bitflip / enospc / stale lock)
# ---------------------------------------------------------------------------
class TestInjectedFilesystemFaults:
    def test_enospc_degrades_put_to_noop(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        with inject([FaultSpec(site=persist.SITE_STORE_WRITE, kind="enospc",
                               at_calls=(0,))]) as injector:
            assert store.put(("k",), 1) is False
            assert store.put(("k2",), 2) is True  # next write succeeds
        assert [e.kind for e in injector.events] == ["enospc"]
        stats = store.stats()
        assert stats.write_errors == 1 and stats.writes == 1

    def test_torn_write_quarantined_on_read(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        with inject([FaultSpec(site=persist.SITE_STORE_COMMIT, kind="torn",
                               at_calls=(0,))]):
            store.put(("k",), np.arange(64.0))
        assert store.get(("k",)) is None
        assert store.stats().quarantined == 1

    def test_bitflip_fault_quarantined_on_read(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        with inject([FaultSpec(site=persist.SITE_STORE_COMMIT, kind="bitflip",
                               at_calls=(0,))]):
            store.put(("k",), np.arange(64.0))
        assert store.get(("k",)) is None
        assert store.stats().quarantined == 1

    def test_stale_lock_is_broken_not_waited_on(self, tmp_path):
        store = DiskStore(tmp_path / "s", max_bytes=None)
        store.put(("a",), np.full(256, 1.0))
        store.put(("b",), np.full(256, 2.0))
        with inject([FaultSpec(site=persist.SITE_STORE_LOCK,
                               kind="stale_lock", at_calls=(0,))]):
            store.set_max_bytes(1)  # forces eviction through the lock
        stats = store.stats()
        assert stats.stale_locks_broken == 1
        assert stats.evictions >= 1
        assert not (tmp_path / "s" / ".lock").exists()

    def test_live_foreign_lock_skips_maintenance(self, tmp_path):
        store = DiskStore(tmp_path / "s", stale_lock_s=3600.0)
        store.put(("a",), np.full(256, 1.0))
        # A fresh lock naming a live pid (our own parent) must be honored.
        (tmp_path / "s" / ".lock").write_text(
            f"{os.getppid()}:{__import__('time').time()}")
        store.set_max_bytes(1)
        assert store.stats().evictions == 0
        assert len(store) == 1

    def test_fresh_empty_lock_is_held_until_it_ages(self, tmp_path):
        # An empty lock file is what a non-atomic writer leaves between
        # creating the file and writing its pid: it must read as held, not
        # as abandoned, until its mtime says it really was abandoned.
        store = DiskStore(tmp_path / "s", stale_lock_s=3600.0)
        store.put(("a",), np.full(256, 1.0))
        lock = tmp_path / "s" / ".lock"
        lock.write_text("")
        store.set_max_bytes(1)
        assert store.stats().stale_locks_broken == 0
        assert store.stats().evictions == 0
        assert lock.exists()
        old = __import__("time").time() - 7200.0
        os.utime(lock, (old, old))
        store.set_max_bytes(2)
        assert store.stats().stale_locks_broken == 1
        assert store.stats().evictions == 1
        assert not lock.exists()

    def test_only_the_owner_releases_the_lock(self, tmp_path):
        owner = DiskStore(tmp_path / "s")
        other = DiskStore(tmp_path / "s")
        lock = tmp_path / "s" / ".lock"
        token = owner._acquire_lock()
        assert token is not None and lock.read_text() == token
        assert other._acquire_lock() is None  # held, not stale
        other._release_lock("someone-else")
        assert lock.read_text() == token
        owner._release_lock(token)
        assert not lock.exists()

    def test_stale_lock_break_never_steals_a_fresh_lock(self, tmp_path):
        # Two handles judge the same abandoned lock stale.  The interleaving
        # is forced: between the second handle's verdict and its break, the
        # first breaks the stale lock and publishes its own.  The second
        # must then find a fresh lock, leave it in place and back off --
        # not delete it and take the lock as well.
        first = DiskStore(tmp_path / "s")
        second = DiskStore(tmp_path / "s")
        lock = tmp_path / "s" / ".lock"
        lock.write_text("999999999:0.0")
        tokens = {}
        judge = second._lock_is_stale

        def judge_then_lose_the_race(*args):
            verdict = judge(*args)
            if "first" not in tokens:
                tokens["first"] = first._acquire_lock()
            return verdict

        second._lock_is_stale = judge_then_lose_the_race
        tokens["second"] = second._acquire_lock()
        assert tokens["first"] is not None
        assert tokens["second"] is None
        assert lock.read_text() == tokens["first"]
        assert first.stats().stale_locks_broken == 1
        assert second.stats().stale_locks_broken == 0
        first._release_lock(tokens["first"])
        assert not lock.exists()

    def test_miss_does_not_forget_a_concurrent_commit(self, tmp_path,
                                                       monkeypatch):
        # A get misses (the entry is not there yet), then another thread's
        # put of the same key commits and indexes it before the get's miss
        # path runs.  The miss must not drop the fresh entry from the index.
        from pathlib import Path

        store = DiskStore(tmp_path / "s")
        read_bytes = Path.read_bytes
        committed = []

        def absent_then_committed(path):
            if path.suffix == ".entry" and not committed:
                committed.append(store.put(("k",), np.arange(4.0)))
                raise FileNotFoundError(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", absent_then_committed)
        assert store.get(("k",)) is None
        assert committed == [True]
        stats = store.stats()
        assert stats.writes == stats.entries == 1
        assert ("k",) in store
        assert store.get(("k",)).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_shared_handle_counters_survive_thread_contention(self, tmp_path):
        # One handle shared by more threads than cores, with a tiny switch
        # interval: a lost counter update would break these invariants.
        import sys
        import threading

        store = DiskStore(tmp_path / "s")
        n_threads, n_puts, n_gets = 8, 8, 150
        errors = []

        def worker(tid):
            try:
                for index in range(n_puts):
                    store.put((tid, index), np.full(16, float(index)))
                for index in range(n_gets):
                    store.get((index % n_threads, index % (2 * n_puts)))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = store.stats()
        assert stats.hits + stats.misses == n_threads * n_gets
        assert stats.writes == stats.entries == n_threads * n_puts
        on_disk = sum(path.stat().st_size
                      for path in (tmp_path / "s" / "entries").rglob("*.entry"))
        assert stats.current_bytes == on_disk

    def test_stale_lock_broken_under_concurrent_writers(self, tmp_path):
        """Two genuinely concurrent writer threads against one abandoned lock.

        Each writer holds its own :class:`DiskStore` handle over the same
        directory (the cross-writer shape the maintenance lock exists
        for); a dead writer's stale lock sits in front of the eviction
        path.  Both live writers keep putting over-budget entries, so both
        contend on the lock: the stale lock is broken (both writers may
        race to observe it and each charge a break, so the count is one
        or two — never zero, never unbounded), neither deadlocks, and
        every surviving entry reads back bit-identically afterwards.
        """
        import threading

        stores = [DiskStore(tmp_path / "s", max_bytes=3000)
                  for _ in range(2)]
        # The abandoned lock: a pid that cannot be alive, a timestamp far
        # in the past (the same shape plant_stale_lock drops).
        (tmp_path / "s" / ".lock").write_text("999999999:0.0")
        errors = []
        barrier = threading.Barrier(2)

        def writer(tid):
            try:
                barrier.wait()
                for index in range(20):
                    # ~2 KiB each: every few puts overflow the budget and
                    # force an eviction pass through the lock.
                    stores[tid].put((tid, index), np.full(256, float(index)))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(tid,))
                   for tid in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        broken = sum(store.stats().stale_locks_broken for store in stores)
        assert 1 <= broken <= 2  # broken, with at most one racing double-observe
        assert sum(store.stats().evictions for store in stores) >= 1
        assert not (tmp_path / "s" / ".lock").exists()
        # A fresh handle scans the surviving inventory; every entry reads
        # back bit-identically.
        reopened = DiskStore(tmp_path / "s", max_bytes=3000)
        survivors = 0
        for tid in range(2):
            for index in range(20):
                value = reopened.get((tid, index))
                if value is not None:
                    survivors += 1
                    np.testing.assert_array_equal(
                        value, np.full(256, float(index)))
        assert survivors == len(reopened) > 0


# ---------------------------------------------------------------------------
# The write-through tier under LruCache
# ---------------------------------------------------------------------------
class TestDurableCacheTier:
    def test_attach_requires_durable_flag(self, tmp_path):
        cache = LruCache("persist_local", max_entries=4)
        with pytest.raises(ValueError, match="not durable"):
            cache.attach_disk_store(DiskStore(tmp_path / "s"))

    def test_write_through_and_disk_fallback(self, tmp_path):
        cache = LruCache("persist_t1", max_entries=4, durable=True)
        cache.attach_disk_store(DiskStore(tmp_path / "s"))
        value = np.arange(9.0)
        cache.put(("k",), value)
        cache.clear()  # memory gone; disk survives (new-process semantics)
        np.testing.assert_array_equal(cache.get(("k",)), value)
        stats = cache.stats()
        assert stats.disk_attached
        assert stats.disk_hits == 1 and stats.disk_writes == 1
        # The fallback promoted the entry back into memory.
        assert cache.get(("k",)) is not None
        assert cache.stats().hits == 1

    def test_memory_counters_unchanged_without_disk(self, tmp_path):
        plain = LruCache("persist_t2", max_entries=4)
        tiered = LruCache("persist_t3", max_entries=4, durable=True)
        tiered.attach_disk_store(DiskStore(tmp_path / "s"))
        for cache in (plain, tiered):
            cache.put(("k",), 1)
            cache.get(("k",))
            cache.get(("missing",))
        for field in ("hits", "misses", "evictions", "entries"):
            assert getattr(plain.stats(), field) == getattr(tiered.stats(), field)

    def test_detach_restores_memory_only(self, tmp_path):
        cache = LruCache("persist_t4", max_entries=4, durable=True)
        cache.attach_disk_store(DiskStore(tmp_path / "s"))
        cache.put(("k",), 1)
        cache.detach_disk_store()
        cache.clear()
        assert cache.get(("k",)) is None
        assert cache.disk_store is None

    def test_corrupt_disk_entry_is_a_cache_miss(self, tmp_path):
        cache = LruCache("persist_t5", max_entries=4, durable=True)
        store = DiskStore(tmp_path / "s")
        cache.attach_disk_store(store)
        cache.put(("k",), np.arange(8.0))
        cache.clear()
        path = store._entry_path(stable_key_digest(("k",)))
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(("k",)) is None
        assert cache.stats().disk_quarantined == 1


# ---------------------------------------------------------------------------
# configure() / env wiring and observability
# ---------------------------------------------------------------------------
class TestRuntimeWiring:
    def _cleanup(self, *names):
        for name in names:
            _REGISTRY.pop(name, None)

    def test_configure_attaches_and_detaches(self, tmp_path):
        cache = LruCache("persist_w1", max_entries=4, durable=True)
        try:
            runtime.register_runtime_cache(cache)
            runtime.configure(disk_cache_dir=str(tmp_path),
                              disk_cache_bytes=1 << 20)
            assert cache.disk_store is not None
            assert cache.disk_store.max_bytes == 1 << 20
            assert str(cache.disk_store.root).endswith("persist_w1")
            # Late registration picks the tier up too.
            late = LruCache("persist_w2", max_entries=4, durable=True)
            runtime.register_runtime_cache(late)
            assert late.disk_store is not None
            # Non-durable caches never get a store.
            plain = LruCache("persist_w3", max_entries=4)
            runtime.register_runtime_cache(plain)
            assert getattr(plain, "disk_store") is None
            runtime.configure(disk_cache_dir=None)
            assert cache.disk_store is None and late.disk_store is None
        finally:
            runtime.configure(disk_cache_dir=None, disk_cache_bytes=None)
            self._cleanup("persist_w1", "persist_w2", "persist_w3")

    def test_env_bootstrap_attaches_simulation_cache(self, tmp_path):
        script = (
            "from repro.spice.testbench import get_simulation_cache\n"
            "cache = get_simulation_cache()\n"
            "print(cache.durable, cache.disk_store is not None,\n"
            "      cache.disk_store.max_bytes)\n"
        )
        env = dict(os.environ, REPRO_DISK_CACHE=str(tmp_path),
                   REPRO_DISK_CACHE_BYTES="1048576")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True", "True", "1048576"]

    def test_ledger_records_disk_tier_activity(self, tmp_path):
        cache = LruCache("persist_w4", max_entries=4, durable=True)
        try:
            runtime.register_runtime_cache(cache)
            cache.attach_disk_store(DiskStore(tmp_path / "s"))
            ledger = RunLedger()
            with ledger.caches():
                cache.put(("k",), 1)
                cache.clear()
                cache.get(("k",))  # memory miss, disk hit
            activity = ledger.cache_activity()
            assert activity["persist_w4:disk"] == {
                "hits": 1, "misses": 0, "evictions": 0}
            # Memory row keeps the pinned three-key shape.
            assert set(activity["persist_w4"]) == {"hits", "misses", "evictions"}
            from repro.analysis.reporting import format_ledger
            assert "persist_w4:disk" in format_ledger(ledger)
        finally:
            self._cleanup("persist_w4")

    def test_format_cache_stats_shows_disk_columns(self, tmp_path):
        from repro.analysis.reporting import format_cache_stats

        tiered = LruCache("persist_w5", max_entries=4, durable=True)
        tiered.attach_disk_store(DiskStore(tmp_path / "s"))
        tiered.put(("k",), 1)
        plain = LruCache("persist_w6", max_entries=4)
        text = format_cache_stats({"persist_w5": tiered.stats(),
                                   "persist_w6": plain.stats()})
        lines = text.splitlines()
        assert "disk hits" in lines[1] and "quarantined" in lines[1]
        tiered_row = next(l for l in lines if l.startswith("persist_w5"))
        plain_row = next(l for l in lines if l.startswith("persist_w6"))
        assert "-" not in tiered_row
        assert "-" in plain_row
