"""Unit tests for the content-addressed result store (repro.serve.cas):
framing, atomicity, corruption handling, the tier-aware acceptance
matrix, and the CasJournal adapter the grid executors consume."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments.parallel import parallel_simulate
from repro.obs import Tracer
from repro.resilience import Supervision
from repro.serve.cas import CacheEntry, CasJournal, ResultCache
from repro.system import PitonSystem
from repro.util import io
from repro.workloads.microbench import int_tile


@dataclass
class FakeOutcome:
    """Picklable stand-in for SimOutcome (module level on purpose)."""

    value: int = 0
    tier: str = "sim"
    tier_err: float = 0.0


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cas")


DIGEST = b"\xab" * 32


class TestPutGet:
    def test_round_trip(self, cache):
        cache.put("run", "aa" * 32, b"payload bytes")
        entry = cache.get("run", "aa" * 32)
        assert entry == CacheEntry(
            payload=b"payload bytes", tier="sim", tier_err=0.0
        )

    def test_bytes_and_hex_keys_equivalent(self, cache):
        cache.put("point", DIGEST, b"x")
        assert cache.get("point", DIGEST.hex()).payload == b"x"

    def test_absent_is_none(self, cache):
        assert cache.get("run", "00" * 32) is None

    def test_namespaces_isolated(self, cache):
        cache.put("run", DIGEST, b"run-bytes")
        assert cache.get("point", DIGEST) is None

    def test_tier_metadata_survives(self, cache):
        cache.put("point", DIGEST, b"x", tier="fast", tier_err=0.03)
        entry = cache.get("point", DIGEST)
        assert entry.tier == "fast"
        assert entry.tier_err == pytest.approx(0.03)

    def test_overwrite_replaces_atomically(self, cache):
        cache.put("run", DIGEST, b"old")
        cache.put("run", DIGEST, b"new")
        assert cache.get("run", DIGEST).payload == b"new"
        # No temp droppings left behind.
        leftovers = [
            p for p in cache.root.rglob(".tmp-*") if p.is_file()
        ]
        assert leftovers == []

    def test_entry_count(self, cache):
        assert cache.entry_count() == 0
        cache.put("run", "aa" * 32, b"1")
        cache.put("point", "bb" * 32, b"2")
        assert cache.entry_count() == 2
        assert cache.entry_count("point") == 1
        assert cache.entry_count("absent") == 0


class TestOrphanedTemps:
    """A writer that dies mid-``put`` leaves ``.tmp-<pid>-*`` behind:
    counted by ``stats`` and removed by ``gc``/``scrub`` once that pid
    is gone, while a live writer's temp stays."""

    @staticmethod
    def _exited_pid() -> int:
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        return child.pid

    def _plant(self, cache, name: str) -> tuple[Path, Path]:
        cache.put("run", DIGEST, b"entry payload")
        [entry] = cache.root.rglob("*.cas")
        temp = entry.parent / name
        temp.write_bytes(b"\0" * 4096)
        return entry, temp

    def test_orphan_counted_then_collected(self, cache):
        entry, orphan = self._plant(
            cache, f".tmp-{self._exited_pid()}-orphan"
        )
        assert cache.stats()["bytes"] == entry.stat().st_size + 4096
        cache.gc(quota_bytes=0)
        assert not orphan.exists()
        assert cache.stats()["bytes"] == 0

    def test_scrub_collects_orphans(self, cache):
        _, orphan = self._plant(cache, f".tmp-{self._exited_pid()}-orphan")
        assert cache.scrub() == 0
        assert not orphan.exists()

    def test_live_writers_temp_survives(self, cache):
        _, live = self._plant(cache, f".tmp-{os.getpid()}-live")
        cache.gc(quota_bytes=0)
        assert live.exists()
        cache.scrub()
        assert live.exists()
        assert cache.stats()["bytes"] == 4096

    def test_temp_names_carry_the_writer_pid(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(Path(src).name)
            real_replace(src, dst)

        monkeypatch.setattr(io.os, "replace", spy)
        io.atomic_write_bytes(tmp_path / "record", b"x")
        [name] = seen
        assert name.startswith(f".tmp-{os.getpid()}-")
        assert not io.orphaned_temp(tmp_path / name)
        assert io.orphaned_temp(tmp_path / ".tmp-orphan")


class TestCorruption:
    """A torn or tampered frame must read as a miss, never an error —
    the caller's recovery is simply to re-simulate and overwrite."""

    def _path(self, cache):
        cache.put("run", DIGEST, b"good payload")
        [path] = cache.root.rglob("*.cas")
        return path

    def test_flipped_payload_byte_is_a_miss(self, cache):
        path = self._path(cache)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get("run", DIGEST) is None

    def test_truncated_entry_is_a_miss(self, cache):
        path = self._path(cache)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 3])
        assert cache.get("run", DIGEST) is None

    def test_wrong_magic_is_a_miss(self, cache):
        path = self._path(cache)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        assert cache.get("run", DIGEST) is None

    def test_empty_file_is_a_miss(self, cache):
        path = self._path(cache)
        path.write_bytes(b"")
        assert cache.get("run", DIGEST) is None

    def test_resimulate_overwrites_corrupt_entry(self, cache):
        path = self._path(cache)
        path.write_bytes(b"garbage")
        assert cache.get("run", DIGEST) is None
        cache.put("run", DIGEST, b"fresh")
        assert cache.get("run", DIGEST).payload == b"fresh"


class TestTierMatrix:
    """sim entries satisfy everything; fast entries satisfy fast
    always, auto within tolerance, sim never."""

    @pytest.mark.parametrize("tier", ["sim", "auto", "fast"])
    def test_sim_entry_satisfies_any_tier(self, tier):
        entry = CacheEntry(b"", tier="sim", tier_err=0.0)
        assert ResultCache.satisfies(entry, tier, tolerance=0.0)

    def test_fast_entry_never_satisfies_sim(self):
        entry = CacheEntry(b"", tier="fast", tier_err=0.0)
        assert not ResultCache.satisfies(entry, "sim", tolerance=1.0)

    def test_fast_entry_always_satisfies_fast(self):
        entry = CacheEntry(b"", tier="fast", tier_err=0.5)
        assert ResultCache.satisfies(entry, "fast", tolerance=0.0)

    def test_fast_entry_satisfies_auto_within_tolerance_only(self):
        entry = CacheEntry(b"", tier="fast", tier_err=0.1)
        assert not ResultCache.satisfies(entry, "auto", tolerance=0.05)
        assert ResultCache.satisfies(entry, "auto", tolerance=0.2)

    def test_lookup_applies_the_gate(self, cache):
        cache.put("point", DIGEST, b"x", tier="fast", tier_err=0.1)
        assert cache.lookup("point", DIGEST, tier="sim") is None
        assert (
            cache.lookup("point", DIGEST, tier="auto", tolerance=0.05)
            is None
        )
        assert (
            cache.lookup("point", DIGEST, tier="auto", tolerance=0.2)
            is not None
        )
        assert cache.lookup("point", DIGEST, tier="fast") is not None


class TestCasJournal:
    def test_append_then_get_round_trips_outcome(self, cache):
        journal = CasJournal(cache)
        journal.append(DIGEST, (0,), FakeOutcome(value=7))
        # Index is deliberately ignored: pure class keying means
        # identical points hit from any grid shape.
        outcome = journal.get(999, DIGEST)
        assert outcome == FakeOutcome(value=7)

    def test_counters_land_on_tracer(self, cache):
        tracer = Tracer()
        journal = CasJournal(cache, tracer=tracer)
        assert journal.get(0, DIGEST) is None
        journal.append(DIGEST, (0,), FakeOutcome())
        assert journal.get(0, DIGEST) is not None
        assert tracer.resilience == {"cas_misses": 1, "cas_hits": 1}

    def test_surrogate_outcome_stored_with_its_tier(self, cache):
        journal = CasJournal(cache)
        journal.append(
            DIGEST, (0,), FakeOutcome(tier="fast", tier_err=0.02)
        )
        entry = cache.get("point", DIGEST)
        assert entry.tier == "fast"
        assert entry.tier_err == pytest.approx(0.02)
        # A sim-tier consumer refuses it...
        assert CasJournal(cache, tier="sim").get(0, DIGEST) is None
        # ...an auto consumer takes it within tolerance.
        auto = CasJournal(cache, tier="auto", tolerance=0.05)
        assert auto.get(0, DIGEST) is not None

    def test_unpicklable_entry_is_a_miss(self, cache):
        tracer = Tracer()
        cache.put("point", DIGEST, b"not a pickle")
        journal = CasJournal(cache, tracer=tracer)
        assert journal.get(0, DIGEST) is None
        assert tracer.resilience.get("cas_hits", 0) == 0

    def test_one_entry_per_class_serves_every_member(self, cache):
        journal = CasJournal(cache)
        journal.append(DIGEST, (0, 4, 9), FakeOutcome(value=3))
        assert cache.entry_count("point") == 1
        assert [journal.get(i, DIGEST) for i in (0, 4, 9, 99)] == [
            FakeOutcome(value=3)
        ] * 4

    def test_frequency_independent_class_hits_at_another_clock(
        self, cache
    ):
        def request(freq_hz):
            system = PitonSystem.default(seed=0)
            system.set_operating_point(1.0, 1.05, freq_hz)
            return system.sim_request(
                {0: int_tile()}, warmup_cycles=100, window_cycles=400
            )

        def run(freq_hz):
            tracer = Tracer()
            supervision = Supervision(
                journal=CasJournal(cache, tracer=tracer), tracer=tracer
            )
            outcome = next(
                parallel_simulate([request(freq_hz)], supervision=supervision)
            )
            return outcome, tracer.resilience

        cold, cold_counters = run(300e6)
        warm, warm_counters = run(700e6)
        assert cold_counters["points_simulated"] == 1
        assert warm_counters["points_resumed"] == 1
        assert warm_counters["cas_hits"] == 1
        assert "points_simulated" not in warm_counters
        assert warm.ledger.as_dict() == cold.ledger.as_dict()
        assert warm.result == cold.result

    @pytest.mark.parametrize("batch", [True, False])
    def test_one_class_sweep_looks_its_entry_up_once(
        self, cache, monkeypatch, batch
    ):
        # Six clocks of the frequency-independent Int loop are one
        # timing class: its entry is looked up once per run, cold or
        # warm, batched or not, while the counters still count every
        # point and every point gets its own outcome object.
        lookups = []
        original = ResultCache.lookup

        def counting(self, *args, **kwargs):
            lookups.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "lookup", counting)

        def requests():
            for freq_hz in (300e6, 350e6, 400e6, 450e6, 500e6, 550e6):
                system = PitonSystem.default(seed=0)
                system.set_operating_point(1.0, 1.05, freq_hz)
                yield system.sim_request(
                    {0: int_tile()}, warmup_cycles=100, window_cycles=400
                )

        def run():
            lookups.clear()
            tracer = Tracer()
            supervision = Supervision(
                journal=CasJournal(cache, tracer=tracer), tracer=tracer
            )
            outcomes = list(parallel_simulate(
                requests(), supervision=supervision, batch=batch
            ))
            return outcomes, len(lookups), tracer.resilience

        cold, cold_lookups, cold_counters = run()
        warm, warm_lookups, warm_counters = run()
        assert (cold_lookups, warm_lookups) == (1, 1)
        assert cold_counters["cas_misses"] == 6
        assert warm_counters["cas_hits"] == 6
        assert [o.result for o in warm] == [o.result for o in cold]
        for outcomes in (cold, warm):
            assert len({id(o) for o in outcomes}) == 6
            assert len({id(o.ledger) for o in outcomes}) == 6

    def test_append_forgets_a_remembered_miss(self, cache):
        journal = CasJournal(cache)
        assert journal.get(0, DIGEST) is None
        journal.append(DIGEST, (0,), FakeOutcome(value=5))
        assert journal.get(1, DIGEST) == FakeOutcome(value=5)

    def test_meta_and_complete_are_noops(self, cache):
        journal = CasJournal(cache)
        journal.write_meta(experiment_id="x", n_points=3)
        journal.complete()
        assert cache.entry_count() == 0


# ----------------------------------------------------------- concurrency
def _race_writer(root, key, payload, rounds):
    """Child-process body: hammer one key with one payload."""
    cache = ResultCache(root=root)
    for _ in range(rounds):
        cache.put("point", key, payload)


class TestConcurrentWriters:
    def test_two_processes_racing_one_key_never_tear(self, tmp_path):
        """Readers racing two writers see complete frames or nothing.

        The atomic temp+fsync+rename discipline means a concurrent
        reader can observe either writer's entry — but never a splice
        of the two and never a partial frame.
        """
        import multiprocessing

        root = tmp_path / "cas"
        key = "ab" * 32
        payloads = (b"A" * 4096, b"B" * 4096)
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(
                target=_race_writer, args=(root, key, payload, 200)
            )
            for payload in payloads
        ]
        for w in writers:
            w.start()
        reader = ResultCache(root=root)
        observed = set()
        while any(w.is_alive() for w in writers):
            entry = reader.get("point", key)
            if entry is not None:
                assert entry.payload in payloads  # complete, untorn
                observed.add(entry.payload)
        for w in writers:
            w.join()
            assert w.exitcode == 0
        final = reader.get("point", key)
        assert final is not None and final.payload in payloads
        assert observed  # the race was actually observed

    def test_torn_frame_is_a_miss_then_cleanly_overwritten(
        self, cache
    ):
        """Crash-mid-write recovery: miss, re-simulate, overwrite."""
        key = "cd" * 32
        cache.put("point", key, b"original payload")
        path = cache._entry_path("point", key)
        path.write_bytes(path.read_bytes()[:-3])  # torn tail
        assert cache.get("point", key) is None
        assert (
            cache.lookup("point", key) is None
        )  # counted as a miss, not an error
        cache.put("point", key, b"replacement payload")
        entry = cache.get("point", key)
        assert entry is not None
        assert entry.payload == b"replacement payload"

    def test_interleaved_writers_and_gc_stay_consistent(self, tmp_path):
        """GC racing a writer on the same store never breaks reads."""
        import multiprocessing

        root = tmp_path / "cas"
        key = "ef" * 32
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(
            target=_race_writer, args=(root, key, b"X" * 1024, 100)
        )
        writer.start()
        collector = ResultCache(root=root)
        while writer.is_alive():
            collector.gc(quota_bytes=0)  # evict everything, always
            entry = collector.get("point", key)
            assert entry is None or entry.payload == b"X" * 1024
        writer.join()
        assert writer.exitcode == 0
