"""Unit tests for the power logger and the instruction tracer."""

from __future__ import annotations

import math

import pytest

from repro.board.powerlog import (
    POWERLOG_SCHEMA_VERSION,
    PowerLog,
    PowerLogger,
)
from repro.core.multicore import MulticoreEngine
from repro.core.trace import TraceRecorder
from repro.isa.assembler import assemble
from repro.power.chip_power import RailPower


class TestPowerLog:
    def make_log(self):
        log = PowerLog()
        log.append(0.0, RailPower(2.0, 0.3, 0.1))
        log.append(1.0, RailPower(2.2, 0.3, 0.1))
        log.append(2.0, RailPower(2.0, 0.3, 0.1))
        return log

    def test_summary(self):
        summary = self.make_log().summary("vdd")
        assert summary["mean_w"] == pytest.approx(2.0667, rel=1e-3)
        assert summary["peak_to_peak_w"] == pytest.approx(0.2)

    def test_unknown_rail(self):
        with pytest.raises(KeyError):
            self.make_log().rail("vaux")

    def test_empty_summary(self):
        with pytest.raises(ValueError):
            PowerLog().summary("vdd")

    def test_total_energy_trapezoidal(self):
        log = PowerLog()
        log.append(0.0, RailPower(1.0, 0.0, 0.0))
        log.append(2.0, RailPower(3.0, 0.0, 0.0))
        assert log.total_energy_j() == pytest.approx(4.0)

    def test_energy_of_single_sample_is_zero(self):
        log = PowerLog()
        log.append(0.0, RailPower(1.0, 0.0, 0.0))
        assert log.total_energy_j() == 0.0

    def test_csv_round_trip(self):
        log = self.make_log()
        restored = PowerLog.from_csv(log.to_csv())
        assert len(restored) == len(log)
        assert restored.vdd_w == pytest.approx(log.vdd_w)
        assert restored.times_s == pytest.approx(log.times_s)

    def test_csv_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            PowerLog.from_csv("a,b,c,d\n1,2,3,4\n")

    def test_json_round_trip(self):
        log = self.make_log()
        restored = PowerLog.from_json(log.to_json())
        assert len(restored) == len(log)
        assert restored.times_s == pytest.approx(log.times_s)
        assert restored.vdd_w == pytest.approx(log.vdd_w)
        assert restored.vio_w == pytest.approx(log.vio_w)

    def test_json_document_has_summary_and_energy(self):
        doc = self.make_log().to_dict()
        assert doc["schema_version"] == POWERLOG_SCHEMA_VERSION
        assert doc["samples"] == 3
        assert doc["summary"]["vdd"]["mean_w"] == pytest.approx(
            2.0667, rel=1e-3
        )
        assert doc["total_energy_j"] == pytest.approx(
            self.make_log().total_energy_j()
        )

    def test_json_empty_log(self):
        doc = PowerLog().to_dict()
        assert doc["samples"] == 0
        assert doc["summary"] == {}
        assert len(PowerLog.from_dict(doc)) == 0

    def test_json_bad_version(self):
        doc = self.make_log().to_dict()
        doc["schema_version"] = 0
        with pytest.raises(ValueError, match="schema_version"):
            PowerLog.from_dict(doc)

    def test_logger_sampling(self):
        logger = PowerLogger(poll_hz=10.0)

        def source(t: float) -> RailPower:
            return RailPower(2.0 + math.sin(t), 0.3, 0.1)

        log = logger.record(source, duration_s=2.0)
        assert len(log) == 20
        assert log.times_s[1] - log.times_s[0] == pytest.approx(0.1)

    def test_logger_validation(self):
        with pytest.raises(ValueError):
            PowerLogger(poll_hz=0)
        with pytest.raises(ValueError):
            PowerLogger().record(lambda t: RailPower(1, 1, 1), 0)


class TestTraceRecorder:
    def run_traced(self, source, threads=1, capacity=1000):
        engine = MulticoreEngine()
        programs = [assemble(source) for _ in range(threads)]
        core = engine.add_core(0, programs, init_regs={31: 1})
        recorder = TraceRecorder(core, capacity=capacity)
        with recorder:
            engine.run(until_done=True, max_cycles=100_000)
        return recorder

    def test_records_every_issue(self):
        trace = self.run_traced("nop\nnop\nadd %r1, 1, %r1")
        assert trace.ops() == ["nop", "nop", "add"]

    def test_no_extraneous_activity_check(self):
        trace = self.run_traced("nop\nadd %r1, 1, %r1")
        assert trace.only_ops({"nop", "add"})
        assert not trace.only_ops({"nop"})

    def test_two_threads_attributed(self):
        trace = self.run_traced("nop\nnop", threads=2)
        threads_seen = {e.thread for e in trace.entries}
        assert threads_seen == {0, 1}
        assert len(trace.entries) == 4

    def test_capacity_bounds_memory(self):
        trace = self.run_traced("\n".join(["nop"] * 50), capacity=10)
        assert len(trace.entries) == 10  # only the most recent kept

    def test_detach_restores(self):
        engine = MulticoreEngine()
        core = engine.add_core(0, [assemble("nop")])
        recorder = TraceRecorder(core)
        recorder.attach()
        assert "step" in core.__dict__  # shimmed
        recorder.detach()
        assert "step" not in core.__dict__  # class method restored

    def test_double_attach_rejected(self):
        engine = MulticoreEngine()
        core = engine.add_core(0, [assemble("nop")])
        recorder = TraceRecorder(core).attach()
        with pytest.raises(RuntimeError):
            recorder.attach()
        recorder.detach()

    def test_issues_per_cycle(self):
        trace = self.run_traced("\n".join(["add %r1, 1, %r1"] * 20))
        assert trace.issues_per_cycle() == pytest.approx(1.0, abs=0.1)

    def test_memory_ops_carry_their_address(self):
        engine = MulticoreEngine()
        program = assemble(
            "ldx [%r1 + 8], %r3\n"
            "stx %r2, [%r1 + 16]\n"
            "cas [%r4], %r5, %r6\n"
            "nop"
        )
        core = engine.add_core(
            0, [program], init_regs={1: 0x1000, 2: 7, 4: 0x2000}
        )
        with TraceRecorder(core) as trace:
            engine.run(until_done=True, max_cycles=100_000)
        assert [(e.op, e.mem_addr) for e in trace.entries] == [
            ("ldx", 0x1008),
            ("stx", 0x1010),
            ("cas", 0x2000),
            ("nop", None),
        ]

    def test_block_entries_carry_no_address(self):
        trace = self.run_traced("\n".join(["add %r1, 1, %r1"] * 8))
        assert len(trace.entries) == 8
        assert all(e.mem_addr is None for e in trace.entries)

    def test_capacity_validation(self):
        engine = MulticoreEngine()
        core = engine.add_core(0, [assemble("nop")])
        with pytest.raises(ValueError):
            TraceRecorder(core, capacity=0)
