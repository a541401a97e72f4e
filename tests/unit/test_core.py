"""Unit tests for repro.core: semantics, store buffer, pipeline timing,
multicore engine."""

from __future__ import annotations

import pytest

from repro.core.multicore import MulticoreEngine, SharedMemory
from repro.core.pipeline import ROLLBACK_PENALTY
from repro.core.semantics import execute
from repro.core.storebuffer import StoreBuffer, StoreEntry
from repro.core.thread import ThreadContext
from repro.isa.assembler import assemble
from repro.isa.instructions import WORD_MASK
from repro.isa.program import Instruction, flat_program


def make_thread(source: str) -> ThreadContext:
    return ThreadContext(thread_id=0, program=assemble(source))


class TestSemantics:
    def setup_method(self):
        self.memory = SharedMemory()

    def run_one(self, source: str, regs=None, fregs=None):
        thread = make_thread(source)
        for r, v in (regs or {}).items():
            thread.write_int(r, v)
        for r, v in (fregs or {}).items():
            thread.write_fp(r, v)
        out = execute(thread.program[0], thread, self.memory)
        return thread, out

    def test_add(self):
        t, _ = self.run_one("add %r1, %r2, %r3", {1: 5, 2: 7})
        assert t.read_int(3) == 12

    def test_add_wraps_64bit(self):
        t, _ = self.run_one("add %r1, 1, %r3", {1: WORD_MASK})
        assert t.read_int(3) == 0

    def test_sub_negative_wraps(self):
        t, _ = self.run_one("sub %r1, %r2, %r3", {1: 1, 2: 2})
        assert t.read_int(3) == WORD_MASK

    def test_logic(self):
        t, _ = self.run_one("xor %r1, %r2, %r3", {1: 0xF0, 2: 0xFF})
        assert t.read_int(3) == 0x0F

    def test_shift(self):
        t, _ = self.run_one("sll %r1, 4, %r3", {1: 1})
        assert t.read_int(3) == 16
        t, _ = self.run_one("srl %r1, 4, %r3", {1: 16})
        assert t.read_int(3) == 1

    def test_mulx(self):
        t, _ = self.run_one("mulx %r1, %r2, %r3", {1: 3, 2: 7})
        assert t.read_int(3) == 21

    def test_sdivx(self):
        t, _ = self.run_one("sdivx %r1, %r2, %r3", {1: 22, 2: 7})
        assert t.read_int(3) == 3

    def test_sdivx_by_zero_saturates(self):
        t, _ = self.run_one("sdivx %r1, %r2, %r3", {1: 1, 2: 0})
        assert t.read_int(3) == WORD_MASK

    def test_sdivx_signed(self):
        minus_six = (-6) & WORD_MASK
        t, _ = self.run_one("sdivx %r1, %r2, %r3", {1: minus_six, 2: 2})
        assert t.read_int(3) == (-3) & WORD_MASK

    def test_r0_is_zero(self):
        t, _ = self.run_one("add %r0, 5, %r3", {})
        assert t.read_int(3) == 5
        t2, _ = self.run_one("add %r1, 1, %r0", {1: 7})
        assert t2.read_int(0) == 0

    def test_load(self):
        self.memory.write(0x100, 0xDEAD)
        t, out = self.run_one("ldx [%r1 + 0x10], %r3", {1: 0xF0})
        assert t.read_int(3) == 0xDEAD
        assert out.mem_addr == 0x100
        assert out.is_load

    def test_store_value_deferred(self):
        t, out = self.run_one("stx %r2, [%r1]", {1: 0x200, 2: 42})
        assert out.is_store and out.store_value == 42
        # The architectural write happens at store-buffer drain time.
        assert self.memory.read(0x200) == 0

    def test_branch_taken(self):
        thread = make_thread("loop:\n nop\n beq %r1, loop")
        thread.pc = 1
        out = execute(thread.program[1], thread, self.memory)
        assert out.branch_taken and thread.pc == 0

    def test_branch_not_taken(self):
        thread = make_thread("loop:\n nop\n bne %r1, loop\n nop")
        thread.pc = 1
        out = execute(thread.program[1], thread, self.memory)
        assert out.branch_taken is False
        assert thread.pc == 2

    def test_fp_ops(self):
        t, _ = self.run_one(
            "fmuld %f1, %f2, %f3", fregs={1: 1.5, 2: 4.0}
        )
        assert t.read_fp(3) == 6.0

    def test_fp_div_by_zero(self):
        t, _ = self.run_one(
            "fdivd %f1, %f2, %f3", fregs={1: 1.0, 2: 0.0}
        )
        assert t.read_fp(3) == float("inf")

    def test_cas_success(self):
        self.memory.write(0x300, 0)
        t, out = self.run_one(
            "cas [%r1], %r2, %r3", {1: 0x300, 2: 0, 3: 99}
        )
        assert self.memory.read(0x300) == 99
        assert t.read_int(3) == 0
        assert out.is_atomic

    def test_cas_failure(self):
        self.memory.write(0x300, 7)
        t, _ = self.run_one(
            "cas [%r1], %r2, %r3", {1: 0x300, 2: 0, 3: 99}
        )
        assert self.memory.read(0x300) == 7
        assert t.read_int(3) == 7

    def test_activity_from_operands(self):
        _, out = self.run_one(
            "add %r1, %r2, %r3", {1: WORD_MASK, 2: WORD_MASK}
        )
        assert out.activity == 1.0
        _, out0 = self.run_one("add %r1, %r2, %r3", {1: 0, 2: 0})
        assert out0.activity == 0.0


class TestStoreBuffer:
    def test_capacity(self):
        sb = StoreBuffer(capacity=2, drain_cycles=10)
        sb.push(StoreEntry(0, 0, 0), now=0)
        sb.push(StoreEntry(8, 0, 0), now=0)
        assert sb.full
        with pytest.raises(OverflowError):
            sb.push(StoreEntry(16, 0, 0), now=0)

    def test_drain_timing(self):
        sb = StoreBuffer(capacity=8, drain_cycles=10)
        sb.push(StoreEntry(0, 1, 0), now=0)
        assert sb.drain_ready(now=9) is None
        entry = sb.drain_ready(now=10)
        assert entry is not None and entry.value == 1

    def test_serial_drain_rate(self):
        sb = StoreBuffer(capacity=8, drain_cycles=10)
        for i in range(3):
            sb.push(StoreEntry(8 * i, i, 0), now=0)
        drains = []
        for now in range(0, 40):
            if sb.drain_ready(now) is not None:
                drains.append(now)
        assert drains == [10, 20, 30]

    def test_next_event(self):
        sb = StoreBuffer()
        assert sb.next_event_cycle() is None
        sb.push(StoreEntry(0, 0, 0), now=5)
        assert sb.next_event_cycle() == 15

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StoreBuffer(capacity=0)


class TestPipelineTiming:
    """Timing behaviour against the paper's documented rules."""

    def run_program(self, source, cycles=None, threads=1, regs=None):
        engine = MulticoreEngine()
        programs = [assemble(source) for _ in range(threads)]
        engine.add_core(0, programs, init_regs=regs or {})
        if cycles:
            result = engine.run(cycles=cycles)
        else:
            result = engine.run(until_done=True)
        return engine, result

    def test_single_cycle_alu_ipc(self):
        src = "\n".join(["add %r1, %r2, %r3"] * 50)
        _, result = self.run_program(src)
        assert result.cycles == pytest.approx(50, abs=2)

    def test_mulx_occupies_thread(self):
        # A nop after the last mulx exposes its full 11-cycle latency
        # (a program "finishes" when its last instruction issues).
        src = "\n".join(["mulx %r1, %r2, %r3"] * 5) + "\nnop"
        _, result = self.run_program(src)
        assert result.cycles == pytest.approx(5 * 11 + 1, abs=2)

    def test_two_threads_hide_latency(self):
        # One thread of muls + one of adds: the adds fill the gaps.
        engine = MulticoreEngine()
        muls = assemble("\n".join(["mulx %r1, %r2, %r3"] * 4))
        adds = assemble("\n".join(["add %r1, %r2, %r3"] * 30))
        engine.add_core(0, [muls, adds])
        result = engine.run(until_done=True)
        # Serial would be 44 + 30; interleaved finishes in ~max(44, 34).
        assert result.cycles < 50

    def test_branch_latency(self):
        src = """
    set 10, %r1
loop:
    sub %r1, 1, %r1
    bne %r1, loop
"""
        _, result = self.run_program(src)
        # Per iteration: sub (1) + bne (3) = 4 cycles.
        assert result.cycles == pytest.approx(1 + 10 * 4, abs=3)

    def test_load_l1_hit_latency(self):
        src = "\n".join(["ldx [%r1 + 0], %r2"] * 10)
        engine = MulticoreEngine()
        program = assemble(src)
        engine.add_core(0, [program, program], init_regs={1: 0x1000})
        engine.run(until_done=True)
        core = engine.cores[0]
        # First load misses (cold), the rest hit at 3 cycles.
        assert core.stats.load_miss_rollbacks >= 1

    def test_store_buffer_full_rolls_back(self):
        src = "\n".join([f"stx %r2, [%r1 + {8 * i}]" for i in range(20)])
        engine = MulticoreEngine()
        engine.add_core(0, [assemble(src)], init_regs={1: 0x1000, 2: 5})
        engine.run(until_done=True)
        core = engine.cores[0]
        assert core.stats.store_buffer_rollbacks > 0

    def test_store_value_lands_after_drain(self):
        engine = MulticoreEngine()
        engine.add_core(
            0,
            [assemble("stx %r2, [%r1]")],
            init_regs={1: 0x80, 2: 77},
        )
        engine.run(until_done=True)
        assert engine.memory.read(0x80) == 77

    def test_iterations_count_only_backward_taken_branches(self):
        src = """
    set 2, %r1
    beq %r0, body
    nop
body:
    sub %r1, 1, %r1
    bne %r1, body
"""
        engine, _ = self.run_program(src)
        stats = engine.cores[0].threads[0].stats
        # beq jumps forward once, bne jumps back once and falls through.
        assert stats.branches == 3
        assert stats.branches_taken == 2
        assert stats.iterations == 1

    def test_rollback_penalty_constant(self):
        assert ROLLBACK_PENALTY == 6  # the 6-stage pipeline depth

    def test_ledger_records_instruction_classes(self):
        engine = MulticoreEngine()
        engine.add_core(0, [assemble("add %r1, %r2, %r3\nnop")])
        engine.run(until_done=True)
        assert engine.ledger.count("instr.int_add") == 1
        assert engine.ledger.count("instr.nop") == 1
        assert engine.ledger.count("core.fetch") == 2

    def test_thread_switch_events(self):
        engine = MulticoreEngine()
        p = assemble("\n".join(["add %r1, %r2, %r3"] * 10))
        engine.add_core(0, [p, assemble("\n".join(["nop"] * 10))])
        engine.run(until_done=True)
        assert engine.ledger.count("core.thread_switch") > 5


class TestMulticoreEngine:
    def test_add_core_validation(self):
        engine = MulticoreEngine()
        engine.add_core(0, [assemble("nop")])
        with pytest.raises(ValueError, match="already active"):
            engine.add_core(0, [assemble("nop")])
        with pytest.raises(ValueError, match="out of range"):
            engine.add_core(99, [assemble("nop")])

    def test_too_many_threads(self):
        engine = MulticoreEngine()
        with pytest.raises(ValueError):
            engine.add_core(0, [assemble("nop")] * 3)

    def test_run_requires_cores(self):
        with pytest.raises(RuntimeError, match="no active cores"):
            MulticoreEngine().run(cycles=10)

    def test_run_requires_bound(self):
        engine = MulticoreEngine()
        engine.add_core(0, [assemble("nop")])
        with pytest.raises(ValueError):
            engine.run()

    def test_livelock_detection(self):
        engine = MulticoreEngine()
        engine.add_core(0, [assemble("loop: bne %r1, loop")],
                        init_regs={1: 1})
        with pytest.raises(RuntimeError, match="did not finish"):
            engine.run(until_done=True, max_cycles=1_000)

    def test_init_regs_apply_to_all_threads(self):
        engine = MulticoreEngine()
        p = assemble("add %r8, 0, %r1")
        engine.add_core(0, [p, p], init_regs={8: 123})
        engine.run(until_done=True)
        for thread in engine.cores[0].threads:
            assert thread.read_int(1) == 123

    def test_shared_memory_visible_across_cores(self):
        engine = MulticoreEngine()
        engine.add_core(
            0, [assemble("stx %r2, [%r1]")], init_regs={1: 0x40, 2: 9}
        )
        engine.add_core(
            1,
            [assemble("\n".join(["nop"] * 40) + "\nldx [%r1], %r3")],
            init_regs={1: 0x40},
        )
        engine.run(until_done=True)
        assert engine.cores[1].threads[0].read_int(3) == 9

    def test_fast_forward_counts_stalls(self):
        engine = MulticoreEngine()
        engine.add_core(0, [assemble("sdivx %r1, %r2, %r3\nnop")],
                        init_regs={1: 10, 2: 3})
        result = engine.run(until_done=True)
        core = engine.cores[0]
        assert core.stats.cycles == result.cycles
        assert core.stats.stall_cycles >= 70


    def test_stalled_core_is_not_stepped(self):
        """A core whose only thread waits on a divide is not stepped
        while another core keeps the engine visiting every cycle; the
        cycles it sits out still count as stall cycles."""
        engine = MulticoreEngine()
        slow = engine.add_core(0, [assemble("sdivx %r1, %r2, %r3\nnop")],
                               init_regs={1: 10, 2: 3})
        engine.add_core(1, [assemble("\n".join(["add %r1, %r2, %r3"] * 100))])
        steps = []
        step = slow.step

        def counting_step(now):
            steps.append(now)
            return step(now)

        slow.step = counting_step
        result = engine.run(until_done=True)
        assert result.cycles == 100
        assert steps == [0, 72]  # the sdivx, then the nop 72 cycles on
        assert slow.stats.cycles == 73
        assert slow.stats.stall_cycles == 71
        assert engine.ledger.count("core.stall_cycle") == 71


class TestSharedMemory:
    def test_word_aligned(self):
        mem = SharedMemory()
        mem.write(0x10, 5)
        assert mem.read(0x10) == 5
        assert mem.read(0x13) == 5  # same word
        assert mem.read(0x18) == 0

    def test_masking(self):
        mem = SharedMemory()
        mem.write(0, 1 << 70)
        assert mem.read(0) == (1 << 70) & WORD_MASK

    def test_load_image(self):
        mem = SharedMemory()
        mem.load_image({0x8: 1, 0x10: 2})
        assert mem.read(0x8) == 1 and mem.read(0x10) == 2
