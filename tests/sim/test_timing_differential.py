"""Differential fuzz: the two timing engines are cycle-identical.

Mirrors ``tests/sim/test_uop_differential.py`` one layer up: where that
suite pins the *functional* engines to one semantics table, this one pins
the *timing* engines (``reference`` and ``event``) to one cycle-for-cycle
model.  Randomized programs covering every opcode class -- ALU, shifts,
logic, predicates, special registers, clock reads, HFMA2, all three MMA
forms, global/shared loads and stores at every width, barriers and loops --
with random stall counts, random scoreboard write/wait masks and random
yield flags run on both engines over both GpuSpecs, and the complete
:class:`~repro.sim.timing.TimingResult` must compare equal: total cycles,
instruction counts, per-opcode counts (hence ``cpi_of``), per-pipe busy
time (hence ``pipe_utilization``), stall-reason breakdowns and memory
traffic counters.  Final global-memory images must match bit-for-bit too,
which makes every CS2R.CLOCKLO snapshot a self-check: a one-cycle issue
divergence anywhere changes the stored clock values.

Because the event engine's block-status caches, issue plans and compiled
closures are all *derived* views of the reference semantics, any mismatch
here is a bug in the event engine's bookkeeping, not model ambiguity.
"""

import numpy as np
import pytest

from repro.arch import RTX2070, T4
from repro.isa import Pred, ProgramBuilder, Reg
from repro.sim.memory import GlobalMemory
from repro.sim.timing import TimingSimulator

# Random register garbage routinely decodes to fp16 NaN/Inf; both engines
# propagate them identically, so the IEEE warnings are noise.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)

GMEM_BYTES = 1 << 16

#: Opcodes every generated program is guaranteed to exercise.
EXPECTED_OPCODES = {
    "MOV", "MOV32I", "IADD3", "IMAD", "SHF", "LOP3", "ISETP", "SEL", "S2R",
    "CS2R", "HFMA2", "HMMA", "IMMA", "LDG", "STG", "LDS", "STS", "NOP",
    "BAR", "BRA", "EXIT",
}


def _random_program(seed):
    """One randomized multi-warp kernel: a short loop whose body interleaves
    every opcode class in shuffled order with random control fields, plus a
    straight MMA run (exercises the event engine's issue plans) and an
    STS burst (fills the MIO queue, exercising the MIO-full stall path)."""
    rng = np.random.default_rng(seed)
    block = int(rng.choice([32, 64, 128, 256]))
    b = ProgramBuilder(name=f"fuzz{seed}", num_regs=64, smem_bytes=8192,
                       block_dim=block)

    def ctrl(max_stall=8):
        kw = {"stall": int(rng.integers(1, max_stall + 1))}
        if rng.random() < 0.25:
            waits = np.flatnonzero(rng.random(6) < 0.3)
            if waits.size:
                kw["wait"] = tuple(int(x) for x in waits)
        if rng.random() < 0.15:
            kw["wb"] = int(rng.integers(0, 6))
        if rng.random() < 0.10:
            kw["rb"] = int(rng.integers(0, 6))
        if rng.random() < 0.10:
            kw["yield_flag"] = True
        return kw

    def rand_width():
        return int(rng.choice([32, 64, 128]))

    # Prologue: lane-strided, 16-byte-aligned addresses (valid for every
    # access width), divergent predicates (P3 splits warp 0's lanes), and a
    # uniform loop counter.
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(3, Reg(2), 16, 0x1000, stall=6)   # global address
    b.imad(4, Reg(2), 16, 0, stall=6)        # shared address
    b.isetp(Pred(1), Reg(2), 64, cmp="LT", stall=6)
    b.isetp(Pred(3), Reg(2), 16, cmp="LT", stall=6)
    b.mov32i(1, int(rng.integers(2, 4)), stall=6)

    # The loop body: one emitter per opcode class, shuffled, each with
    # randomized control fields.  LDG writes a scoreboard a later LDS waits
    # on, so the variable-latency release path is always crossed.
    wb = int(rng.integers(0, 6))
    body = [
        lambda: b.mov(10, Reg(3), **ctrl()),
        lambda: b.mov(11, Reg(2), pred=Pred(1), **ctrl()),  # predicated
        lambda: b.mov32i(12, int(rng.integers(0, 1 << 31)), **ctrl()),
        lambda: b.iadd3(13, Reg(10), Reg(12), Reg(2), **ctrl()),
        lambda: b.imad(14, Reg(2), 3, 7, **ctrl()),
        lambda: b.shf_l(15, Reg(2), int(rng.integers(1, 8)), **ctrl()),
        lambda: b.shf_r(16, Reg(13), Reg(2), **ctrl()),
        lambda: b.lop3_and(17, Reg(13), Reg(14), **ctrl()),
        lambda: b.lop3_or(18, Reg(2), int(rng.integers(0, 256)), **ctrl()),
        lambda: b.lop3_xor(19, Reg(17), Reg(18), **ctrl()),
        lambda: b.isetp(Pred(2), Reg(13), Reg(14),
                        cmp=str(rng.choice(["LT", "GE", "NE"])), **ctrl()),
        lambda: b.sel(20, Reg(13), Reg(14), Pred(1), **ctrl()),
        lambda: b.s2r(21, str(rng.choice(["SR_LANEID", "SR_CTAID.X"])),
                      **ctrl()),
        lambda: b.cs2r_clock(22, **ctrl()),
        lambda: b.hfma2(23, Reg(13), Reg(14), Reg(17), **ctrl()),
        lambda: b.hmma_884(48, 8, 10, 48, **ctrl()),
        lambda: b.hmma_1688(44, 8, 10, 44, f32=True, **ctrl()),
        lambda: b.imma_8816(52, 8, 10, 52, **ctrl()),
        lambda: b.ldg(24, 3, offset=0, width=rand_width(), wb=wb,
                      **{k: v for k, v in ctrl().items() if k != "wb"}),
        lambda: b.ldg(28, 3, offset=64,
                      width=rand_width(), bypass_l1=True, **ctrl()),
        lambda: b.stg(3, 13, offset=0x2000, width=32, **ctrl()),
        lambda: b.lds(32, 4, offset=0, width=rand_width(),
                      wait=(wb,), stall=int(rng.integers(1, 9))),
        lambda: b.sts(4, 13, offset=0, width=rand_width(), **ctrl()),
        # Guarded memory: all-on, all-off and lane-divergent masks occur.
        lambda: b.ldg(56, 3, offset=128, width=32, pred=Pred(2), **ctrl()),
        lambda: b.sts(4, 14, offset=2048, width=64, pred=Pred(3), **ctrl()),
        lambda: b.nop(**ctrl()),
    ]

    b.label("LOOP")
    rng.shuffle(body)
    for emit in body:
        emit()
    # Straight MMA run: batched by the event engine's issue plans.
    for _ in range(int(rng.integers(4, 9))):
        b.hmma_1688(40, 8, 10, 40, stall=8)
    # STS burst at stall=1: overruns the MIO queue depth.
    for _ in range(int(rng.integers(8, 14))):
        b.sts(4, 14, offset=4096, width=32, stall=1)
    b.bar_sync(stall=1)
    b.iadd3(1, Reg(1), -1, stall=6)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=6)
    b.bra("LOOP", pred=Pred(0), stall=5)
    # Clock epilogue: stores the final cycle, so any issue-timing divergence
    # between engines becomes a memory-image mismatch.
    b.cs2r_clock(36, stall=2)
    b.stg(3, 36, offset=0x3000, width=32, stall=4)
    b.exit()
    return b.build(), 1 + seed % 2


def _run(spec, program, num_ctas, engine):
    gm = GlobalMemory(GMEM_BYTES)
    fill = np.random.default_rng(99)
    gm._words[:] = fill.integers(0, 1 << 32, GMEM_BYTES // 4, dtype=np.uint32)
    sim = TimingSimulator(spec, engine=engine)
    result = sim.run(program, gm, num_ctas=num_ctas)
    return result, gm


@pytest.mark.parametrize("spec", [RTX2070, T4], ids=["rtx2070", "t4"])
@pytest.mark.parametrize("seed", range(6))
def test_engines_bit_identical(spec, seed):
    program, num_ctas = _random_program(seed)
    ref, ref_gm = _run(spec, program, num_ctas, "reference")
    evt, evt_gm = _run(spec, program, num_ctas, "event")

    # The whole result object: cycles, instructions, opcode counts, pipe
    # busy totals, stall reasons, traffic counters.
    assert evt == ref

    # Derived views agree for every opcode and pipe the run touched (and
    # for pipes it did not).
    assert set(ref.opcode_counts) >= EXPECTED_OPCODES
    for opcode in ref.opcode_counts:
        assert evt.cpi_of(opcode) == ref.cpi_of(opcode)
    for pipe in ("tensor", "alu", "fma", "lsu", "xu-not-modelled"):
        assert evt.pipe_utilization(pipe) == ref.pipe_utilization(pipe)

    # Bit-identical memory images: every stored CS2R clock snapshot is an
    # issue-cycle witness.
    np.testing.assert_array_equal(evt_gm._words, ref_gm._words)


# ------------------------------------------------------------- loop shapes

def _steady_loop_program(seed, iters=48):
    """A uniform steady-state loop: every iteration issues the same slots
    with the same control fields.  Loop-carried data (the counter feeds the
    ALU chain and the STS payload) makes values change every iteration even
    though the schedule does not, so the stored clock and payload catch any
    iteration the event engine gets wrong."""
    rng = np.random.default_rng(seed)
    block = int(rng.choice([32, 64]))
    b = ProgramBuilder(name=f"steady{seed}", num_regs=64, smem_bytes=8192,
                       block_dim=block)
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(4, Reg(2), 16, 0, stall=6)         # shared address
    b.imad(3, Reg(2), 16, 0x1000, stall=6)    # global address
    b.mov32i(1, iters, stall=6)
    width = int(rng.choice([32, 64, 128]))
    mma_run = int(rng.integers(3, 7))
    b.label("LOOP")
    b.iadd3(10, Reg(2), 5, Reg(1), stall=6)
    b.hfma2(23, Reg(10), Reg(2), Reg(10), stall=4)
    for _ in range(mma_run):
        b.hmma_1688(40, 8, 10, 40, stall=8)
    b.sts(4, 10, offset=0, width=width, stall=4)
    b.lds(32, 4, offset=0, width=width, wb=0, stall=6)
    b.bar_sync(stall=2)
    b.iadd3(1, Reg(1), -1, wait=(0,), stall=6)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=6)
    b.bra("LOOP", pred=Pred(0), stall=5)
    b.cs2r_clock(36, stall=2)
    b.stg(3, 36, offset=0x3000, width=32, stall=4)
    b.exit()
    return b.build()


def _aperiodic_loop_program(iters=48):
    """A loop whose iteration *timing* never settles: the LDS/STS address
    is ``tid * counter * 4``, so the bank-conflict multiplier follows
    gcd(counter, 32) -- a ruler sequence that changes the MIO drain time
    from one iteration to the next."""
    b = ProgramBuilder(name="aperiodic", num_regs=64, smem_bytes=8192,
                       block_dim=32)
    b.s2r(2, "SR_TID.X", stall=6)
    b.mov32i(1, iters, stall=6)
    b.imad(3, Reg(2), 16, 0x1000, stall=6)
    b.label("LOOP")
    b.imad(5, Reg(2), Reg(1), 0, stall=6)     # tid * counter
    b.shf_l(6, Reg(5), 2, stall=6)            # -> byte address
    b.lds(32, 6, offset=0, width=32, stall=6)
    b.sts(6, 2, offset=0, width=32, stall=4)
    b.iadd3(1, Reg(1), -1, stall=6)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=6)
    b.bra("LOOP", pred=Pred(0), stall=5)
    b.cs2r_clock(36, stall=2)
    b.stg(3, 36, offset=0x3000, width=32, stall=4)
    b.exit()
    return b.build()


def _assert_engines_agree(program):
    ref, ref_gm = _run(RTX2070, program, 1, "reference")
    evt, evt_gm = _run(RTX2070, program, 1, "event")
    assert evt == ref
    np.testing.assert_array_equal(evt_gm._words, ref_gm._words)


@pytest.mark.parametrize("seed", range(4))
def test_steady_loop_bit_identical(seed):
    """A periodic loop: event and reference agree on the whole result and
    the final memory image."""
    _assert_engines_agree(_steady_loop_program(seed))


def test_aperiodic_loop_bit_identical():
    """A loop whose per-iteration timing keeps changing: still identical."""
    _assert_engines_agree(_aperiodic_loop_program())


def test_default_engine_is_event(monkeypatch):
    monkeypatch.delenv("REPRO_TIMING_ENGINE", raising=False)
    assert TimingSimulator(RTX2070).engine == "event"
    monkeypatch.setenv("REPRO_TIMING_ENGINE", "reference")
    assert TimingSimulator(RTX2070).engine == "reference"
    monkeypatch.setenv("REPRO_TIMING_ENGINE", "bogus")
    with pytest.raises(ValueError, match="REPRO_TIMING_ENGINE"):
        TimingSimulator(RTX2070)
