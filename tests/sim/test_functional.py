"""Tests for the grid-level functional simulator."""

import numpy as np
import pytest

from repro.isa import assemble
from repro.sim import FunctionalSimulator, GlobalMemory, SimLimitError
from repro.sim.exec_units import ExecError

# Writes tid to out[tid] for a 64-thread CTA, one CTA.
STORE_TID = """
.kernel store_tid
.block 64
  S2R R1, SR_TID.X
  IMAD R2, R1, 4, RZ
  STG.E.32 [R2], R1
  EXIT
"""


class TestBasicKernels:
    def test_store_tid(self):
        gm = GlobalMemory(4096)
        sim = FunctionalSimulator()
        result = sim.run(assemble(STORE_TID), gm)
        np.testing.assert_array_equal(
            gm.read_array(0, np.uint32, 64), np.arange(64)
        )
        assert result.ctas_run == 1
        assert result.opcode_counts["STG"] == 2  # one per warp

    def test_grid_indexing(self):
        # Each CTA writes its ctaid.x at out[ctaid.x].
        src = """
        .block 32
          S2R R1, SR_CTAID.X
          IMAD R2, R1, 4, RZ
          STG.E.32 [R2], R1
          EXIT
        """
        gm = GlobalMemory(1024)
        result = FunctionalSimulator().run(assemble(src), gm, grid_dim=(5, 1))
        np.testing.assert_array_equal(gm.read_array(0, np.uint32, 5), np.arange(5))
        assert result.ctas_run == 5

    def test_2d_grid(self):
        src = """
        .block 32
          S2R R1, SR_CTAID.X
          S2R R2, SR_CTAID.Y
          IMAD R3, R2, 3, R1      // flat = y*3 + x
          IMAD R4, R3, 4, RZ
          STG.E.32 [R4], R3
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm, grid_dim=(3, 4))
        np.testing.assert_array_equal(gm.read_array(0, np.uint32, 12), np.arange(12))


class TestLoops:
    def test_counted_loop(self):
        # Sum 0..9 per lane, store lane sums.
        src = """
        .block 32
          MOV32I R1, 0        // i
          MOV32I R2, 0        // acc
        LOOP:
          IADD3 R2, R2, R1, RZ
          IADD3 R1, R1, 1, RZ
          ISETP.LT.AND P0, PT, R1, 10, PT
          @P0 BRA LOOP
          S2R R3, SR_TID.X
          IMAD R4, R3, 4, RZ
          STG.E.32 [R4], R2
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm)
        assert np.all(gm.read_array(0, np.uint32, 32) == 45)

    def test_runaway_loop_fuel(self):
        src = """
        .block 32
        LOOP:
          BRA LOOP
        """
        sim = FunctionalSimulator(max_instructions_per_warp=1000)
        with pytest.raises(SimLimitError, match="exceeded"):
            sim.run(assemble(src), GlobalMemory(64))


class TestBarriers:
    def test_inter_warp_communication(self):
        # Warp 0 writes shared[0..31]; after BAR, warp 1 reads it and stores.
        src = """
        .kernel xwarp
        .block 64
        .smem 256
          S2R R1, SR_TID.X
          ISETP.LT.AND P0, PT, R1, 32, PT    // P0: warp 0 lanes
          IMAD R2, R1, 4, RZ                 // tid*4
          IADD3 R3, R1, 100, RZ
          @P0 STS [R2], R3
          BAR.SYNC
          IADD3 R4, R2, -128, RZ             // warp1: (tid-32)*4
          @!P0 LDS R5, [R4]
          @!P0 STG.E.32 [R4], R5
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm)
        np.testing.assert_array_equal(
            gm.read_array(0, np.uint32, 32), np.arange(32) + 100
        )

    def test_multiple_barriers(self):
        # Two rounds of ping-pong through shared memory.
        src = """
        .block 64
        .smem 128
          S2R R1, SR_TID.X
          ISETP.LT.AND P0, PT, R1, 32, PT
          LOP3.AND R2, R1, 31
          IMAD R2, R2, 4, RZ                 // lane*4
          @P0 STS [R2], R1
          BAR.SYNC
          @!P0 LDS R3, [R2]
          @!P0 IADD3 R3, R3, 1, RZ
          @!P0 STS [R2], R3
          BAR.SYNC
          @P0 LDS R4, [R2]
          @P0 IMAD R5, R1, 4, RZ
          @P0 STG.E.32 [R5], R4
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm)
        np.testing.assert_array_equal(
            gm.read_array(0, np.uint32, 32), np.arange(32) + 1
        )


def _run_engines(program, grid, engines=("gridlock", "reference")):
    """Run *program* on each engine from fresh memory; return per-engine
    (memory words, retired, opcode counts, CTAs, grid_destacks, destacks)."""
    from repro.perf.stats import STATS

    outcomes = {}
    for engine in engines:
        gm = GlobalMemory(64 * 1024)
        STATS.counters.pop("func.grid_destacks", None)
        STATS.counters.pop("func.destacks", None)
        result = FunctionalSimulator(engine=engine).run(program, gm,
                                                        grid_dim=grid)
        outcomes[engine] = (gm._words.copy(), result.instructions_retired,
                            dict(result.opcode_counts), result.ctas_run,
                            STATS.counters.get("func.grid_destacks", 0),
                            STATS.counters.get("func.destacks", 0))
    return outcomes


def _assert_same_run(outcomes):
    got, want = outcomes["gridlock"], outcomes["reference"]
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1:4] == want[1:4]


class TestGridLockstep:
    def test_cta_divergent_branch_destacks(self):
        # CTAs 0-1 take the @P0 branch, CTAs 2-3 fall through: grid-uniform
        # execution must refuse at the divergent BRA, de-stack to per-CTA
        # runs, and still match the reference interpreter bit for bit.
        src = """
        .block 32
          S2R R1, SR_CTAID.X
          S2R R2, SR_TID.X
          IMAD R3, R1, 128, RZ
          IMAD R4, R2, 4, R3                 // &out[ctaid*32 + tid]
          ISETP.LT.AND P0, PT, R1, 2, PT     // P0: ctaid < 2
          @P0 BRA SMALL
          MOV32I R5, 777
          STG.E.32 [R4], R5
          EXIT
        SMALL:
          MOV32I R5, 111
          STG.E.32 [R4], R5
          EXIT
        """
        outcomes = _run_engines(assemble(src), (4, 1))
        want = np.repeat([111, 111, 777, 777], 32).astype(np.uint32)
        np.testing.assert_array_equal(outcomes["gridlock"][0][:128], want)
        _assert_same_run(outcomes)
        assert outcomes["gridlock"][4] >= 1

    def test_uniform_grid_stays_stacked(self):
        # Identical control flow in every CTA: the stacked state should
        # never fall back, and memory must match the reference exactly.
        src = """
        .block 32
          S2R R1, SR_CTAID.X
          S2R R2, SR_TID.X
          IMAD R3, R1, 128, RZ
          IMAD R4, R2, 4, R3
          IADD3 R5, R1, R2, RZ
          STG.E.32 [R4], R5
          EXIT
        """
        outcomes = _run_engines(assemble(src), (6, 1))
        _assert_same_run(outcomes)
        assert outcomes["gridlock"][4:] == (0, 0)

    def test_destack_ladder_runs_every_rung(self):
        # Warp w of CTA c loops w + c + 1 times: the CTAs disagree (grid ->
        # CTA de-stack) and so do the warps within each CTA (CTA -> warp
        # de-stack).  Both internal rungs must fire and still match the
        # reference interpreter.
        from .test_uop_differential import LOOP_TRIPS_BY_WARP

        outcomes = _run_engines(assemble(LOOP_TRIPS_BY_WARP), (2, 1))
        _assert_same_run(outcomes)
        assert outcomes["gridlock"][4] >= 1
        assert outcomes["gridlock"][5] >= 1

    def test_destack_carries_shared_memory(self):
        # Shared memory written before a CTA-divergent branch must follow
        # each CTA down to its own 1-CTA state, then to its warps.
        src = """
        .smem 512
        .block 64
          S2R R1, SR_TID.X
          S2R R2, SR_CTAID.X
          IMAD R3, R1, 4, RZ
          IMAD R4, R2, 100, R1
          STS [R3], R4
          BAR.SYNC
          LOP3.XOR R5, R1, 0x20
          IMAD R5, R5, 4, RZ
          SHF.R R6, R1, 5
          ISETP.EQ.AND P0, PT, R6, R2, PT    // warp index == ctaid
          @P0 BRA SKIP
          LDS R7, [R5]
          IMAD R8, R2, 64, R1
          IMAD R8, R8, 4, RZ
          STG.E.32 [R8], R7
        SKIP:
          EXIT
        """
        outcomes = _run_engines(assemble(src), (2, 1))
        _assert_same_run(outcomes)
        assert outcomes["gridlock"][4] >= 1
        assert outcomes["gridlock"][5] >= 1
        got = outcomes["gridlock"][0][:128]
        assert got[33] == 1 and got[64] == 100 + 0x20

    def test_one_warp_cta_reads_clock_under_partial_predicate(self):
        # A 1-warp CTA's stacked state runs the 32-lane decoding, whose
        # partially predicated CS2R takes the reference path: the state
        # must answer ``clock()`` like a warp does.
        src = """
        .block 32
          S2R R1, SR_TID.X
          ISETP.LT.AND P0, PT, R1, 16, PT
          MOV32I R2, 7
          @P0 CS2R R2, SR_CLOCKLO
          S2R R4, SR_CTAID.X
          IMAD R3, R4, 32, R1
          IMAD R3, R3, 4, RZ
          STG.E.32 [R3], R2
          EXIT
        """
        outcomes = _run_engines(assemble(src), (2, 1))
        _assert_same_run(outcomes)
        got = outcomes["gridlock"][0][:64].reshape(2, 32)
        assert (got[:, 16:] == 7).all() and (got[:, :16] != 7).all()

    def test_ragged_last_chunk(self):
        # 9 CTAs of 8 warps do not divide into the lane budget's chunks;
        # the ragged last chunk needs its own decoding and shared segments.
        from repro.sim import functional

        src = """
        .smem 1024
        .block 256
          S2R R1, SR_TID.X
          S2R R2, SR_CTAID.X
          IMAD R3, R1, 4, RZ                 // &smem[tid]
          IMAD R4, R2, 1000, R1
          STS [R3], R4
          BAR.SYNC
          LOP3.XOR R5, R1, 0x20              // partner in the next warp
          IMAD R5, R5, 4, RZ
          LDS R6, [R5]
          IMAD R7, R2, 256, R1
          IMAD R7, R7, 4, RZ
          STG.E.32 [R7], R6
          EXIT
        """
        program = assemble(src)
        chunk = functional._GRIDLOCK_LANES // (program.meta.warps_per_cta
                                               * 32)
        assert 9 % chunk != 0
        outcomes = _run_engines(program, (9, 1))
        _assert_same_run(outcomes)
        assert outcomes["gridlock"][4:] == (0, 0)
        got = outcomes["gridlock"][0][:9 * 256].reshape(9, 256)
        assert got[8, 0] == 8 * 1000 + 0x20


class TestErrors:
    def test_missing_exit(self):
        src = ".block 32\nNOP\n"
        with pytest.raises(ExecError, match="missing EXIT"):
            FunctionalSimulator().run(assemble(src), GlobalMemory(64))

    def test_instruction_counting(self):
        gm = GlobalMemory(4096)
        result = FunctionalSimulator().run(assemble(STORE_TID), gm)
        # 2 warps x 4 instructions.
        assert result.instructions_retired == 8
