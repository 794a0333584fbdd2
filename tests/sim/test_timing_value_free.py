"""Value-free timing runs report exactly the cycles of full runs.

``TimingSimulator.run_cycles`` runs a program over fresh zero-filled
memory nobody reads back, so the event engine may skip every lane
computation outside the program's *control slice* -- the registers,
predicates and memory spaces whose values can reach an address, a guard
or a branch.  These tests pin that the skip is invisible: the whole
:class:`~repro.sim.timing.TimingResult` of a value-free run equals the
full event run and the reference engine on the timing fuzz corpus, on the
profile legs the performance model runs on every device, and on a pointer
chase whose loaded values are the next addresses.
"""

import pytest

from repro.analysis import PerformanceModel
from repro.arch import DEVICES, RTX2070, T4, get_device
from repro.core.config import adapt_for_arch, cublas_like, ours
from repro.isa import Pred, ProgramBuilder, Reg
from repro.sim.memory import GlobalMemory
from repro.sim.timing import (
    TimingSimulator,
    _DecodedInst,
    _K_DEAD,
    _compile_event,
    _control_slice,
)

from .test_timing_differential import GMEM_BYTES, _random_program

pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)

PROFILE_MEM_BYTES = 16 << 20


def _three_ways(spec, program, num_ctas, mem_bytes):
    """(value-free, full event, reference) results, all from zeroed memory
    of *mem_bytes*.  The value-free run takes the environment's engine, so
    ``REPRO_TIMING_ENGINE=reference`` checks the entry's fallback and
    ``REPRO_GUARD`` watches it."""
    value_free = TimingSimulator(spec).run_cycles(program, mem_bytes,
                                                  num_ctas)
    full = TimingSimulator(spec, engine="event").run(
        program, GlobalMemory(mem_bytes), num_ctas=num_ctas)
    ref = TimingSimulator(spec, engine="reference").run(
        program, GlobalMemory(mem_bytes), num_ctas=num_ctas)
    return value_free, full, ref


def _dead_slots(spec, program):
    decoded = [_DecodedInst(inst, spec) for inst in program]
    kinds = _compile_event(decoded, value_free=True)[0]
    return kinds.count(_K_DEAD)


@pytest.mark.parametrize("spec", [RTX2070, T4], ids=["rtx2070", "t4"])
@pytest.mark.parametrize("seed", range(6))
def test_fuzz_corpus(spec, seed):
    program, num_ctas = _random_program(seed)
    value_free, full, ref = _three_ways(spec, program, num_ctas, GMEM_BYTES)
    assert value_free == ref
    assert full == ref


@pytest.mark.parametrize("config", [ours, cublas_like],
                         ids=["ours", "cublas-like"])
@pytest.mark.parametrize("device", list(DEVICES))
def test_profile_legs(device, config):
    spec = get_device(device)
    model = PerformanceModel(spec)
    adapted = adapt_for_arch(config(), spec.arch)
    ctas = model.ctas_per_sm(adapted)
    for iters in model.options.profile_iters:
        program = model._profile_program(adapted, iters)
        # The GEMM data path (fragment loads, HMMAs) never reaches an
        # address: elision must actually fire on these programs.
        assert _dead_slots(spec, program) > 0
        value_free, full, ref = _three_ways(spec, program, ctas,
                                            PROFILE_MEM_BYTES)
        assert value_free == full == ref


def _in_program_chase(hops=24, stride=2048):
    """Each lane builds a ring of pointers with STG, then chases it: every
    hop's address is the value the previous LDG loaded.  The ring is
    written by the program itself, so the chain only holds if the slice
    keeps the load, the store feeding it (through the memory token) and
    the ALU ops computing the stored pointer (through the closure)."""
    base = 0x10000
    b = ProgramBuilder(name="vf_chase", num_regs=16, block_dim=32)
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(3, Reg(2), stride, base, stall=6)      # this lane's node
    b.iadd3(4, Reg(2), 1, stall=6)
    b.lop3_and(4, Reg(4), 31, stall=6)            # next lane, mod 32
    b.imad(5, Reg(4), stride, base, stall=6)      # pointer to next node
    b.stg(3, 5, width=32, stall=4, wb=1)
    b.mov(6, Reg(3), wait=(1,), stall=6)
    for _ in range(hops):
        b.ldg(6, 6, width=32, stall=1, wb=0)      # R6 = *R6
        b.nop(stall=1, wait=(0,))
    b.iadd3(7, Reg(6), 4, stall=6)
    b.isetp(Pred(0), Reg(6), base, cmp="GE", stall=6)
    b.stg(7, 2, width=32, pred=Pred(0), stall=4)  # guarded by a loaded value
    b.exit()
    return b.build()


def test_pointer_chase():
    program = _in_program_chase()
    value_free, full, ref = _three_ways(RTX2070, program, 1, 1 << 20)
    assert value_free == full == ref
    decoded = [_DecodedInst(inst, RTX2070) for inst in program]
    live = _control_slice(decoded)
    # The chained load's destination is its own next address.
    assert 6 in live
    # The stored pointer reaches the chain through global memory.
    assert 5 in live
