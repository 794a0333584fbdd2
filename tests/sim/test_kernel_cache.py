"""Kernel cache and content-keyed decode memo.

Functional launches build each (config, problem, device) kernel once
(:func:`repro.core.builder.cached_build`) and compile each (instruction,
lanes) slot and fused window once (the memo in :mod:`repro.sim.decode`).
These tests pin what reuse must never change: results, retire counts and
the separation of kernels that differ in anything they depend on.
"""

import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.arch import get_device
from repro.core import builder, hgemm, hgemm_reference
from repro.core.builder import HgemmProblem, build_hgemm, cached_build
from repro.core.hgemm import resolve_config
from repro.isa import assemble, encode_program
from repro.perf import STATS
from repro.sim import FunctionalSimulator, GlobalMemory, decode, functional

from .test_uop_differential import LOOP_TRIPS_BY_WARP

def _operands(seed, m, n, k):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
    return a, b


def _counters():
    return dict(STATS.counters)


def _gained(before, name):
    return STATS.counters.get(name, 0) - before.get(name, 0)


class TestRelaunch:
    def test_second_launch_builds_and_decodes_nothing(self):
        m, n, k = 64, 128, 64
        a1, b1 = _operands(1, m, n, k)
        a2, b2 = _operands(2, m, n, k)
        first = hgemm(a1, b1)
        np.testing.assert_array_equal(first, hgemm_reference(a1, b1))
        before = _counters()
        second = hgemm(a2, b2)
        np.testing.assert_array_equal(second, hgemm_reference(a2, b2))
        assert _gained(before, "kernel.builds") == 0
        assert _gained(before, "kernel.hits") == 1
        assert _gained(before, "decode.memo_misses") == 0
        assert _gained(before, "decode.memo_hits") > 0

    def test_cached_program_is_immutable(self):
        config = resolve_config("ours", 64, 64, 64)
        program = cached_build(build_hgemm, config,
                               HgemmProblem(64, 64, 64, 0, 8192, 16384))
        assert isinstance(program.instructions, tuple)
        with pytest.raises(TypeError):
            program.instructions[0] = program.instructions[1]

    def test_instruction_hash_is_not_pickled(self):
        inst = assemble("  IADD3 R1, R2, 7, RZ\n  EXIT\n")[0]
        hash(inst)
        clone = pickle.loads(pickle.dumps(inst))
        assert "_hash" not in clone.__dict__
        assert clone == inst and hash(clone) == hash(inst)


def _launch(program, config, problem, m, n, a, b, size=1 << 20):
    """Run *program* with A/B at *problem*'s addresses; return the memory."""
    mem = GlobalMemory(size)
    mem.write_array(problem.a_addr, a)
    mem.write_array(problem.b_addr, np.ascontiguousarray(b.T))
    FunctionalSimulator().run(program, mem, grid_dim=config.grid_dim(m, n))
    return mem


class TestKeySeparation:
    M = N = K = 64

    def test_scalars_never_share_a_kernel(self):
        a, b = _operands(3, self.M, self.N, self.K)
        c = _operands(4, self.M, self.N, self.K)[0][:, :self.N]
        programs = []
        for alpha, beta in ((1.0, 0.0), (0.5, 0.0), (0.0, 0.0), (-0.0, 0.0),
                            (1.0, 0.25), (1.0, -0.5)):
            run = hgemm(a, b, alpha=alpha, beta=beta, c=c, return_run=True)
            want = hgemm_reference(a, b, alpha=alpha, beta=beta, c=c)
            np.testing.assert_array_equal(run.c, want)
            problem = HgemmProblem(self.M, self.N, self.K, 0, 8192, 16384,
                                   alpha=alpha, beta=beta)
            programs.append(cached_build(build_hgemm, run.config, problem))
        assert len({id(p) for p in programs}) == len(programs)
        # alpha 0.0 == -0.0, but the two kernels carry different HFMA2 bits.
        assert programs[2].instructions != programs[3].instructions

    def test_operand_addresses_never_share_a_kernel(self):
        m, n, k = self.M, self.N, self.K
        a, b = _operands(5, m, n, k)
        config = resolve_config("ours", m, n, k)
        want = hgemm_reference(a, b)
        base = HgemmProblem(m, n, k, 0, 8192, 16384)
        variants = [base,
                    HgemmProblem(m, n, k, 0, 8192, 65536),     # C moved
                    HgemmProblem(m, n, k, 32768, 8192, 16384),  # A moved
                    HgemmProblem(m, n, k, 0, 40960, 16384)]     # B moved
        programs = []
        for problem in variants:
            program = cached_build(build_hgemm, config, problem)
            programs.append(program)
            mem = _launch(program, config, problem, m, n, a, b)
            got = mem.read_array(problem.c_addr, np.float16, m * n)
            np.testing.assert_array_equal(got.reshape(m, n), want)
        assert len({id(p) for p in programs}) == len(programs)

    def test_accumulate_never_shares_a_kernel(self):
        a, b = _operands(6, self.M, self.N, self.K)
        f16 = hgemm(a, b, accumulate="f16", return_run=True)
        f32 = hgemm(a, b, accumulate="f32", return_run=True)
        np.testing.assert_array_equal(f16.c, hgemm_reference(a, b))
        np.testing.assert_array_equal(
            f32.c, hgemm_reference(a, b, accumulate="f32"))
        problem = HgemmProblem(self.M, self.N, self.K, 0, 8192, 16384)
        assert (cached_build(build_hgemm, f16.config, problem)
                is not cached_build(build_hgemm, f32.config, problem))

    def test_devices_never_share_a_kernel(self):
        a, b = _operands(7, self.M, self.N, self.K)
        problem = HgemmProblem(self.M, self.N, self.K, 0, 8192, 16384)
        programs = []
        for name in ("RTX2070", "T4", "V100", "A100"):
            spec = get_device(name)
            run = hgemm(a, b, spec=spec, return_run=True)
            np.testing.assert_array_equal(
                run.c, hgemm_reference(a, b, w_k=run.config.w_k))
            programs.append(cached_build(build_hgemm, run.config, problem,
                                         spec))
        assert len({id(p) for p in programs}) == len(programs)


class TestBounds:
    def test_kernel_lru_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(builder, "KERNEL_CACHE_SIZE", 2)
        monkeypatch.setattr(builder, "_KERNELS", {})
        config = resolve_config("ours", 64, 64, 64)
        p1, p2, p3 = (HgemmProblem(64, 64, 64, 0, 8192, c_addr)
                      for c_addr in (16384, 24576, 32768))
        k1 = cached_build(build_hgemm, config, p1)
        k2 = cached_build(build_hgemm, config, p2)
        assert cached_build(build_hgemm, config, p1) is k1  # p1 now newest
        before = _counters()
        cached_build(build_hgemm, config, p3)               # evicts p2
        assert _gained(before, "kernel.builds") == 1
        assert len(builder._KERNELS) == 2
        assert cached_build(build_hgemm, config, p1) is k1
        rebuilt = cached_build(build_hgemm, config, p2)
        assert rebuilt is not k2
        assert rebuilt.instructions == k2.instructions
        assert encode_program(rebuilt) == encode_program(k2)

    def test_evicted_kernel_relaunches_bit_identically(self, monkeypatch):
        m, n, k = 64, 64, 64
        a, b = _operands(8, m, n, k)
        first = hgemm(a, b, return_run=True)
        monkeypatch.setattr(builder, "_KERNELS", {})
        monkeypatch.setattr(decode, "_MEMO", {})
        again = hgemm(a, b, return_run=True)
        np.testing.assert_array_equal(first.c.view(np.uint16),
                                      again.c.view(np.uint16))
        assert first.stats.opcode_counts == again.stats.opcode_counts

    def test_decode_memo_keeps_the_newest_entries(self, monkeypatch):
        monkeypatch.setattr(decode, "_MEMO_SIZE", 16)
        monkeypatch.setattr(decode, "_MEMO", {})
        program = assemble(LOOP_TRIPS_BY_WARP)
        decode.predecode(program)
        assert len(decode._MEMO) == 16
        # Slots decode in program order: the first slot's entry is gone,
        # the last one's is kept.
        assert (program.instructions[0], 32) not in decode._MEMO
        assert (program.instructions[-1], 32) in decode._MEMO
        gm_bounded = GlobalMemory(64 * 1024)
        bounded = FunctionalSimulator().run(program, gm_bounded, (2, 1))
        assert len(decode._MEMO) <= 16
        monkeypatch.setattr(decode, "_MEMO_SIZE", 8192)
        gm = GlobalMemory(64 * 1024)
        full = FunctionalSimulator().run(program, gm, (2, 1))
        np.testing.assert_array_equal(gm_bounded._words, gm._words)
        assert bounded.opcode_counts == full.opcode_counts


def _run(program, grid, engine="gridlock"):
    gm = GlobalMemory(64 * 1024)
    result = FunctionalSimulator(engine=engine).run(program, gm,
                                                    grid_dim=grid)
    return gm._words.copy(), result.instructions_retired, \
        dict(result.opcode_counts)


DESTACK_SHARED = """
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
  ISETP.EQ.AND P0, PT, R6, R2, PT
  @P0 BRA SKIP
  LDS R7, [R5]
  IMAD R8, R2, 64, R1
  IMAD R8, R8, 4, RZ
  STG.E.32 [R8], R7
SKIP:
  EXIT
"""


class TestSharedClosures:
    @pytest.mark.parametrize("src", [LOOP_TRIPS_BY_WARP, DESTACK_SHARED],
                             ids=["trips_by_warp", "destack_shared"])
    def test_destacking_launch_repeats_on_a_warm_memo(self, src):
        want = _run(assemble(src), (2, 1), engine="reference")
        before = _counters()
        first = _run(assemble(src), (2, 1))
        assert _gained(before, "func.grid_destacks") >= 1
        before = _counters()
        second = _run(assemble(src), (2, 1))
        assert _gained(before, "decode.memo_misses") == 0
        assert _gained(before, "func.grid_destacks") >= 1
        for got in (first, second):
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    def test_sharded_launch_on_a_warm_cache_equals_serial(self):
        m, n, k = 128, 256, 64
        a, b = _operands(9, m, n, k)
        serial = hgemm(a, b, kernel="cublas", return_run=True)
        sharded = hgemm(a, b, kernel="cublas", max_workers=2,
                        return_run=True)
        np.testing.assert_array_equal(serial.c.view(np.uint16),
                                      sharded.c.view(np.uint16))
        np.testing.assert_array_equal(serial.c, hgemm_reference(a, b))
        assert serial.stats.opcode_counts == sharded.stats.opcode_counts
        assert sharded.stats.ctas_run == serial.stats.ctas_run >= 2


class TestWindowTables:
    def test_tables_live_for_one_launch(self, monkeypatch):
        captured = []
        init = functional._GridState.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            captured.append(self.tables)

        monkeypatch.setattr(functional._GridState, "__init__", spy)
        m, n, k = 128, 128, 64
        a, b = _operands(10, m, n, k)
        runs, refs = [], []
        for _ in range(2):
            captured.clear()
            runs.append(hgemm(a, b, return_run=True))
            arrays = [arr for tab in captured[0].values() if tab
                      for arr in tab[1:]]
            assert arrays, "the launch built no HMMA.1688 window tables"
            refs.append([weakref.ref(arr) for arr in arrays])
            del arrays
            captured.clear()
            gc.collect()
            # Nothing outlives the launch: no window holds a table.
            assert all(ref() is None for ref in refs[-1])
        np.testing.assert_array_equal(runs[0].c.view(np.uint16),
                                      runs[1].c.view(np.uint16))
        np.testing.assert_array_equal(runs[0].c, hgemm_reference(a, b))
        assert runs[0].stats.opcode_counts == runs[1].stats.opcode_counts
        assert len(refs[0]) == len(refs[1])


class TestConcurrentLaunches:
    def test_threads_share_both_caches(self, monkeypatch):
        # Tiny bounds and a short switch interval: evictions race lookups.
        monkeypatch.setattr(builder, "KERNEL_CACHE_SIZE", 2)
        monkeypatch.setattr(builder, "_KERNELS", {})
        monkeypatch.setattr(decode, "_MEMO_SIZE", 64)
        monkeypatch.setattr(decode, "_MEMO", {})
        shapes = [(64, 64, 64), (64, 128, 64), (128, 64, 64)]
        inputs = {shape: _operands(11, *shape) for shape in shapes}
        want = {shape: hgemm_reference(*inputs[shape]) for shape in shapes}
        errors = []

        def launch(offset):
            try:
                for i in range(6):
                    shape = shapes[(i + offset) % len(shapes)]
                    if not np.array_equal(hgemm(*inputs[shape]),
                                          want[shape]):
                        errors.append(shape)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=launch, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(builder._KERNELS) <= 2
        assert len(decode._MEMO) <= 64
