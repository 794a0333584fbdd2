"""Generator of the blocked Tensor Core HGEMM kernel (paper Algorithm 1).

Emits the complete SASS program for one :class:`~repro.core.config.KernelConfig`
and one problem instance, following the paper's design:

* two-level blocking -- CTA tile ``(b_m, b_n, b_k)`` in shared memory, warp
  tile ``(w_m, w_n, w_k)`` in registers;
* data prefetching (Section VI-B) -- the next iteration's global loads are
  interleaved into the current iteration's HMMA stream;
* CPI-guided interleaving (Section VI-C) -- LDS/LDG spacing from Eq. (6),
  STS spacing from ``config.sts_interleave`` (the Fig. 4 ablation knob);
* padded shared-memory layout (Section VI-D) via
  :class:`~repro.core.layout.SmemPlan` (the Fig. 5 ablation knob).

Matrix conventions (Section VII): A is row-major ``m x k``, B is stored as
``n x k`` row-major (i.e. the column-major ``k x n`` operand), C is
row-major ``m x n``.  The same emitter also covers the paper's future-work
variants -- ``HMMA.1688.F32`` accumulators (``accum_f32``) and the int8
``IMMA.8816`` path (``ab_dtype="s8"``) -- and the standard-form epilogue
``C = alpha*A@B + beta*C``.

Pipeline structure per ``b_k`` iteration (single shared buffer, double-
buffered register fragments)::

    slice 0        : HMMAs + LDS(slice 1) + LDG(next tile) + loop bookkeeping
    ...
    slice S-2      : HMMAs + LDS(slice S-1)
    BAR.SYNC       : after this, no warp reads the shared tile again
                     (remaining compute uses register fragments)
    slice S-1      : HMMAs + STS(next tile)   <- STS overlapped with compute
    BAR.SYNC       : next tile visible to all warps
    LDS(slice 0 of next tile)

The mid-iteration barrier is what lets a *single* 40 KB shared buffer
overlap its refill with Tensor Core work -- double-buffering 256x256 tiles
would need 80 KB, more than the SM has.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, replace

from ..arch.family import SM75, ArchSpec
from ..arch.turing import GpuSpec, RTX2070
from ..isa.builder import ProgramBuilder
from ..isa.operands import Pred, Reg, RZ
from ..isa.program import Program
from ..perf import STATS
from .config import ConfigError, KernelConfig
from .layout import SmemPlan
from .scheduler import InterleaveScheduler, spacing_for

__all__ = ["HgemmProblem", "RegisterPlan", "build_hgemm", "cached_build"]


def _log2(value: int) -> int:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{value} must be a positive power of two")
    return value.bit_length() - 1


def _half2_bits(value: float) -> int:
    """A scalar replicated into both halves of a packed-half2 word."""
    import numpy as np

    bits = int(np.float16(value).view(np.uint16))
    return bits | (bits << 16)


@dataclass(frozen=True)
class HgemmProblem:
    """One GEMM instance with device addresses baked in.

    ``alpha`` and ``beta`` give the standard form ``C = alpha*A@B + beta*C``
    (paper Section II-A; the evaluation fixes alpha=1, beta=0).  Scaling is
    applied in the epilogue with packed ``HFMA2`` on the FP16 path; the
    FP32-accumulator kernel supports only the alpha=1, beta=0 form.
    """

    m: int
    n: int
    k: int
    a_addr: int = 0
    b_addr: int = 0
    c_addr: int = 0
    alpha: float = 1.0
    beta: float = 0.0

    def validate(self, config: KernelConfig) -> None:
        if self.m % config.b_m or self.n % config.b_n or self.k % config.b_k:
            raise ConfigError(
                f"problem {self.m}x{self.n}x{self.k} must be a multiple of "
                f"the CTA tile {config.cta_tile}"
            )
        for name, addr in (("A", self.a_addr), ("B", self.b_addr), ("C", self.c_addr)):
            if addr % 16:
                raise ConfigError(f"{name} base address must be 16-byte aligned")
        if (config.accum_f32 or config.ab_dtype == "s8") and \
                (self.alpha != 1.0 or self.beta != 0.0):
            raise ConfigError(
                "alpha/beta scaling is implemented for the FP16 path only"
            )

    @property
    def needs_scaling(self) -> bool:
        return self.alpha != 1.0 or self.beta != 0.0

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k


@dataclass(frozen=True)
class RegisterPlan:
    """Register file layout of the generated kernel."""

    acc: int              # first accumulator register
    n_acc: int
    a_frag: int           # first A-fragment register (2 buffers)
    a_frag_per_buf: int
    b_frag: int
    b_frag_per_buf: int
    stage_a: int          # LDG staging for the A tile
    stage_b: int
    n_ldg_a: int          # LDG.128 count per thread, per tile
    n_ldg_b: int
    ldg_base_a: int       # first global-address register for A chunks
    ldg_base_b: int
    swz_base_a: int       # per-slice swizzled LDS bases (swizzle mode only)
    swz_base_b: int
    top: int              # highest register index used + 1

    @classmethod
    def for_config(cls, config: KernelConfig, threads: int,
                   arch: ArchSpec = SM75) -> "RegisterPlan":
        n_acc = config.accumulator_regs
        if config.ab_dtype == "s8":
            a_per_buf = config.w_m // 8
            b_per_buf = config.w_n // 8
        else:
            # Per-generation HMMA operand footprint: SM70's 1-register
            # 8x8 A and SM80's 4-register 16x16 A both reduce to the same
            # w_m/8 A budget; SM80's 2-register B doubles the B budget.
            a_per_buf = (config.w_m // arch.hmma_m) * arch.a_regs
            b_per_buf = (config.w_n // arch.hmma_n) * arch.b_regs
        elems_per_ldg = 16 // config.ab_element_bytes  # one LDG.128
        n_ldg_a = (config.b_m * config.b_k) // (threads * elems_per_ldg)
        n_ldg_b = (config.b_n * config.b_k) // (threads * elems_per_ldg)
        if n_ldg_a < 1 or n_ldg_b < 1:
            raise ConfigError(
                "CTA tile too small: every thread must issue at least one "
                "LDG.128 per operand tile"
            )
        # R0..R31 are prologue scratch + persistent address registers;
        # everything long-lived sits above.
        def layout(acc):
            a_frag = acc + n_acc
            b_frag = a_frag + 2 * a_per_buf
            stage_a = b_frag + 2 * b_per_buf
            stage_b = stage_a + 4 * n_ldg_a
            return a_frag, b_frag, stage_a, stage_b, stage_b + 4 * n_ldg_b

        acc = 32
        a_frag, b_frag, stage_a, stage_b, top = layout(acc)
        if top > 255 and top - 255 <= 3:
            # R29..R31 are prologue-only sources; reclaim them for
            # accumulators when the plan is a whisker over the limit
            # (the Table VI 128x64-warp configurations).
            acc = 32 - (top - 255)
            a_frag, b_frag, stage_a, stage_b, top = layout(acc)
        swz_base_a = swz_base_b = 0
        # The LDG base pointers are written *last* in the prologue, so they
        # may reuse the freed scratch slots R11..R31 when they fit -- this
        # is what keeps the register-hungry Table VI configurations
        # launchable.
        if n_ldg_a + n_ldg_b <= 18:  # R11..R28 (R29-31 stay scratch sources)
            ldg_base_a = 11
        else:
            ldg_base_a = top
            top += n_ldg_a + n_ldg_b
        ldg_base_b = ldg_base_a + n_ldg_a
        if config.smem_swizzle:
            slices = config.b_k // config.w_k
            swz_base_a = top
            swz_base_b = swz_base_a + slices
            top = swz_base_b + slices
        if top > 255:
            raise ConfigError(
                f"kernel needs {top} registers/thread; the hardware limit "
                "is 255 (paper Section VI-A: e.g. 128x128 warp tiles do "
                "not fit)"
            )
        return cls(
            acc=acc, n_acc=n_acc,
            a_frag=a_frag, a_frag_per_buf=a_per_buf,
            b_frag=b_frag, b_frag_per_buf=b_per_buf,
            stage_a=stage_a, stage_b=stage_b,
            n_ldg_a=n_ldg_a, n_ldg_b=n_ldg_b,
            ldg_base_a=ldg_base_a, ldg_base_b=ldg_base_b,
            swz_base_a=swz_base_a, swz_base_b=swz_base_b,
            top=top,
        )


class _HgemmEmitter:
    """Stateful emitter; one instance builds one kernel."""

    # Scratch / address registers (all < 32, free for the prologue to reuse).
    R_TID, R_SCRATCH0, R_SCRATCH1, R_SCRATCH2, R_COUNTER = 1, 0, 2, 3, 4
    R_LANEFRAG = 5
    R_A_STS, R_B_STS, R_A_LDS, R_B_LDS, R_C = 6, 7, 8, 9, 10
    #: Packed-half2 alpha/beta for the epilogue; they reuse prologue
    #: scratch that is dead by then (R2/R3: lane and warp indices).
    R_ALPHA, R_BETA = 2, 3
    #: P_LOOP is true while more k-iterations remain *after* the current
    #: one -- it guards both the loop branch and the next-tile prefetch.
    P_LOOP = Pred(0)
    BAR_LDG_A, BAR_LDG_B = 0, 1
    BAR_FRAG0, BAR_FRAG1 = 2, 3
    #: Scoreboards for slice-0 fragments deferred past the trailing barrier
    #: into slice 0's HMMA stream (shrinks the per-iteration serial-LDS
    #: bubble): A operands >= slice0_split_op use BAR_DEFER_A; B operands
    #: >= slice0_split_b use BAR_DEFER_B.
    BAR_DEFER_A = 4
    BAR_DEFER_B = 5

    def __init__(self, config: KernelConfig, problem: HgemmProblem,
                 spec: GpuSpec):
        problem.validate(config)
        config.validate_against(spec)
        self.cfg = config
        self.prob = problem
        self.spec = spec
        self.arch = getattr(spec, "arch", SM75)
        self.slices = config.b_k // config.w_k
        if self.slices < 2 or self.slices % 2:
            raise ConfigError(
                f"b_k/w_k = {self.slices}: the software pipeline needs an "
                "even slice count >= 2"
            )
        self.plan = SmemPlan.for_config(config)
        self.threads = config.threads_per_cta
        if config.smem_swizzle:
            rows_per_group = self.threads // self._cpr
            if rows_per_group % 8:
                raise ConfigError(
                    "swizzle needs the LDG row-group step to be a multiple "
                    f"of 8 rows, got {rows_per_group}"
                )
        self.regs = RegisterPlan.for_config(config, self.threads, self.arch)
        self.b = ProgramBuilder(
            name=f"hgemm_{config.name or 'custom'}_{problem.m}x{problem.n}x{problem.k}",
            num_regs=self.regs.top,
            smem_bytes=self.plan.total_bytes,
            block_dim=self.threads,
        )
        self.lds_spacing = spacing_for(spec, "lds", 32)
        self.ldg_spacing = spacing_for(spec, "ldg", 128)

    # ------------------------------------------------------------- helpers

    def _frag_buf(self, which: str, buf: int) -> int:
        if which == "a":
            return self.regs.a_frag + buf * self.regs.a_frag_per_buf
        return self.regs.b_frag + buf * self.regs.b_frag_per_buf

    @property
    def _is_int8(self) -> bool:
        return self.cfg.ab_dtype == "s8"

    @property
    def _cpr(self) -> int:
        """LDG.128 (16-byte) chunks per tile row."""
        return self.cfg.b_k * self.cfg.ab_element_bytes // 16

    @property
    def _a_op_rows(self) -> int:
        """Output rows per tensor instruction (IMMA 8, HMMA per-arch)."""
        return 8 if self._is_int8 else self.arch.hmma_m

    @property
    def _a_regs_per_op(self) -> int:
        """A-fragment registers per tensor op (IMMA 1, HMMA per-arch)."""
        return 1 if self._is_int8 else self.arch.a_regs

    @property
    def _b_regs_per_op(self) -> int:
        """B-fragment registers per tensor op (IMMA 1, HMMA per-arch)."""
        return 1 if self._is_int8 else self.arch.b_regs

    @property
    def _acc_stride(self) -> int:
        """Accumulator registers per tensor op."""
        if self.cfg.accum_f32:
            return self.arch.c_regs_f32   # 16x8 of f32
        if self._is_int8:
            return 2                      # 8x8 of s32
        return self.arch.c_regs_f16       # hmma_m x 8 of f16

    def _acc_pair(self, i: int, j: int) -> int:
        return self.regs.acc + (i * (self.cfg.w_n // 8) + j) * self._acc_stride

    # ------------------------------------------------------------ prologue

    def emit_prologue(self) -> None:
        b, cfg, regs = self.b, self.cfg, self.regs
        stride2 = self.plan.a.row_stride_bytes       # row stride in bytes
        cpr = self._cpr                              # LDG.128 chunks per row
        warps_m = cfg.b_m // cfg.w_m

        b.s2r(self.R_TID, "SR_TID.X", stall=6)
        # lane = tid & 31; warp = tid >> 5
        b.lop3_and(self.R_SCRATCH1, Reg(self.R_TID), 31, stall=6)   # lane
        b.shf_r(self.R_SCRATCH2, Reg(self.R_TID), 5, stall=6)       # warp

        # Fragment lane offset: (lane>>2)*stride2 + (lane&3)*4.
        # R28 keeps s = lane>>2, the fragment row parity the swizzle needs.
        b.shf_r(28, Reg(self.R_SCRATCH1), 2, stall=6)
        b.imad(self.R_LANEFRAG, Reg(28), stride2, RZ, stall=6)
        b.lop3_and(self.R_SCRATCH0, Reg(self.R_SCRATCH1), 3, stall=6)
        b.imad(self.R_SCRATCH0, Reg(self.R_SCRATCH0), 4, Reg(self.R_LANEFRAG), stall=6)
        b.mov(self.R_LANEFRAG, Reg(self.R_SCRATCH0), stall=6)

        # warp_m = warp & (warps_m-1); warp_n = warp >> log2(warps_m).
        b.lop3_and(20, Reg(self.R_SCRATCH2), warps_m - 1, stall=6)
        b.shf_r(21, Reg(self.R_SCRATCH2), _log2(warps_m), stall=6)

        # Shared fragment bases.
        b.imad(self.R_A_LDS, Reg(20), cfg.w_m * stride2, Reg(self.R_LANEFRAG), stall=6)
        b.imad(self.R_B_LDS, Reg(21), cfg.w_n * stride2, Reg(self.R_LANEFRAG), stall=6)
        b.iadd3(self.R_B_LDS, Reg(self.R_B_LDS), self.plan.b.base_bytes, RZ, stall=6)
        if cfg.smem_swizzle:
            # One base per k-slice, chunk index XOR-permuted by the
            # fragment row parity s: base_ki = common + 16 * (ki ^ s).
            for ki in range(self.slices):
                b.lop3_xor(29, Reg(28), ki, stall=6)
                b.imad(self.regs.swz_base_a + ki, Reg(29), 16,
                       Reg(self.R_A_LDS), stall=6)
                b.imad(self.regs.swz_base_b + ki, Reg(29), 16,
                       Reg(self.R_B_LDS), stall=6)

        # Tile load mapping: trow = tid >> log2(cpr); tcol = tid & (cpr-1).
        b.shf_r(22, Reg(self.R_TID), _log2(cpr), stall=6)   # trow
        b.lop3_and(23, Reg(self.R_TID), cpr - 1, stall=6)   # tcol
        b.imad(self.R_A_STS, Reg(22), stride2, RZ, stall=6)
        if cfg.smem_swizzle:
            # Store to the swizzled chunk: tcol ^ (trow % 8).  The chunk is
            # invariant across this thread's LDG groups because the group
            # row step is a multiple of 8.
            b.lop3_and(29, Reg(22), 7, stall=6)
            b.lop3_xor(29, Reg(23), Reg(29), stall=6)
            b.imad(self.R_A_STS, Reg(29), 16, Reg(self.R_A_STS), stall=6)
        else:
            b.imad(self.R_A_STS, Reg(23), 16, Reg(self.R_A_STS), stall=6)
        b.iadd3(self.R_B_STS, Reg(self.R_A_STS), self.plan.b.base_bytes, RZ, stall=6)

        b.s2r(24, "SR_CTAID.Y", stall=6)
        b.s2r(25, "SR_CTAID.X", stall=6)
        k2 = cfg.ab_element_bytes * self.prob.k
        rows_per_group = self.threads // cpr

        # C base: c_addr + (ctaid.y*b_m + warp_m*w_m + lane>>2)*ce*n
        #              + (ctaid.x*b_n + warp_n*w_n + (lane&3)*2)*ce,
        # where ce = 2 bytes (FP16 C) or 4 bytes (FP32 accumulators).
        ce = cfg.c_element_bytes
        row_stride = ce * self.prob.n
        b.shf_r(26, Reg(self.R_SCRATCH1), 2, stall=6)
        b.imad(26, Reg(20), cfg.w_m, Reg(26), stall=6)
        b.imad(26, Reg(24), cfg.b_m, Reg(26), stall=6)
        b.mov32i(27, row_stride, stall=6)
        b.imad(26, Reg(26), Reg(27), RZ, stall=6)
        b.lop3_and(27, Reg(self.R_SCRATCH1), 3, stall=6)
        b.imad(26, Reg(27), 2 * ce, Reg(26), stall=6)
        b.imad(26, Reg(21), cfg.w_n * ce, Reg(26), stall=6)
        b.imad(26, Reg(25), cfg.b_n * ce, Reg(26), stall=6)
        b.iadd3(self.R_C, Reg(26), self.prob.c_addr, RZ, stall=6)

        # Global tile bases, written last: they may reuse scratch slots
        # R11..R28 (see RegisterPlan).  ctaid.y walks M tiles; ctaid.x
        # walks N tiles.  Per-thread sources go to R30 (A) / R31 (B) so
        # base writes never clobber them.
        b.mov32i(29, k2, stall=6)
        for src, n_ldg, ctaid_reg, tile_rows, addr in (
            (30, regs.n_ldg_a, 24, cfg.b_m, self.prob.a_addr),
            (31, regs.n_ldg_b, 25, cfg.b_n, self.prob.b_addr),
        ):
            # row0 = ctaid*tile_rows + trow; base = addr + row0*k2 + tcol*16.
            b.imad(src, Reg(ctaid_reg), tile_rows, Reg(22), stall=6)
            b.imad(src, Reg(src), Reg(29), RZ, stall=6)
            b.imad(src, Reg(23), 16, Reg(src), stall=6)
            b.iadd3(src, Reg(src), addr, RZ, stall=6)
        for src, base_reg_first, n_ldg in (
            (30, regs.ldg_base_a, regs.n_ldg_a),
            (31, regs.ldg_base_b, regs.n_ldg_b),
        ):
            for i in range(n_ldg):
                b.iadd3(base_reg_first + i, Reg(src), i * rows_per_group * k2,
                        RZ, stall=6)

        # Loop counter and predicate.
        b.mov32i(self.R_COUNTER, self.prob.k // cfg.b_k, stall=6)
        b.isetp(self.P_LOOP, Reg(self.R_COUNTER), 0, cmp="GT", stall=6)

        # Epilogue scaling constants as packed half2 (alpha|alpha etc.).
        # R2/R3 (lane/warp scratch) are dead from here on.
        if self.prob.needs_scaling:
            b.mov32i(self.R_ALPHA, _half2_bits(self.prob.alpha), stall=1)
            b.mov32i(self.R_BETA, _half2_bits(self.prob.beta), stall=1)

        # Zero the accumulators (beta = 0).
        for r in range(regs.n_acc):
            b.mov(regs.acc + r, RZ, stall=1)
        b.nop(stall=6)

    # ------------------------------------------------------- tile movement

    def ldg_items(self, predicated: bool) -> list:
        """Emitters for the LDG.128s fetching the next tile."""
        regs = self.regs
        pred = self.P_LOOP if predicated else None
        items = []
        for which, stage, base, n_ldg, bar in (
            ("a", regs.stage_a, regs.ldg_base_a, regs.n_ldg_a, self.BAR_LDG_A),
            ("b", regs.stage_b, regs.ldg_base_b, regs.n_ldg_b, self.BAR_LDG_B),
        ):
            for i in range(n_ldg):
                def emit(i=i, stage=stage, base=base, bar=bar, pred=pred):
                    self.b.ldg(stage + 4 * i, base + i, width=128,
                               stall=1, wb=bar, pred=pred)
                items.append(emit)
        return items

    def ldg_advance_items(self) -> list:
        """Emitters advancing the per-thread global pointers by one b_k."""
        regs = self.regs
        delta = self.cfg.ab_element_bytes * self.cfg.b_k
        items = []
        for base, n in ((regs.ldg_base_a, regs.n_ldg_a),
                        (regs.ldg_base_b, regs.n_ldg_b)):
            for i in range(n):
                def emit(base=base, i=i):
                    self.b.iadd3(base + i, Reg(base + i), delta, RZ, stall=1)
                items.append(emit)
        return items

    def emit_sts_batch(self, predicated: bool, sched=None) -> None:
        """Queue (or emit) the STS.128s writing the staged tile to shared."""
        cfg, regs = self.cfg, self.regs
        stride2 = self.plan.a.row_stride_bytes
        cpr = self._cpr
        rows_per_group = self.threads // cpr
        pred = self.P_LOOP if predicated else None
        items = []
        for which, stage, sts_base, n_ldg, bar in (
            ("a", regs.stage_a, self.R_A_STS, regs.n_ldg_a, self.BAR_LDG_A),
            ("b", regs.stage_b, self.R_B_STS, regs.n_ldg_b, self.BAR_LDG_B),
        ):
            for i in range(n_ldg):
                wait = (bar,) if i == 0 else ()
                def emit(i=i, stage=stage, sts_base=sts_base, wait=wait,
                         pred=pred):
                    self.b.sts(sts_base, stage + 4 * i,
                               offset=i * rows_per_group * stride2,
                               width=128, stall=1, wait=wait, pred=pred)
                items.append(emit)
        if sched is not None:
            # Fixed spacing: this is the paper's explicit Fig. 4 knob.
            sched.add(items, spacing=self.cfg.sts_interleave, fixed=True)
        else:
            for emit in items:
                emit()

    def _lds_items(self, ki: int, defer_a_from: int = None,
                   defer_b_from: int = None) -> tuple:
        """Emitter lists for slice *ki*'s fragment gathers: (A ops, B ops).

        A items come two LDS.32 per 16x8 operand; B items one per 8x8
        operand.  Operands past the ``defer_*_from`` indices are tagged
        with the deferral scoreboards instead of the slice's fragment
        barrier (used by the split slice-0 prefetch).
        """
        cfg, regs = self.cfg, self.regs
        buf = ki % 2
        bar = self.BAR_FRAG0 + buf
        stride2 = self.plan.a.row_stride_bytes
        if cfg.smem_swizzle:
            a_lds, b_lds = regs.swz_base_a + ki, regs.swz_base_b + ki
            k_off = 0  # the per-slice base already encodes the chunk
        else:
            a_lds, b_lds = self.R_A_LDS, self.R_B_LDS
            k_off = cfg.w_k * cfg.ab_element_bytes * ki
        a_items, b_items = [], []
        a_base = self._frag_buf("a", buf)
        per_op = self._a_regs_per_op
        for op in range(cfg.w_m // self._a_op_rows):
            op_bar = bar
            if defer_a_from is not None and op >= defer_a_from:
                op_bar = self.BAR_DEFER_A
            for half in range(per_op):
                reg = a_base + op * per_op + half
                # f16 registers pair over 8-row halves; pairs beyond the
                # first step k by 16 bytes (HMMA.16816's k=8..15 operands).
                row = (half & 1) * 8 if per_op > 1 else 0
                off = ((op * self._a_op_rows + row) * stride2
                       + k_off + (half >> 1) * 16)
                def emit(reg=reg, off=off, bar=op_bar, a_lds=a_lds):
                    self.b.lds(reg, a_lds, offset=off, width=32,
                               stall=1, wb=bar)
                a_items.append(emit)
        b_base = self._frag_buf("b", buf)
        b_per_op = self._b_regs_per_op
        for j in range(cfg.w_n // 8):
            j_bar = bar
            if defer_b_from is not None and j >= defer_b_from:
                j_bar = self.BAR_DEFER_B
            for half in range(b_per_op):
                # The second B register is the k=8..15 column fragment.
                reg = b_base + j * b_per_op + half
                off = j * 8 * stride2 + k_off + half * 16
                def emit(reg=reg, off=off, bar=j_bar, b_lds=b_lds):
                    self.b.lds(reg, b_lds, offset=off, width=32,
                               stall=1, wb=bar)
                b_items.append(emit)
        return a_items, b_items

    def emit_lds_slice(self, ki: int, sched=None) -> None:
        """Queue (or emit) the LDS.32 fragment gathers for slice *ki*."""
        a_items, b_items = self._lds_items(ki)
        items = a_items + b_items
        if sched is not None:
            sched.add(items, spacing=self.lds_spacing)
        else:
            for emit in items:
                emit()

    @property
    def slice0_split_op(self) -> int:
        """First A-operand index deferred past the trailing barrier."""
        return 1

    @property
    def slice0_split_b(self) -> int:
        """First B-operand index deferred past the trailing barrier.

        B operands are consumed within the first ``w_n/8`` HMMAs of the
        slice (j-inner ordering), so deferring them past the barrier would
        invert program order; the full B batch stays in the head.
        """
        return self.cfg.w_n // 8

    def _slice0_head_tail(self) -> tuple:
        """Slice-0 fragment emitters, split into (head, tail).

        The head (first A operand + first half of B) is emitted right
        after the trailing barrier; the tail interleaves into slice 0's
        HMMA stream under the deferral scoreboards, shrinking the
        serial-LDS bubble at the iteration boundary.
        """
        a_items, b_items = self._lds_items(
            0, defer_a_from=self.slice0_split_op,
            defer_b_from=self.slice0_split_b,
        )
        split = self._a_regs_per_op * self.slice0_split_op
        b_split = self._b_regs_per_op * self.slice0_split_b
        head = a_items[:split] + b_items[:b_split]
        tail = a_items[split:] + b_items[b_split:]
        return head, tail

    def emit_lds_slice0_head(self) -> None:
        for emit in self._slice0_head_tail()[0]:
            emit()

    # ----------------------------------------------------------- main loop

    def _hmma_emitters(self, ki: int) -> list:
        cfg = self.cfg
        buf = ki % 2
        wait_bar = self.BAR_FRAG0 + buf
        a_base = self._frag_buf("a", buf)
        b_base = self._frag_buf("b", buf)
        emitters = []
        first = True
        per_op = self._a_regs_per_op
        for i in range(cfg.w_m // self._a_op_rows):
            for j in range(cfg.w_n // 8):
                acc = self._acc_pair(i, j)
                wait = ()
                if first:
                    wait = (wait_bar,)
                elif ki == 0 and i == self.slice0_split_op and j == 0:
                    # First consumer of the A operands whose loads were
                    # deferred past the trailing barrier.
                    wait = (self.BAR_DEFER_A,)
                elif ki == 0 and i == 0 and j == self.slice0_split_b:
                    wait = (self.BAR_DEFER_B,)
                def emit(acc=acc, a=a_base + per_op * i,
                         bb=b_base + self._b_regs_per_op * j, wait=wait):
                    if self._is_int8:
                        self.b.imma_8816(acc, a, bb, acc, stall=2, wait=wait)
                    else:
                        self.b.hmma(self.arch, acc, a, bb, acc, stall=2,
                                    wait=wait, f32=self.cfg.accum_f32)
                emitters.append(emit)
                first = False
        return emitters

    def emit_main_loop(self) -> None:
        b, cfg = self.b, self.cfg
        # Spread the tile prefetch over slices 0..S-2: a single slice's
        # HMMA window cannot absorb the whole LDG burst without stalling
        # the memory-IO queue (and with it, the tensor pipes).
        ldg_per_slice = [[] for _ in range(self.slices - 1)]
        adv_per_slice = [[] for _ in range(self.slices - 1)]
        if cfg.prefetch:
            for idx, item in enumerate(self.ldg_items(predicated=True)):
                ldg_per_slice[idx % (self.slices - 1)].append(item)
            for idx, item in enumerate(self.ldg_advance_items()):
                adv_per_slice[idx % (self.slices - 1)].append(item)

        b.label("KLOOP")
        for ki in range(self.slices):
            sched = InterleaveScheduler()
            if ki == 0:
                # Tail of this tile's slice-0 fragment loads (their head
                # sits before the loop / before the back edge).
                sched.add(self._slice0_head_tail()[1], spacing=self.lds_spacing)
            if ki == 0:
                # Loop bookkeeping rides along on the ALU pipe.  After the
                # decrement, P_LOOP means "a next tile exists", which also
                # guards this iteration's prefetch and tile store.  The
                # decrement's stall count must cover the fixed ALU latency:
                # the ISETP is the next ALU slot, and on fast-HMMA
                # generations (Volta's CPI-4 .884 pipe) the surrounding
                # schedule no longer spaces the pair far enough apart for
                # the read to see the decremented value.
                sched.add(lambda: b.iadd3(self.R_COUNTER, Reg(self.R_COUNTER),
                                          -1, RZ, stall=5), spacing=1)
                sched.add(lambda: b.isetp(self.P_LOOP, Reg(self.R_COUNTER), 0,
                                          cmp="GT", stall=1), spacing=1)
            if ki < self.slices - 1:
                self.emit_lds_slice(ki + 1, sched)
                sched.add(ldg_per_slice[ki])
                sched.add(adv_per_slice[ki])
            if ki == self.slices - 1:
                if not cfg.prefetch:
                    # Prefetch disabled: fetch the next tile right before it
                    # is needed, fully exposing the global-memory latency.
                    for item in self.ldg_items(predicated=True):
                        item()
                    for item in self.ldg_advance_items():
                        item()
                # After this barrier no warp reads the current shared tile:
                # every remaining fragment already sits in registers.
                b.bar_sync(stall=1)
                self.emit_sts_batch(predicated=True, sched=sched)
            sched.run(self._hmma_emitters(ki))
        b.bar_sync(stall=1)
        self.emit_lds_slice0_head()  # slice 0 of the next tile (head only)
        b.bra("KLOOP", pred=self.P_LOOP, stall=5)

    # ------------------------------------------------------------ epilogue

    def emit_epilogue(self) -> None:
        b, cfg = self.b, self.cfg
        ce = cfg.c_element_bytes
        row_stride = ce * self.prob.n
        b.nop(stall=15)  # drain the last HMMA's 14-cycle latency
        for i in range(cfg.w_m // self._a_op_rows):
            for j in range(cfg.w_n // 8):
                acc = self._acc_pair(i, j)
                col_off = j * 8 * ce
                if self._is_int8:
                    # s32 fragments: one 8x8 op, both column elements in
                    # consecutive registers -> a single STG.64.
                    b.stg(self.R_C, acc, offset=col_off, width=64, stall=1)
                    continue
                if cfg.accum_f32:
                    # FP32 fragments: a lane's two column elements sit in
                    # two consecutive registers -> one STG.64 per 8 rows.
                    b.stg(self.R_C, acc, offset=col_off, width=64, stall=1)
                    b.stg(self.R_C, acc + 2, offset=col_off + 8 * row_stride,
                          width=64, stall=1)
                    continue
                # One STG.32 per 8-row half fragment (HMMA.884's 8x8 D is a
                # single register; 16-row shapes store two).
                offsets = tuple(col_off + h * 8 * row_stride
                                for h in range(self._acc_stride))
                if self.prob.needs_scaling:
                    self._emit_scaling(acc, offsets)
                for half, off in enumerate(offsets):
                    b.stg(self.R_C, acc + half, offset=off, width=32, stall=1)
            b.iadd3(self.R_C, Reg(self.R_C), self._a_op_rows * row_stride,
                    RZ, stall=6)
        b.exit()

    def _emit_scaling(self, acc: int, offsets) -> None:
        """Apply ``alpha * acc + beta * C_old`` to one accumulator pair.

        Packed ``HFMA2`` does both halves of each register at once; the
        old C values stage through the (epilogue-dead) LDG staging regs.
        """
        b, prob = self.b, self.prob
        stage = self.regs.stage_a
        if prob.beta != 0.0:
            for half, off in enumerate(offsets):
                b.ldg(stage + half, self.R_C, offset=off, width=32,
                      stall=1, wb=self.BAR_LDG_A)
        if prob.alpha != 1.0:
            for half in range(len(offsets)):
                # acc = acc * alpha + 0
                b.hfma2(acc + half, acc + half, self.R_ALPHA, 255, stall=6)
        if prob.beta != 0.0:
            for half in range(len(offsets)):
                wait = (self.BAR_LDG_A,) if half == 0 else ()
                # acc = C_old * beta + acc
                b.hfma2(acc + half, stage + half, self.R_BETA, acc + half,
                        stall=6, wait=wait)

    # ---------------------------------------------------------------- glue

    def build(self) -> Program:
        self.emit_prologue()
        # Pipeline fill: tile 0 + slice-0 fragments.
        for item in self.ldg_items(predicated=False):
            item()
        self.emit_sts_batch(predicated=False)
        for item in self.ldg_advance_items():
            item()
        b = self.b
        b.bar_sync(stall=1)
        self.emit_lds_slice0_head()
        b.nop(stall=6)
        self.emit_main_loop()
        self.emit_epilogue()
        return b.build()


def build_hgemm(config: KernelConfig, problem: HgemmProblem,
                spec: GpuSpec = RTX2070) -> Program:
    """Build the complete HGEMM kernel program.

    The returned :class:`~repro.isa.program.Program` runs on both the
    functional simulator (for correctness, any grid) and the timing
    simulator (for per-CTA cycle measurements).
    """
    return _HgemmEmitter(config, problem, spec).build()


# ------------------------------------------------------------ kernel cache
#
# The paper assembles each kernel once and launches that binary at every
# size of a sweep; functional launches do the same through cached_build.
# A cached Program is shared by every caller that relaunches its key, so it
# must not change: its instructions are a tuple, and they are interned (one
# object per distinct instruction across all cached kernels), which also
# lets the decode memo match slots by identity.

#: Kernels kept for relaunch; the least recently launched is evicted first.
KERNEL_CACHE_SIZE = 256

_KERNELS: dict = {}   # insertion-ordered: a hit re-inserts, eviction takes the first
_KERNELS_LOCK = threading.Lock()
_INTERNED = weakref.WeakValueDictionary()


def _kernel_key(config: KernelConfig, problem: HgemmProblem, spec: GpuSpec):
    # -0.0 == 0.0, but an alpha of -0.0 emits different HFMA2 bits.
    return (config, problem, spec, math.copysign(1.0, problem.alpha),
            math.copysign(1.0, problem.beta))


def cached_build(build, config: KernelConfig, problem: HgemmProblem,
                 spec: GpuSpec = RTX2070) -> Program:
    """``build(config, problem, spec)``, emitted once per key and shared.

    *build* is the caller's ``build_hgemm`` (passed in, so a wrapper on
    the caller's module attribute -- per-layer tracing -- times exactly
    the builds that run).  The key is everything the emitted program
    depends on: the frozen config, problem (shape, operand addresses,
    alpha/beta) and device.  Counters: ``kernel.builds`` / ``kernel.hits``.
    """
    key = _kernel_key(config, problem, spec)
    with _KERNELS_LOCK:
        program = _KERNELS.pop(key, None)
        if program is not None:
            _KERNELS[key] = program
    if program is not None:
        STATS.count("kernel.hits")
        return program
    STATS.count("kernel.builds")
    program = build(config, problem, spec)
    program = replace(program, instructions=tuple(
        _INTERNED.setdefault(inst, inst) for inst in program.instructions))
    with _KERNELS_LOCK:
        _KERNELS[key] = program
        if len(_KERNELS) > KERNEL_CACHE_SIZE:
            del _KERNELS[next(iter(_KERNELS))]
    return program
