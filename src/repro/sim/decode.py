"""Predecode layer: slot-indexed closures for the functional simulator.

The reference interpreter (:func:`repro.sim.exec_units.execute`) re-examines
every ``Instruction`` each time it retires: operand descriptors evaluated
afresh, fresh ``np.full`` immediates, and an ``Effects`` record that the
caller then unpacks.  For a GEMM that retires the same few hundred
instructions thousands of times, almost all of that work is loop-invariant.

:func:`predecode` moves it to launch time.  Every slot's semantics come from
the µop table (:mod:`repro.sim.uop`): ``decode_uop`` yields the operand
descriptors, lane kernel and dependence sets once, and this module merely
*compiles* them -- descriptors become bound row readers, the kernel is
called directly, and the scheduler metadata drives window fusion.  There is
no per-opcode lane math here.

Each program slot becomes one closure with its register indices, immediates,
predicate slot and kernel resolved once; executing an instruction is then a
single call that reads and writes the warp's register file directly.  A
closure returns the control signal for the interval loop in
:mod:`repro.sim.functional`:

* ``None`` -- fall through to the slot's precomputed ``next_pc``;
* an ``int >= 0`` -- branch to that slot;
* :data:`EXITED` / :data:`BARRIER` -- the warp exits / arrives at a barrier;
* :data:`DIVERGED` -- (stacked decodings only, see below) the stacked warps
  stopped agreeing and lockstep execution must de-stack.

``predecode(program, lanes)`` compiles for any lane count: the default 32
serves one warp, while the gridlock engine passes ``n_ctas * n_warps * 32``
so every closure operates on all warps of a chunk of CTAs as one stacked
array.  Stacked
closures must be warp-uniform; wherever per-warp behaviour could differ
(partial predicates, divergent branches, reference-only paths) the closure
returns :data:`DIVERGED` *before* mutating any state, and the caller falls
back to per-warp interleaving.

On top of the per-slot closures, maximal runs of consecutive independent
same-shape instructions (HMMA/IMMA, LDS/LDG, STS/STG, MOV, IADD3/IMAD --
the inner loops of the generated kernels) are fused into *batched* closures
that execute the whole run with warp-wide NumPy gathers and scatters.
Fusion is only applied when no instruction in the run reads or overwrites a
register written earlier in the run, so gather-all-then-scatter-all is
order-equivalent to sequential execution; branches into the middle of a
fused run still work because every member slot keeps its individual closure.

Bit-exactness contract: every fast path runs the same lane kernels as the
reference executor -- integer ops wrap modulo 2**32 either way, permutation
gathers reorder but never transform values, and the per-HMMA ``(16, 8) @
(8, 8)`` float32 matmuls are kept as individual 2-D products (only their
fragment gathers and the accumulate/round stages are batched) so the BLAS
dispatch and rounding sequence match the reference exactly.  The golden
tests in ``tests/sim/test_golden_functional.py`` and the differential fuzz
suite in ``tests/sim/test_uop_differential.py`` pin this equivalence.
"""

from __future__ import annotations

import threading

import numpy as np

from ..arch.registers import WARP_LANES
from ..hmma import mma as mma_ops
from ..isa.operands import SpecialReg, PT_INDEX, RZ_INDEX
from ..perf import STATS
from .exec_units import ExecError, execute
from .uop import (
    MEM_GLOBAL as _MEM_GLOBAL,
    MEM_SHARED as _MEM_SHARED,
    MMA_BATCH_KERNELS,
    SOLO,
    decode_uop,
    k_iadd3,
    k_imad,
)

__all__ = ["BARRIER", "DIVERGED", "EXITED", "DecodedProgram", "predecode"]

#: Control signals returned by decoded-op closures (negative so that any
#: non-negative return value can be a branch-target slot).
EXITED = -1
BARRIER = -2
#: Stacked (multi-warp) closures return this -- before touching any state --
#: when the CTA's warps stop agreeing and must be executed per warp.
DIVERGED = -3

_MEM_TOKENS = frozenset((_MEM_GLOBAL, _MEM_SHARED))

#: Marker key for schedulable-but-not-batchable slots: they join a window as
#: single-member groups (keeping it unbroken) and run their own closure.
_SOLO = None


class DecodedProgram:
    """Slot-indexed decoded form of one :class:`~repro.isa.program.Program`.

    Parallel lists, indexed by slot (= instruction index):

    * ``run_fns`` -- the closure executing the slot;
    * ``next_pc`` -- fall-through successor (``pc + 1``, or ``pc + g`` for a
      fused run of ``g`` instructions);
    * ``lens`` -- instructions retired per execution (``g`` for fused runs);
    * ``reads_clock`` -- slot reads ``SR_CLOCKLO/HI``, so the interval loop
      must sync ``warp.retired`` before calling it;
    * ``slot_ops`` -- tuple of ``(opcode, count)`` pairs retired per
      execution (several pairs for a fused window), used by
      :meth:`accumulate` to expand per-slot execution counters into the
      per-opcode retire counts of a :class:`FunctionalResult`.

    ``lanes`` records the lane count the closures were compiled for (32 for
    one warp; ``n_ctas * n_warps * 32`` for a stacked state).
    """

    __slots__ = ("n", "run_fns", "next_pc", "lens", "reads_clock",
                 "slot_ops", "lanes")

    def __init__(self, n, run_fns, next_pc, lens, reads_clock, slot_ops,
                 lanes=WARP_LANES):
        self.n = n
        self.run_fns = run_fns
        self.next_pc = next_pc
        self.lens = lens
        self.reads_clock = reads_clock
        self.slot_ops = slot_ops
        self.lanes = lanes

    def new_counts(self) -> list:
        """Fresh per-slot execution counters for one launch."""
        return [0] * self.n

    def accumulate(self, counts, result) -> None:
        """Fold per-slot execution *counts* into *result* (a FunctionalResult)."""
        opcode_counts = result.opcode_counts
        total = 0
        for slot, executed in enumerate(counts):
            if not executed:
                continue
            for opcode, per_exec in self.slot_ops[slot]:
                retired = executed * per_exec
                total += retired
                opcode_counts[opcode] = opcode_counts.get(opcode, 0) + retired
        result.instructions_retired += total


# ----------------------------------------------------- descriptor compilation
#
# Closures the decode memo keeps bind what they need as default arguments
# rather than closure cells: one tuple per closure instead of one cell
# object per captured name, which halves what a memoised slot retains.

def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _const(value, lanes, dtype=np.uint32):
    """Read-only ``(lanes,)`` array of *value*: a stride-0 broadcast of one
    element, so a memoised closure holding it retains nothing lane-sized."""
    return np.broadcast_to(np.array(value, dtype=dtype), (lanes,))


def _special_getter(name, lanes):
    """fn(warp) -> (lanes,) array for a special register, or None."""
    if name == "SR_TID.X":
        return lambda warp: warp.tid
    if name in ("SR_TID.Y", "SR_TID.Z", "SRZ"):
        zeros = _const(0, lanes)
        return lambda warp: zeros
    if name == "SR_CTAID.X":
        return lambda warp: np.full(lanes, warp.ctaid[0], dtype=np.uint32)
    if name == "SR_CTAID.Y":
        return lambda warp: np.full(lanes, warp.ctaid[1], dtype=np.uint32)
    if name == "SR_CTAID.Z":
        return lambda warp: np.full(lanes, warp.ctaid[2], dtype=np.uint32)
    if name == "SR_LANEID":
        return lambda warp: warp.lane_ids
    if name == "SR_CLOCKLO":
        return lambda warp: np.full(
            lanes, warp.retired & 0xFFFFFFFF, dtype=np.uint32)
    if name == "SR_CLOCKHI":
        return lambda warp: np.full(
            lanes, (warp.retired >> 32) & 0xFFFFFFFF, dtype=np.uint32)
    return None


def _reader(desc, lanes):
    """Memoised :func:`_make_reader`: one closure per (descriptor, lanes)."""
    key = (desc, lanes)
    reader = _memo_get(key)
    if reader is None:
        reader = _memo_put(key, _make_reader(desc, lanes) or False)
    return reader or None


def _make_reader(desc, lanes):
    """Compile one µop source descriptor to fn(warp) -> array, or None."""
    kind = desc[0]
    if kind == "reg":
        index = desc[1]
        if index == RZ_INDEX:
            return lambda warp, zeros=_const(0, lanes): zeros
        return lambda warp, i=index: warp.regs._data[i]
    if kind == "reg_i32":
        index = desc[1]
        if index == RZ_INDEX:
            return lambda warp, zeros=_const(0, lanes, np.int32): zeros
        return lambda warp, i=index: warp.regs._data[i].view(np.int32)
    if kind == "regs":
        index, count = desc[1], desc[2]
        return lambda warp, rows=slice(index, index + count): \
            warp.regs._data[rows]
    if kind == "imm":
        return lambda warp, const=_const(desc[1], lanes): const
    if kind == "imm_i32":
        return lambda warp, const=_const(desc[1], lanes).view(np.int32): const
    if kind == "pred":
        index, negated = desc[1], desc[2]
        if negated:
            return lambda warp, i=index: ~warp.preds._data[i]
        return lambda warp, i=index: warp.preds._data[i]
    getter = _special_getter(desc[1], lanes)   # ("sr", ...) / ("sr_i32", ...)
    if kind == "sr_i32" and getter is not None:
        return lambda warp, get=getter: get(warp).view(np.int32)
    return getter


def _compile_alu(uop, lanes):
    # Special-register sources feed lane kernels through the reference path
    # only (their getters may return non-uint32 lane indices); the identity
    # move (kernel None) assigns them directly, which casts.
    if uop.kernel is not None and any(
            d[0] in ("sr", "sr_i32") for d in uop.srcs):
        return None
    readers = []
    for desc in uop.srcs:
        reader = _reader(desc, lanes)
        if reader is None:
            return None
        readers.append(reader)
    kernel = uop.kernel
    dest = uop.dest
    if dest[0] == "pred":
        if dest[1] == PT_INDEX:
            return _fall_through  # writes to PT are discarded
        r0, r1, r2 = readers

        def run(warp, di=dest[1], kernel=kernel, r0=r0, r1=r1, r2=r2):
            warp.preds._data[di] = kernel(r0(warp), r1(warp), r2(warp))
        return run
    d, words = dest[1], dest[2]
    if kernel is None:
        (r0,) = readers

        def run(warp, d=d, r0=r0):
            warp.regs._data[d] = r0(warp)
        return run
    if words > 1:
        r0, r1, r2 = readers

        def run(warp, rows=slice(d, d + words), kernel=kernel,
                r0=r0, r1=r1, r2=r2):
            warp.regs._data[rows] = kernel(r0(warp), r1(warp), r2(warp))
        return run
    if len(readers) == 2:
        r0, r1 = readers

        def run(warp, d=d, kernel=kernel, r0=r0, r1=r1):
            warp.regs._data[d] = kernel(r0(warp), r1(warp))
        return run
    if len(readers) == 3:
        r0, r1, r2 = readers

        def run(warp, d=d, kernel=kernel, r0=r0, r1=r1, r2=r2):
            warp.regs._data[d] = kernel(r0(warp), r1(warp), r2(warp))
        return run

    def run(warp, d=d, kernel=kernel, readers=tuple(readers)):
        warp.regs._data[d] = kernel(*[r(warp) for r in readers])
    return run


def _compile_mem(uop, lanes):
    mem = uop.mem
    mem_attr = "global_mem" if mem.space == "global" else "shared_mem"
    width = mem.width
    offset = mem.offset
    bi = mem.base_index
    if mem.is_store:
        data_rows = slice(mem.reg, mem.reg + mem.words)
        if bi == RZ_INDEX:
            def run(warp, space=mem_attr, width=width, rows=data_rows,
                    addresses=_const(offset, lanes, np.int64)):
                getattr(warp, space).store_warp(
                    addresses, warp.regs._data[rows], width, None)
        else:
            def run(warp, space=mem_attr, width=width, rows=data_rows,
                    bi=bi, offset=offset):
                addresses = warp.regs._data[bi].astype(np.int64) + offset
                getattr(warp, space).store_warp(
                    addresses, warp.regs._data[rows], width, None)
        return run
    dest_rows = slice(uop.dest[1], uop.dest[1] + mem.words)
    if bi == RZ_INDEX:
        def run(warp, space=mem_attr, width=width, rows=dest_rows,
                addresses=_const(offset, lanes, np.int64)):
            data = getattr(warp, space).load_warp(addresses, width, None)
            warp.regs._data[rows] = data
    else:
        def run(warp, space=mem_attr, width=width, rows=dest_rows,
                bi=bi, offset=offset):
            addresses = warp.regs._data[bi].astype(np.int64) + offset
            data = getattr(warp, space).load_warp(addresses, width, None)
            warp.regs._data[rows] = data
    return run


def _compile_uop(uop, lanes):
    """Fast closure for *uop* at *lanes*, or None (-> reference path)."""
    if not uop.groups_ok:
        return None
    if uop.lanes32_only and lanes != WARP_LANES:
        return None
    if uop.kind == "alu":
        return _compile_alu(uop, lanes)
    if uop.kind in ("load", "store"):
        return _compile_mem(uop, lanes)
    return None


def _reads_clock(inst) -> bool:
    return any(isinstance(op, SpecialReg) and op.name in ("SR_CLOCKLO", "SR_CLOCKHI")
               for op in inst.srcs)


# -------------------------------------------------------- control + fallback

def _fall_through(warp):
    return None


def _exit(warp):
    return EXITED


def _barrier(warp):
    return BARRIER


def _diverge(warp):
    return DIVERGED


def _build_exit(inst, lanes):
    if inst.pred is None:
        return _exit
    pi, negated = inst.pred.index, inst.pred.negated
    if lanes != WARP_LANES:
        # Stacked: a partial predicate may still be warp-uniform per warp --
        # de-stack and let per-warp execution sort it out.
        if negated:
            def run(warp, pi=pi):
                active = warp.preds._data[pi]
                if not active.any():
                    return EXITED
                if active.all():
                    return None
                return DIVERGED
        else:
            def run(warp, pi=pi):
                active = warp.preds._data[pi]
                if active.all():
                    return EXITED
                if not active.any():
                    return None
                return DIVERGED
        return run
    if negated:
        def run(warp, pi=pi):
            return EXITED if not warp.preds._data[pi].any() else None
    else:
        def run(warp, pi=pi):
            return EXITED if warp.preds._data[pi].all() else None
    return run


def _build_bra(inst, lanes):
    target = inst.target_index
    if inst.pred is None:
        if target is None:
            return _fall_through  # unresolved target falls through
        return lambda warp, target=target: target
    pi, negated = inst.pred.index, inst.pred.negated
    if lanes != WARP_LANES:
        if negated:
            def run(warp, pi=pi, target=target):
                active = warp.preds._data[pi]
                if not active.any():
                    return target
                if active.all():
                    return None
                return DIVERGED
        else:
            def run(warp, pi=pi, target=target):
                active = warp.preds._data[pi]
                if active.all():
                    return target
                if not active.any():
                    return None
                return DIVERGED
        return run
    if negated:
        def run(warp, pi=pi, target=target):
            active = warp.preds._data[pi]
            if not active.any():
                return target
            if active.all():
                return None
            raise ExecError(
                "divergent branch: this subset requires warp-uniform branch "
                f"predicates ({int(WARP_LANES - active.sum())}/32 lanes taken)")
    else:
        def run(warp, pi=pi, target=target):
            active = warp.preds._data[pi]
            if active.all():
                return target
            if not active.any():
                return None
            raise ExecError(
                "divergent branch: this subset requires warp-uniform branch "
                f"predicates ({int(active.sum())}/32 lanes taken)")
    return run


def _build_generic(inst, lanes):
    """Exact reference semantics: evaluate through ``execute`` and apply the
    Effects the same way the reference interval loop does.  Reference
    contexts are 32-lane, so stacked decodings de-stack instead."""
    if lanes != WARP_LANES:
        return _diverge

    def run(warp):
        eff = execute(inst, warp)
        for first_reg, values, mask in eff.reg_writes:
            warp.regs.write_group(
                first_reg, values, mask=None if mask.all() else mask)
        for index, values, mask in eff.pred_writes:
            warp.preds.write(index, values, mask=None if mask.all() else mask)
        if eff.exited:
            return EXITED
        if eff.branch_target is not None:
            return eff.branch_target
        if eff.barrier:
            return BARRIER
        return None
    return run


def _guarded(fast, generic, pred):
    """Predicate wrapper: all lanes on -> fast path; all off -> retire as a
    no-op; partial -> the reference path (which owns masked semantics; on a
    stacked decoding it returns :data:`DIVERGED` instead)."""
    if pred.negated:
        def run(warp, pi=pred.index, fast=fast, generic=generic):
            active = warp.preds._data[pi]
            if not active.any():
                return fast(warp)
            if active.all():
                return None
            return generic(warp)
    else:
        def run(warp, pi=pred.index, fast=fast, generic=generic):
            active = warp.preds._data[pi]
            if active.all():
                return fast(warp)
            if not active.any():
                return None
            return generic(warp)
    return run


def _decode_one(inst, lanes):
    """-> (closure, fusible): *fusible* marks an unpredicated slot whose
    closure is a pure fast path (safe as a silent member of a composite
    window, whose parts' return values are ignored)."""
    opcode = inst.opcode
    if opcode == "EXIT":
        return _build_exit(inst, lanes), False
    if opcode == "BAR":
        return _barrier, False  # arrives regardless of predication
    if opcode == "BRA":
        return _build_bra(inst, lanes), False
    if opcode == "NOP":
        return _fall_through, inst.pred is None
    generic = _build_generic(inst, lanes)
    try:
        uop = decode_uop(inst)
    except Exception:
        return generic, False  # malformed: the reference path raises at exec
    fast = _compile_uop(uop, lanes)
    if fast is None:
        return generic, False
    if inst.pred is None:
        return fast, True
    return _guarded(fast, generic, inst.pred), False


# -------------------------------------------------------------- fusion layer
#
# Generated kernels software-pipeline their inner loops (LDS and HMMA
# interleave 1:1), so batching only *consecutive* same-opcode runs would fuse
# almost nothing.  Instead, predecode finds maximal straight-line *windows*
# of schedulable slots and list-schedules each one: instructions with the
# same fusion key collect into a batch, reordered across unrelated neighbours
# when the dependence check proves the reorder is observation-equivalent.
#
# Keys, payloads and dependence sets all come from the µop table; this layer
# only groups them.  Dependence sets contain GPR indices (ints), predicate
# tokens ``("p", i)`` and whole-space memory tokens (loads read / stores
# write their space -- exact aliasing is unknown statically, so a space is
# one location).  Reads of RZ batch as gathers of register-file row 255,
# which stays all-zero because writes to RZ are discarded.

def _fuse_entry(inst, fusible):
    """(key, reads, writes, payload) when *inst* can join a fused window."""
    if not fusible or inst.pred is not None:
        return None
    try:
        uop = decode_uop(inst)
    except Exception:
        return None
    if uop.reads_clock or not uop.groups_ok or uop.fuse_key is None:
        return None
    key = _SOLO if uop.fuse_key == SOLO else uop.fuse_key
    return key, uop.reads, uop.writes, uop.fuse_payload


def _build_hmma_group(key, payloads):
    if key[1] in ("f16", "f32"):
        # Turing HMMA.1688: in-place fused-window executor -- composed
        # flat-index gathers straight from the register file,
        # unique-fragment dedup, one scatter for D (see hmma_1688_window
        # for the strategy and its size-capped fallback).
        window = mma_ops.hmma_1688_window(
            [p[0] for p in payloads], [p[1] for p in payloads],
            [p[2] for p in payloads], [p[3] for p in payloads],
            f32=key[1] == "f32")

        def run(warp):
            window(warp.regs._data, warp.tables)
        return run
    # Other generations (HMMA.884 / HMMA.16816): generic row-gather over
    # the arch's batch kernel from the shared MMA_BATCH_KERNELS table.
    return _build_mma_group(key, payloads)


def _mma_row_index(payloads, col, words):
    base = np.array([p[col] for p in payloads], dtype=np.intp)
    if words == 1:
        return base
    return base[:, None] + np.arange(words, dtype=np.intp)


def _build_mma_group(key, payloads):
    """Generic batched MMA executor: gather operand register rows, run the
    fuse key's batch kernel, scatter D -- the shape-agnostic core every
    non-1688 tensor op (IMMA.8816, HMMA.884, HMMA.16816) compiles to."""
    batch_fn, a_words, b_words, c_words = MMA_BATCH_KERNELS[key]
    d_idx = _mma_row_index(payloads, 0, c_words)
    a_idx = _mma_row_index(payloads, 1, a_words)
    b_idx = _mma_row_index(payloads, 2, b_words)
    c_idx = _mma_row_index(payloads, 3, c_words)

    def run(warp):
        regs = warp.regs._data
        regs[d_idx] = batch_fn(regs[a_idx], regs[b_idx], regs[c_idx])
    return run


def _build_mem_group(key, payloads):
    _, opcode, width = key
    is_store = opcode in ("STS", "STG")
    mem_attr = "global_mem" if opcode in ("LDG", "STG") else "shared_mem"
    g = len(payloads)
    words = width // 4
    reg_idx = np.array([[p[0] + i for i in range(words)] for p in payloads],
                       dtype=np.intp)
    base_idx = np.array([p[1] for p in payloads], dtype=np.intp)
    offsets = np.array([p[2] for p in payloads], dtype=np.int64).reshape(g, 1)

    if is_store:
        def run(warp):
            regs = warp.regs._data
            addresses = regs[base_idx].astype(np.int64) + offsets
            getattr(warp, mem_attr).store_warp_batch(addresses, regs[reg_idx], width)
    else:
        def run(warp):
            regs = warp.regs._data
            addresses = regs[base_idx].astype(np.int64) + offsets
            regs[reg_idx] = getattr(warp, mem_attr).load_warp_batch(addresses, width)
    return run


def _build_mov_group(key, payloads):
    d_idx = np.array([p[0] for p in payloads], dtype=np.intp)
    if key[1] == "r":
        s_idx = np.array([p[1] for p in payloads], dtype=np.intp)

        def run(warp):
            regs = warp.regs._data
            regs[d_idx] = regs[s_idx]
    else:
        values = _frozen(
            np.array([p[1] for p in payloads], dtype=np.uint32).reshape(-1, 1))

        def run(warp):
            warp.regs._data[d_idx] = values
    return run


def _group_terms(key, payloads):
    """Per-source-position batched term arrays for IADD3/IMAD groups."""
    signature = key[1]
    terms = []
    for pos, kind in enumerate(signature):
        if kind == "r":
            terms.append(("r", np.array([p[1][pos] for p in payloads],
                                        dtype=np.intp)))
        else:
            col = _frozen(np.array([p[1][pos] for p in payloads],
                                   dtype=np.uint32).reshape(-1, 1))
            terms.append(("i", col))
    return terms


def _build_iadd3_group(key, payloads):
    d_idx = np.array([p[0] for p in payloads], dtype=np.intp)
    terms = _group_terms(key, payloads)

    def run(warp):
        regs = warp.regs._data
        regs[d_idx] = k_iadd3(
            *[regs[arr] if kind == "r" else arr for kind, arr in terms])
    return run


def _build_imad_group(key, payloads):
    d_idx = np.array([p[0] for p in payloads], dtype=np.intp)
    (ka, ta), (kb, tb), (kc, tc) = _group_terms(key, payloads)

    def run(warp):
        regs = warp.regs._data
        regs[d_idx] = k_imad(regs[ta] if ka == "r" else ta,
                             regs[tb] if kb == "r" else tb,
                             regs[tc] if kc == "r" else tc)
    return run


_GROUP_BUILDERS = {
    "hmma": _build_hmma_group,
    "imma": _build_mma_group,
    "load": _build_mem_group,
    "store": _build_mem_group,
    "mov": _build_mov_group,
    "iadd3": _build_iadd3_group,
    "imad": _build_imad_group,
}


# ----------------------------------------------------------- window scheduler

class _Group:
    """One batch being assembled while scheduling a window."""

    __slots__ = ("key", "reads", "writes", "payloads", "slots")

    def __init__(self, key, reads, writes, payload, slot):
        self.key = key
        self.reads = set(reads)
        self.writes = set(writes)
        self.payloads = [payload]
        self.slots = [slot]


def _schedule_window(fuse, start, end):
    """List-schedule slots [start, end) into ordered groups.

    Groups execute in first-appearance order, members in original order.
    Instruction *j* may join the open group of its key only when the move is
    observation-equivalent: *j* must not depend on -- nor be depended on by --
    any member of a group scheduled after its own (those members originally
    precede *j* but will execute after it), and within its own group *j* must
    not read or overwrite anything the group already writes (the batch
    gathers every operand before it scatters any result).  Stores batch over
    their whole-space memory token: duplicate scatter indices resolve last-
    wins in member order, matching sequential stores exactly.
    """
    groups = []
    open_group = {}  # key -> index of the newest group with that key
    for slot in range(start, end):
        key, reads, writes, payload = fuse[slot]
        placed = False
        gi = open_group.get(key) if key is not _SOLO else None
        if gi is not None:
            group = groups[gi]
            own_writes = group.writes - _MEM_TOKENS
            if not ((reads - _MEM_TOKENS) & own_writes
                    or (writes - _MEM_TOKENS) & own_writes):
                ok = True
                for later in groups[gi + 1:]:
                    if (writes & later.reads or writes & later.writes
                            or reads & later.writes):
                        ok = False
                        break
                if ok:
                    group.reads |= reads
                    group.writes |= writes
                    group.payloads.append(payload)
                    group.slots.append(slot)
                    placed = True
        if not placed:
            groups.append(_Group(key, reads, writes, payload, slot))
            if key is not _SOLO:
                open_group[key] = len(groups) - 1
    return groups


# ---------------------------------------------------------------- predecode

#: Bound (entries) of the decode memo: one process-wide LRU, keyed by
#: content so that every launch of equal code -- a kernel relaunched from
#: the kernel cache, or slots that different kernels share -- reuses
#: compiled closures instead of decoding again:
#:
#: * ``(Instruction, lanes)`` -> ``(closure, fusible, reads clock)``;
#: * ``(window instructions, lanes)`` -> ``(fused closure, slot ops)``, or
#:   ``_UNFUSED`` for a window that batches nothing;
#: * ``(µop descriptor, lanes)`` -> a shared operand reader.
#:
#: Memoised closures carry no per-launch state (execution counters live in
#: the caller) and hold nothing lane-sized: constants are stride-0
#: broadcasts, and HMMA.1688 windows keep their flat index tables in the
#: launch's ``tables`` dict.  One round of the benchmark's
#: ``gemm-functional`` workload (45 kernels on three generations) fills
#: about 5.5k entries.
_MEMO_SIZE = 8192

_MEMO: dict = {}   # insertion-ordered: a hit re-inserts, eviction takes the first
_MEMO_LOCK = threading.Lock()

#: Window memo value: the window batches nothing, keep per-slot closures.
_UNFUSED = ()


def _memo_get(key):
    with _MEMO_LOCK:
        value = _MEMO.pop(key, None)
        if value is not None:
            _MEMO[key] = value
        return value


def _memo_put(key, value):
    with _MEMO_LOCK:
        _MEMO[key] = value
        if len(_MEMO) > _MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
    return value


def predecode(program, lanes: int = WARP_LANES) -> DecodedProgram:
    """Decode *program* into slot-indexed closures plus fused windows.

    ``lanes`` selects the lane count the closures operate on: 32 (default)
    for per-warp execution, ``n_ctas * n_warps * 32`` for a stacked
    gridlock state (``n_ctas == 1`` on the per-CTA de-stack rung).  Slots
    and windows come from the content-keyed decode memo, so only code not
    seen before at this lane count is compiled (``STATS`` counters
    ``decode.memo_hits`` / ``decode.memo_misses`` count slot and window
    lookups).
    """
    instructions = tuple(program)
    n = len(instructions)
    slots = [_memo_get((inst, lanes)) for inst in instructions]
    misses = 0
    for pc, entry in enumerate(slots):
        if entry is None:
            misses += 1
            inst = instructions[pc]
            slots[pc] = _memo_put((inst, lanes), _decode_slot(inst, lanes))
    lookups = n
    run_fns = [entry[0] for entry in slots]
    fusible = [entry[1] for entry in slots]
    reads_clock = [entry[2] for entry in slots]
    next_pc = list(range(1, n + 1))
    lens = [1] * n
    slot_ops = [((inst.opcode, 1),) for inst in instructions]

    start = 0
    while start < n:
        if not fusible[start]:
            start += 1
            continue
        end = start
        while end < n and fusible[end]:
            end += 1
        if end - start >= 2:
            key = (instructions[start:end], lanes)
            window = _memo_get(key)
            lookups += 1
            if window is None:
                misses += 1
                window = _memo_put(key, _fuse_window(
                    instructions, run_fns, start, end))
            if window is not _UNFUSED:
                run_fns[start], slot_ops[start] = window
                next_pc[start] = end
                lens[start] = end - start
        start = end

    STATS.count("decode.memo_hits", lookups - misses)
    STATS.count("decode.memo_misses", misses)
    return DecodedProgram(n, run_fns, next_pc, lens, reads_clock, slot_ops,
                          lanes)


def _decode_slot(inst, lanes):
    """Memo value of one slot: ``(closure, fusible, reads clock)``, where
    *fusible* marks a slot that can join a fused window."""
    fn, fusible = _decode_one(inst, lanes)
    return fn, _fuse_entry(inst, fusible) is not None, _reads_clock(inst)


def _fuse_window(instructions, run_fns, start, end):
    """Fuse window [start, end) into one composite closure for slot *start*:
    ``(closure, slot ops)``, or ``_UNFUSED`` when nothing batches.

    Member slots keep their individual closures so branches into the middle
    of a window still execute exactly.
    """
    fuse = {slot: _fuse_entry(instructions[slot], True)
            for slot in range(start, end)}
    groups = _schedule_window(fuse, start, end)
    if not any(g.key is not _SOLO and len(g.payloads) >= 2 for g in groups):
        return _UNFUSED  # nothing batched; composition would only add indirection
    parts = []
    for group in groups:
        if group.key is not _SOLO and len(group.payloads) >= 2:
            parts.append(_GROUP_BUILDERS[group.key[0]](group.key, group.payloads))
        else:
            parts.extend(run_fns[slot] for slot in group.slots)

    def run(warp, _parts=tuple(parts)):
        for part in _parts:
            part(warp)

    ops = []
    for slot in range(start, end):
        opcode = instructions[slot].opcode
        if ops and ops[-1][0] == opcode:
            ops[-1] = (opcode, ops[-1][1] + 1)
        else:
            ops.append((opcode, 1))
    return run, tuple(ops)
