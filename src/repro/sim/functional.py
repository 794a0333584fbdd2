"""Functional (untimed) simulator: executes a kernel over a full grid.

This is the correctness half of the substrate: it runs the generated HGEMM
kernels and produces bit-exact results that tests compare against NumPy
references.  Within a CTA, warps execute round-robin in *barrier
intervals*: each warp runs until it reaches a ``BAR.SYNC``, an ``EXIT`` or a
configurable fuel limit; the barrier releases when every live warp arrives.
This is exact for well-synchronised programs (all cross-warp communication
through shared memory must be separated by barriers -- which is also the
hardware's own correctness contract).

Two execution engines share those semantics:

* ``"gridlock"`` (the default) -- the grid-lockstep engine: the program is
  decoded once by :func:`repro.sim.decode.predecode` (which compiles the
  one µop table in :mod:`repro.sim.uop`) for ``n_ctas * n_warps * 32``
  stacked lanes, and a chunk of CTAs executes each slot as one NumPy
  operation.  Shared memory becomes a stacked
  :class:`~repro.sim.shared.StackedSharedMemory` (one segment per CTA,
  constant per-lane word offsets) and ``CTAID`` reads become per-lane
  constant arrays.  A launch runs in chunks of at most ``_GRIDLOCK_LANES``
  stacked lanes.  Wherever the stacked lanes could stop agreeing (CTA- or
  warp-divergent predicates or branches, reference-only paths) a closure
  returns ``DIVERGED`` *before* mutating state and the state de-stacks
  down an internal ladder, resuming at the refusal point: a multi-CTA
  state splits into 1-CTA states (``STATS`` counter ``func.grid_destacks``)
  and a 1-CTA state splits into 32-lane warps that finish in barrier
  intervals (``func.destacks``).  Well-synchronised GEMM kernels never
  de-stack.
* ``"reference"`` -- the instruction-at-a-time interpreter through
  :func:`repro.sim.exec_units.execute`, kept as the semantic ground
  truth for differential tests, the divergence watchdog and benchmark
  baselines (``REPRO_FUNC_ENGINE=reference``).

Because barrier intervals never cross CTAs, CTAs are architecturally
independent and a grid can run CTA-parallel: pass ``max_workers`` to
:meth:`FunctionalSimulator.run` and the grid is sharded over worker
processes that scatter into one ``multiprocessing.shared_memory`` block
backing :class:`GlobalMemory`, each CTA writing its own C tile.  Results
(instruction retire counts per opcode) merge deterministically, so serial
and parallel runs are bit-identical -- ``tests/sim/test_golden_functional.py``
pins this.

``CS2R SR_CLOCKLO`` returns the warp's retired-instruction count here; for
cycle-accurate clocks use :class:`repro.sim.timing.TimingSimulator`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import shared_memory as _shm_mod

import numpy as np

from ..arch.registers import PredicateFile, RegisterFile, WARP_LANES
from ..isa.program import Program
from ..perf import STATS, default_workers, parallel_map
from ..robust import chaos
from ..robust import guard as _guard
from .decode import DIVERGED, EXITED, predecode
from .exec_units import ExecError, execute
from .memory import GlobalMemory
from .shared import SharedMemory, StackedSharedMemory

__all__ = ["FunctionalSimulator", "FunctionalResult", "SimLimitError"]

ENGINES = ("gridlock", "reference")

#: Stacked-lane budget of one grid-lockstep state: a launch runs in chunks
#: of ``max(1, _GRIDLOCK_LANES // (warps_per_cta * 32))`` CTAs.  Bounds the
#: register file at 256 rows x 512 lanes x 4 bytes = 512 KiB whatever the
#: CTA size, and with it the decoded HMMA windows' flat index tables, which
#: grow with the lane count: wider chunks buy little more speed on 8-warp
#: CTAs and cost peak memory.
_GRIDLOCK_LANES = 512


def _default_engine() -> str:
    engine = os.environ.get("REPRO_FUNC_ENGINE", "gridlock")
    if engine not in ENGINES:
        raise ValueError(
            f"REPRO_FUNC_ENGINE must be one of {ENGINES}, got {engine!r}")
    return engine


class SimLimitError(RuntimeError):
    """Raised when a warp exceeds its instruction fuel (runaway loop)."""


class _WarpState:
    """Execution context of one warp (duck-typed for exec_units).

    ``tables`` is the launch's dict of lane-sized tables built on first use
    (the decoded HMMA.1688 windows' flat index tables); every state of one
    launch shares it, and it dies with the launch.
    """

    def __init__(self, warp_id: int, ctaid, block_dim: int,
                 global_mem: GlobalMemory, shared_mem: SharedMemory,
                 tables: dict = None):
        self.warp_id = warp_id
        self.ctaid = ctaid
        self.lane_ids = np.arange(WARP_LANES, dtype=np.uint32)
        self.tid = (warp_id * WARP_LANES + self.lane_ids).astype(np.uint32)
        self.regs = RegisterFile()
        self.preds = PredicateFile()
        self.global_mem = global_mem
        self.shared_mem = shared_mem
        self.tables = {} if tables is None else tables
        self.pc = 0
        self.retired = 0
        self.exited = False
        self.at_barrier = False

    def clock(self) -> int:
        return self.retired


class _GridState:
    """Stacked execution context for a chunk of CTAs: all warps of all CTAs
    as ``n_ctas * n_warps * 32`` lanes, laid out CTA-major then warp-major.

    Duck-types the warp attributes the decoded closures touch (``regs``,
    ``preds``, ``tid``, ``lane_ids``, ``ctaid``, memories, ``retired``), so
    a closure compiled for stacked lanes runs every warp at once.  Two
    attributes are stacked rather than scalar: ``ctaid`` is a tuple of three
    per-lane arrays (``np.full`` in the decoded ``S2R SR_CTAID`` getters
    broadcasts them, so the decode layer needs no grid awareness) and
    ``shared_mem`` is a :class:`StackedSharedMemory` whose per-lane word
    offsets route each lane to its own CTA's segment.  A 1-CTA state is the
    per-CTA rung of the de-stack ladder.  ``tables`` is the launch's dict
    of lane-sized tables, as on :class:`_WarpState`.
    """

    def __init__(self, ctaids, n_warps: int, block_dim: int,
                 global_mem: GlobalMemory, smem_bytes: int,
                 tables: dict = None):
        self.ctaids = list(ctaids)
        self.n_ctas = len(self.ctaids)
        self.n_warps = n_warps
        self.block_dim = block_dim
        lanes_per_cta = n_warps * WARP_LANES
        self.lanes = self.n_ctas * lanes_per_cta
        self.lane_ids = np.tile(
            np.arange(WARP_LANES, dtype=np.uint32), n_warps * self.n_ctas)
        self.tid = np.tile(
            np.arange(lanes_per_cta, dtype=np.uint32), self.n_ctas)
        self.ctaid = tuple(
            np.repeat(
                np.array([c[axis] for c in self.ctaids], dtype=np.uint32),
                lanes_per_cta)
            for axis in range(3))
        self.regs = RegisterFile(self.lanes)
        self.preds = PredicateFile(self.lanes)
        self.global_mem = global_mem
        self.shared_mem = StackedSharedMemory(smem_bytes, self.n_ctas,
                                              lanes_per_cta)
        self.tables = {} if tables is None else tables
        self.retired = 0

    def clock(self) -> int:
        return self.retired

    def split_ctas(self) -> list:
        """De-stack into 1-CTA states (column-slice copies plus each CTA's
        own shared segment)."""
        lanes_per_cta = self.n_warps * WARP_LANES
        ctas = []
        for c, ctaid in enumerate(self.ctaids):
            cta = _GridState([ctaid], self.n_warps, self.block_dim,
                             self.global_mem, self.shared_mem.size,
                             self.tables)
            cta.shared_mem.segment(0)[:] = self.shared_mem.segment(c)
            cols = slice(c * lanes_per_cta, (c + 1) * lanes_per_cta)
            cta.regs._data[:] = self.regs._data[:, cols]
            cta.preds._data[:] = self.preds._data[:, cols]
            ctas.append(cta)
        return ctas

    def split_warps(self, pc: int, retired: int) -> list:
        """De-stack a 1-CTA state into per-warp states (column-slice copies
        sharing one plain :class:`SharedMemory`), all resuming at *pc* with
        *retired* instructions already counted."""
        shared = SharedMemory(self.shared_mem.size)
        shared._words[:] = self.shared_mem.segment(0)
        warps = []
        for w in range(self.n_warps):
            warp = _WarpState(w, self.ctaids[0], self.block_dim,
                              self.global_mem, shared, self.tables)
            cols = slice(w * WARP_LANES, (w + 1) * WARP_LANES)
            warp.regs._data[:] = self.regs._data[:, cols]
            warp.preds._data[:] = self.preds._data[:, cols]
            warp.pc = pc
            warp.retired = retired
            warps.append(warp)
        return warps


@dataclass
class FunctionalResult:
    """Statistics of one functional launch."""

    instructions_retired: int = 0
    opcode_counts: dict = field(default_factory=dict)
    ctas_run: int = 0

    def _count(self, opcode: str) -> None:
        self.instructions_retired += 1
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1

    def _merge(self, other: "FunctionalResult") -> None:
        self.instructions_retired += other.instructions_retired
        self.ctas_run += other.ctas_run
        for opcode, count in other.opcode_counts.items():
            self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + count


class FunctionalSimulator:
    """Executes programs functionally over an (x, y) grid of CTAs.

    ``engine`` selects the execution engine (``None`` -> ``REPRO_FUNC_ENGINE``
    or gridlock); ``guard`` the divergence-watchdog mode (``None`` ->
    ``REPRO_GUARD``, see :mod:`repro.robust.guard`).  A watchdog
    degradation may run the launch on a slower rung than ``engine``
    requests -- never a faster one.
    """

    def __init__(self, max_instructions_per_warp: int = 5_000_000,
                 engine: str = None, guard: str = None):
        self.max_instructions_per_warp = max_instructions_per_warp
        self.engine = engine if engine is not None else _default_engine()
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        self.guard = guard

    def run(self, program: Program, global_mem: GlobalMemory,
            grid_dim=(1, 1), max_workers: int = None) -> FunctionalResult:
        """Launch *program* over ``grid_dim`` CTAs against *global_mem*.

        ``max_workers`` is the CTA-parallel worker count with the
        :func:`repro.perf.parallel.parallel_map` conventions (``None``/1
        serial, 0 one per CPU).
        """
        gx, gy = (grid_dim if len(grid_dim) == 2 else (*grid_dim, 1)[:2])
        ctaids = [(bx, by, 0) for by in range(gy) for bx in range(gx)]
        workers = _resolve_workers(max_workers, len(ctaids))
        mode = _guard.guard_mode(self.guard)
        engine = _guard.effective_func_engine(self.engine)
        ctx = None
        if mode != "off" and engine != "reference":
            ctx = _guard.GuardContext("functional", engine, mode,
                                      global_mem._words)
        STATS.count("func.runs")
        STATS.count("func.workers", workers)
        with STATS.timer("func.wall"):
            if workers > 1:
                result = self._run_parallel(program, global_mem, ctaids,
                                            workers, engine)
            else:
                result = self._run_ctas(program, global_mem, ctaids, engine)
        if ctx is not None:
            # Chaos flip fires only on guarded runs: a synthetic fast-engine
            # bug for the watchdog to catch, never silent corruption.
            chaos.maybe_flip_output(global_mem._words)
            result = ctx.conclude(
                global_mem._words, result,
                lambda: _reference_rerun(program, ctx.pre, grid_dim,
                                         self.max_instructions_per_warp),
                program=program,
                context={"grid_dim": [gx, gy], "engine": engine,
                         "workers": workers},
            )
        STATS.count("func.ctas", result.ctas_run)
        STATS.count("func.instructions", result.instructions_retired)
        return result

    # ------------------------------------------------------------ internals

    def _run_ctas(self, program: Program, global_mem: GlobalMemory,
                  ctaids, engine: str) -> FunctionalResult:
        result = FunctionalResult()
        if engine == "reference":
            for ctaid in ctaids:
                self._run_cta(program, global_mem, ctaid, result)
                result.ctas_run += 1
            return result
        # gridlock: stack chunks of CTAs within the lane budget.  Every rung
        # a chunk may de-stack to needs its own decoding (closures are
        # lane-count-specialised); they are built on first use and each
        # keeps its own counters because their window structures can differ.
        # Lane-sized tables the closures build live in one dict per launch.
        meta = program.meta
        chunk = max(1, _GRIDLOCK_LANES // (meta.warps_per_cta * WARP_LANES))
        decodings = {}  # lanes -> (DecodedProgram, per-slot counts)
        tables = {}
        for start in range(0, len(ctaids), chunk):
            state = _GridState(ctaids[start:start + chunk], meta.warps_per_cta,
                               meta.block_dim, global_mem, meta.smem_bytes,
                               tables)
            self._run_stacked(program, decodings, state, 0, 0)
            result.ctas_run += state.n_ctas
        for decoded, counts in decodings.values():
            decoded.accumulate(counts, result)
        return result

    def _run_parallel(self, program: Program, global_mem: GlobalMemory,
                      ctaids, workers: int, engine: str) -> FunctionalResult:
        # Back device memory with a shared block; each worker attaches and
        # scatters its CTAs' stores straight into it.  CTAs write disjoint
        # output tiles, so in-place writes cannot race.
        chunks = [ctaids[i::workers] for i in range(workers)]
        shm = _shm_mod.SharedMemory(create=True, size=global_mem._words.nbytes)
        try:
            view = np.frombuffer(shm.buf, dtype=np.uint32)
            try:
                np.copyto(view, global_mem._words)
                partials = parallel_map(
                    _worker_run_chunk, chunks, max_workers=workers,
                    initializer=_worker_init,
                    initargs=(shm.name, global_mem.size, program, engine,
                              self.max_instructions_per_warp),
                )
                np.copyto(global_mem._words, view)
            finally:
                del view
        finally:
            shm.close()
            shm.unlink()
        result = FunctionalResult()
        for partial in partials:
            result._merge(partial)
        return result

    def _run_cta(self, program: Program, global_mem: GlobalMemory,
                 ctaid, result: FunctionalResult) -> None:
        shared = SharedMemory(program.meta.smem_bytes)
        warps = [
            _WarpState(w, ctaid, program.meta.block_dim, global_mem, shared)
            for w in range(program.meta.warps_per_cta)
        ]
        while True:
            progressed = False
            for warp in warps:
                if warp.exited or warp.at_barrier:
                    continue
                self._run_warp_interval(program, warp, result)
                progressed = True
            live = [w for w in warps if not w.exited]
            if not live:
                return
            if all(w.at_barrier for w in live):
                for w in live:  # release the barrier
                    w.at_barrier = False
                continue
            if not progressed:
                raise SimLimitError(
                    f"CTA {ctaid} deadlocked: some warps wait at a barrier "
                    "that the others never reach"
                )

    def _run_warp_interval(self, program: Program, warp: _WarpState,
                           result: FunctionalResult) -> None:
        """Run one warp until barrier / exit / fuel exhaustion."""
        while True:
            if warp.retired >= self.max_instructions_per_warp:
                raise SimLimitError(
                    f"warp {warp.warp_id} exceeded "
                    f"{self.max_instructions_per_warp} instructions"
                )
            if warp.pc >= len(program):
                raise ExecError(
                    f"warp {warp.warp_id} ran off the end of the program "
                    f"(pc={warp.pc}); missing EXIT?"
                )
            inst = program[warp.pc]
            eff = execute(inst, warp)
            warp.retired += 1
            result._count(inst.opcode)

            for first_reg, values, mask in eff.reg_writes:
                warp.regs.write_group(first_reg, values, mask=_opt_mask(mask))
            for index, values, mask in eff.pred_writes:
                warp.preds.write(index, values, mask=_opt_mask(mask))

            if eff.exited:
                warp.exited = True
                return
            if eff.branch_target is not None:
                warp.pc = eff.branch_target
            else:
                warp.pc += 1
            if eff.barrier:
                warp.at_barrier = True
                return

    # ------------------------------------------------------- gridlock engine

    def _run_stacked(self, program: Program, decodings, state: _GridState,
                     pc: int, retired: int) -> None:
        """Signal-dispatch loop over a stacked state from (pc, retired).

        Every warp of every CTA in *state* executes the same slot at once,
        so barriers release instantly (each CTA's barrier is independent,
        and lockstep means all its warps arrive in the same slot) and
        ``EXITED``/branches are uniform by construction.  ``DIVERGED`` is a
        pure refusal (no state was mutated) that de-stacks one rung: a
        multi-CTA state splits into 1-CTA states that re-enter this loop,
        and a 1-CTA state splits into warps that finish on the 32-lane
        interleave path, which owns all per-warp semantics.  Slot indices
        are lane-count invariant, so the resume point means the same thing
        at every rung.
        """
        decoded, counts = _decoding(program, decodings, state.lanes)
        run_fns = decoded.run_fns
        next_pc = decoded.next_pc
        lens = decoded.lens
        reads_clock = decoded.reads_clock
        n = decoded.n
        limit = self.max_instructions_per_warp
        warps_in_state = state.n_ctas * state.n_warps
        ctaids = state.ctaids
        where = (f"CTA {ctaids[0]}" if state.n_ctas == 1
                 else f"grid chunk {ctaids[0]}..{ctaids[-1]}")
        # ``retired`` is the per-warp count (identical across the state).
        while True:
            if retired >= limit:
                raise SimLimitError(
                    f"{where} exceeded {limit} instructions per warp")
            if pc >= n:
                raise ExecError(
                    f"{where} ran off the end of the program (pc={pc}); "
                    "missing EXIT?")
            if reads_clock[pc]:
                state.retired = retired  # CS2R reads the pre-retire count
            signal = run_fns[pc](state)
            if signal == DIVERGED:
                if state.n_ctas > 1:
                    STATS.count("func.grid_destacks")
                    for cta in state.split_ctas():
                        self._run_stacked(program, decodings, cta, pc,
                                          retired)
                else:
                    STATS.count("func.destacks")
                    decoded, counts = _decoding(program, decodings,
                                                WARP_LANES)
                    self._interleave_decoded(
                        decoded, counts, state.split_warps(pc, retired),
                        ctaids[0])
                return
            counts[pc] += warps_in_state
            retired += lens[pc]
            if signal is None:
                pc = next_pc[pc]
            elif signal >= 0:
                pc = signal
            elif signal == EXITED:
                return  # uniform by construction: every warp exits
            else:  # BARRIER: every warp arrived together; release instantly
                pc = next_pc[pc]

    def _interleave_decoded(self, decoded, counts, warps, ctaid) -> None:
        """Round-robin barrier-interval loop over per-warp states."""
        while True:
            progressed = False
            for warp in warps:
                if warp.exited or warp.at_barrier:
                    continue
                self._run_warp_interval_decoded(decoded, counts, warp)
                progressed = True
            live = [w for w in warps if not w.exited]
            if not live:
                return
            if all(w.at_barrier for w in live):
                for w in live:  # release the barrier
                    w.at_barrier = False
                continue
            if not progressed:
                raise SimLimitError(
                    f"CTA {ctaid} deadlocked: some warps wait at a barrier "
                    "that the others never reach"
                )

    def _run_warp_interval_decoded(self, decoded, counts, warp) -> None:
        """Decoded interval loop: dispatch closures until barrier/exit/fuel."""
        run_fns = decoded.run_fns
        next_pc = decoded.next_pc
        lens = decoded.lens
        reads_clock = decoded.reads_clock
        n = decoded.n
        limit = self.max_instructions_per_warp
        pc = warp.pc
        retired = warp.retired
        try:
            while True:
                if retired >= limit:
                    raise SimLimitError(
                        f"warp {warp.warp_id} exceeded {limit} instructions")
                if pc >= n:
                    raise ExecError(
                        f"warp {warp.warp_id} ran off the end of the program "
                        f"(pc={pc}); missing EXIT?")
                if reads_clock[pc]:
                    warp.retired = retired  # CS2R reads the pre-retire count
                signal = run_fns[pc](warp)
                counts[pc] += 1
                retired += lens[pc]
                if signal is None:
                    pc = next_pc[pc]
                elif signal >= 0:
                    pc = signal
                elif signal == EXITED:
                    warp.exited = True
                    return
                else:  # BARRIER
                    pc = next_pc[pc]
                    warp.at_barrier = True
                    return
        finally:
            warp.pc = pc
            warp.retired = retired


def _resolve_workers(max_workers, n_ctas: int) -> int:
    if max_workers is None:
        return 1
    workers = default_workers() if max_workers == 0 else int(max_workers)
    return max(1, min(workers, n_ctas))


def _decoding(program: Program, decodings: dict, lanes: int):
    """The ``(DecodedProgram, counts)`` pair of one launch for *lanes*,
    built on first use."""
    entry = decodings.get(lanes)
    if entry is None:
        decoded = predecode(program, lanes=lanes)
        entry = decodings[lanes] = (decoded, decoded.new_counts())
    return entry


def _opt_mask(mask: np.ndarray):
    """Treat an all-active mask as no mask (fast path + full overwrite)."""
    return None if mask.all() else mask


def _reference_rerun(program: Program, pre_words: np.ndarray, grid_dim,
                     fuel: int):
    """Watchdog rerun: the same launch on the reference engine, from the
    guarded run's memory snapshot.  Returns ``(result, memory_words)``."""
    mem = GlobalMemory(pre_words.nbytes)
    np.copyto(mem._words, pre_words)
    sim = FunctionalSimulator(max_instructions_per_warp=fuel,
                              engine="reference", guard="off")
    result = sim.run(program, mem, grid_dim=grid_dim)
    return result, mem._words


# ------------------------------------------------------- worker-side plumbing

_WORKER: dict = {}


def _worker_init(shm_name: str, size_bytes: int, program: Program,
                 engine: str, max_instructions_per_warp: int) -> None:
    """Runs once per worker process: attach the shared device memory."""
    shm = _shm_mod.SharedMemory(name=shm_name)
    _WORKER["shm"] = shm
    _WORKER["mem"] = GlobalMemory(size_bytes, buffer=shm.buf)
    _WORKER["program"] = program
    _WORKER["sim"] = FunctionalSimulator(
        max_instructions_per_warp=max_instructions_per_warp, engine=engine)


def _worker_run_chunk(ctaids) -> FunctionalResult:
    """Run one shard of CTAs against the shared memory; return its stats."""
    sim = _WORKER["sim"]
    return sim._run_ctas(_WORKER["program"], _WORKER["mem"], ctaids,
                         sim.engine)
