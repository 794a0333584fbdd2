"""Divergence watchdog: runtime re-validation against the reference engines.

The fast engines (functional gridlock/lockstep/predecoded, the event
timing engine) are pinned bit-identical to the
reference implementations by goldens and differential fuzz -- *at test
time*.  A long-running service cannot assume that invariant survives every
input forever, and silent numeric divergence is the failure mode a tensor
core model must fear most.  This watchdog defends the invariant at run
time:

* **Modes** (``REPRO_GUARD`` or a per-simulator ``guard=`` override /
  ``PerfOptions.guard``): ``off`` (default, zero overhead), ``sample``
  (overhead-bounded sampling, see below) and ``full`` (every fast run is
  re-executed).
* **Check**: before a guarded run the memory image is snapshotted; after
  it, the run may be re-executed on the ``reference`` engine from the
  snapshot and compared -- the whole memory image plus the result object
  (``FunctionalResult`` / ``TimingResult`` observables).  A value-free
  timing run (``TimingSimulator.run_cycles``) compares the
  ``TimingResult`` only: its memory image is not an observable.
* **On divergence**: a reproducer bundle (program bytes, run context,
  digests, initial memory) is written to ``$REPRO_CACHE_DIR/divergence/``,
  the process degrades one rung down the engine ladder, the reference
  result (and memory) replaces the bad one, and the run *completes
  correctly* -- callers never see the divergence, only the ``guard.*``
  counters and the slower rung do.

**Degradation ladders** (process-wide, monotone):

* functional: ``gridlock -> lockstep -> predecoded -> reference``
* timing: ``event -> reference``

**Sampling** is wall-clock-budgeted rather than every-Nth: the guard
tracks the accumulated wall of guarded fast runs and of its own reference
re-runs, and verifies a run only while the re-run budget
(``REPRO_GUARD_BUDGET``, default 5% of accumulated fast wall) stays
unspent.  The reference engines are several times slower than the fast
paths, so a fixed 1-in-N rate would cost whatever the slowdown happens to
be; the budget form bounds overhead by construction and adapts the check
rate to however expensive the checks turn out.  ``full`` mode ignores the
budget.

STATS counters: ``guard.checks`` (reference re-executions),
``guard.divergences`` (mismatches caught), ``guard.degraded`` (ladder
steps taken).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from ..perf.cache import SIM_VERSION, cache_dir
from ..perf.stats import STATS

__all__ = [
    "MODES",
    "FUNC_LADDER",
    "guard_mode",
    "effective_func_engine",
    "effective_timing_engine",
    "degradation_report",
    "reset",
    "GuardContext",
]

_ENV_MODE = "REPRO_GUARD"
_ENV_BUDGET = "REPRO_GUARD_BUDGET"

MODES = ("off", "sample", "full")

#: Functional engine ladder, fastest first.  A divergence on one rung
#: degrades the process to the next; ``reference`` is never guarded.
FUNC_LADDER = ("gridlock", "lockstep", "predecoded", "reference")

#: Process-wide watchdog state.  ``func_cap`` / ``timing_ref``
#: implement the monotone degradation ladders; the wall accumulators and
#: the learned check/run cost ratio drive the sampling budget.
_state = {
    "func_cap": 0,        # minimum FUNC_LADDER index new runs may use
    "timing_ref": False,  # timing rung: force the reference engine
    "total_wall": 0.0,    # accumulated guarded fast-run wall (seconds)
    "guard_wall": 0.0,    # accumulated reference re-run wall (seconds)
    "ratio": 4.0,         # learned (re-run wall / fast wall) estimate
    "bundles": 0,         # reproducer bundles written by this process
}


def reset() -> None:
    """Forget all degradation and sampling state (test isolation)."""
    _state.update(func_cap=0, timing_ref=False,
                  total_wall=0.0, guard_wall=0.0, ratio=4.0, bundles=0)


def guard_mode(override: str = None) -> str:
    """Resolve the guard mode: explicit override, else ``REPRO_GUARD``."""
    mode = override if override is not None else os.environ.get(_ENV_MODE, "off")
    if mode not in MODES:
        raise ValueError(f"guard mode must be one of {MODES}, got {mode!r}")
    return mode


# --------------------------------------------------------------- degradation

def effective_func_engine(engine: str) -> str:
    """The functional engine actually allowed to run *engine*'s request.

    Degradation only ever moves runs toward ``reference``; a request that
    is already at or below the degraded rung is unchanged.
    """
    if engine not in FUNC_LADDER:
        return engine
    return FUNC_LADDER[max(FUNC_LADDER.index(engine), _state["func_cap"])]


def effective_timing_engine(engine: str) -> str:
    """The timing engine allowed to run *engine*'s request."""
    if _state["timing_ref"]:
        return "reference"
    return engine


def _degrade(kind: str, engine: str) -> None:
    if kind == "functional":
        rung = FUNC_LADDER.index(engine) if engine in FUNC_LADDER else 0
        _state["func_cap"] = max(_state["func_cap"],
                                 min(rung + 1, len(FUNC_LADDER) - 1))
    else:
        _state["timing_ref"] = True
    STATS.count("guard.degraded")


def degradation_report() -> dict:
    """Current watchdog state for ``repro doctor`` and tests."""
    return {
        "func_engine_floor": FUNC_LADDER[_state["func_cap"]],
        "timing_engine_floor": "reference" if _state["timing_ref"] else "event",
        "bundles_written": _state["bundles"],
        "guarded_wall_s": round(_state["total_wall"], 4),
        "check_wall_s": round(_state["guard_wall"], 4),
    }


# ------------------------------------------------------------------ sampling

def _budget() -> float:
    try:
        return float(os.environ.get(_ENV_BUDGET, "") or 0.05)
    except ValueError:
        return 0.05


def _decide(mode: str, run_wall: float) -> bool:
    """Should this guarded run be verified right now?

    ``full`` always verifies.  ``sample`` verifies while the estimated
    cost of one more check keeps total check wall within the budget
    fraction of all guarded wall (fast runs plus the check itself) --
    self-limiting whatever the reference-engine slowdown is.
    """
    if mode == "full":
        return True
    est = _state["ratio"] * max(run_wall, 1e-9)
    return (_state["guard_wall"] + est
            <= _budget() * (_state["total_wall"] + est))


# ------------------------------------------------------------------- bundles

def _digest(words: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(words).tobytes()).hexdigest()


def _jsonable(value):
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def _write_bundle(kind: str, engine: str, program, pre_words, fast_words,
                  ref_words, fast_result, ref_result, context: dict):
    """Persist everything needed to replay a divergence offline.

    Best-effort: a read-only filesystem must not turn a *handled*
    divergence into a crash, so every OSError is swallowed.
    """
    from ..isa.encoding import encode_program

    try:
        program_bytes = bytes(encode_program(program))
    except Exception:
        program_bytes = b""
    name = f"{kind}-{_digest(pre_words)[:12]}-{_state['bundles']:03d}"
    root = cache_dir() / "divergence" / name
    meta = {
        "kind": kind,
        "engine": engine,
        "sim_version": SIM_VERSION,
        "context": {k: _jsonable(v) for k, v in context.items()},
        "digests": {
            "memory_pre": _digest(pre_words),
            "memory_fast": _digest(fast_words),
            "memory_reference": _digest(ref_words),
        },
        "fast_result": _jsonable(_summarize(fast_result)),
        "reference_result": _jsonable(_summarize(ref_result)),
        "env": {k: v for k, v in os.environ.items()
                if k.startswith("REPRO_")},
    }
    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / "program.bin").write_bytes(program_bytes)
        (root / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        with open(root / "memory_pre.npz", "wb") as fh:
            np.savez_compressed(fh, words=pre_words)
    except OSError:
        return None
    _state["bundles"] += 1
    return root


def _summarize(result) -> dict:
    """Result observables worth recording in a bundle, class-agnostic."""
    out = {}
    for field in ("cycles", "instructions", "instructions_retired",
                  "opcode_counts", "ctas_run", "pipe_busy",
                  "issue_stall_reasons"):
        if hasattr(result, field):
            out[field] = getattr(result, field)
    return out or {"repr": repr(result)}


# ------------------------------------------------------------ guard context

class GuardContext:
    """One guarded run: snapshot at construction, verdict at ``conclude``.

    Construct only when the mode is not ``off`` and the engine is not
    ``reference`` (the reference engines are the ground truth; guarding
    them would be circular).
    """

    def __init__(self, kind: str, engine: str, mode: str, words: np.ndarray):
        self.kind = kind
        self.engine = engine
        self.mode = mode
        self.pre = np.array(words, copy=True)
        self._start = time.perf_counter()

    def conclude(self, words: np.ndarray, result, rerun, program=None,
                 context: dict = None, compare_memory: bool = True):
        """Maybe verify the finished run; heal and degrade on divergence.

        *rerun* is a zero-argument callable executing the same run on the
        reference engine against a fresh copy of :attr:`pre`, returning
        ``(reference_result, reference_words)``.  Returns the result the
        caller should report: the fast one when the run is unchecked or
        checked-identical, the reference one (with *words* healed in
        place) on divergence.  ``compare_memory=False`` compares the
        results alone.
        """
        run_wall = time.perf_counter() - self._start
        _state["total_wall"] += run_wall
        if not _decide(self.mode, run_wall):
            return result
        STATS.count("guard.checks")
        check_start = time.perf_counter()
        ref_result, ref_words = rerun()
        check_wall = time.perf_counter() - check_start
        _state["guard_wall"] += check_wall
        if run_wall > 1e-9:
            observed = check_wall / run_wall
            _state["ratio"] = 0.5 * _state["ratio"] + 0.5 * observed
        if result == ref_result and (
                not compare_memory or np.array_equal(words, ref_words)):
            return result
        STATS.count("guard.divergences")
        _write_bundle(self.kind, self.engine, program, self.pre, words,
                      ref_words, result, ref_result, context or {})
        _degrade(self.kind, self.engine)
        np.copyto(words, ref_words)
        return ref_result
