"""Divergence-watchdog tests.

The centrepiece is the watchdog demo: a chaos-injected bit flip plays the
role of a fast-engine bug, and the guard must catch it, write a reproducer
bundle, degrade the engine ladder, and *still complete the run with the
correct numbers* (asserted against the NumPy oracle / the reference
engine's own output).
"""

import json

import numpy as np
import pytest

from repro.arch import RTX2070
from repro.core.builder import HgemmProblem, build_hgemm
from repro.core.config import ours
from repro.core.hgemm import hgemm, hgemm_reference
from repro.isa import ProgramBuilder, Reg
from repro.perf.stats import STATS
from repro.robust import chaos, guard
from repro.sim.memory import GlobalMemory
from repro.sim.timing import TimingSimulator


@pytest.fixture(autouse=True)
def clean(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_GUARD", raising=False)
    monkeypatch.delenv("REPRO_GUARD_BUDGET", raising=False)
    guard.reset()
    chaos.reset()
    STATS.reset()
    yield
    guard.reset()
    chaos.reset()


def _operands(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((64, 16), dtype=np.float32).astype(np.float16)
    b = rng.standard_normal((16, 64), dtype=np.float32).astype(np.float16)
    return a, b


def _timing_program():
    config = ours()
    problem = HgemmProblem(m=config.b_m, n=config.b_n, k=32,
                           a_addr=0, b_addr=4 << 20, c_addr=8 << 20)
    return build_hgemm(config, problem, RTX2070)


def _timing_run():
    return TimingSimulator(RTX2070).run(_timing_program(),
                                        GlobalMemory(16 << 20), num_ctas=1)


class TestModeResolution:
    def test_default_off(self):
        assert guard.guard_mode() == "off"

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "sample")
        assert guard.guard_mode() == "sample"
        assert guard.guard_mode("full") == "full"  # override wins
        assert guard.guard_mode("off") == "off"

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "sometimes")
        with pytest.raises(ValueError, match="guard mode"):
            guard.guard_mode()


class TestLadders:
    def test_monotone_functional_degradation(self):
        assert guard.FUNC_LADDER == ("gridlock", "reference")
        assert guard.effective_func_engine("gridlock") == "gridlock"
        # Requests already at the floor are unchanged.
        assert guard.effective_func_engine("reference") == "reference"
        guard._degrade("functional", "gridlock")
        assert guard.effective_func_engine("gridlock") == "reference"
        assert guard.degradation_report()["func_engine_floor"] \
            == "reference"
        # The ladder never resets upward on its own.
        guard._degrade("functional", "reference")
        assert guard.effective_func_engine("gridlock") == "reference"

    def test_timing_one_rung_degradation(self):
        assert guard.effective_timing_engine("event") == "event"
        guard._degrade("timing", "event")
        assert guard.effective_timing_engine("event") == "reference"
        assert guard.degradation_report()["timing_engine_floor"] \
            == "reference"


class TestBudgetSampler:
    def test_full_always_checks(self):
        assert guard._decide("full", run_wall=100.0)

    def test_sample_checks_until_budget_spent(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD_BUDGET", "0.05")
        # A fresh process cannot yet afford a reference re-run (estimated
        # at ~4x the run wall, against a 5% budget): no check.
        assert not guard._decide("sample", run_wall=1.0)
        # Enough accumulated fast wall buys the first check.
        guard._state["total_wall"] = 100.0
        assert guard._decide("sample", run_wall=1.0)
        # Once checks have eaten the budget, sampling stops...
        guard._state["guard_wall"] = 10.0
        assert not guard._decide("sample", run_wall=1.0)
        # ...and frees up again as cheap fast runs accumulate.
        guard._state["total_wall"] = 1000.0
        assert guard._decide("sample", run_wall=1.0)


class TestFunctionalWatchdog:
    def test_divergence_healed_bundle_written_ladder_degraded(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_GUARD", "full")
        monkeypatch.setenv("REPRO_CHAOS", "flip_output:1")
        a, b = _operands()
        out = hgemm(a, b)
        # 1. The run completed with the *correct* numbers.
        assert np.array_equal(out, hgemm_reference(a, b))
        # 2. The watchdog saw and counted the divergence.
        assert STATS.counters.get("guard.checks") == 1
        assert STATS.counters.get("guard.divergences") == 1
        assert STATS.counters.get("guard.degraded") == 1
        # 3. The process degraded one rung (default gridlock -> reference).
        report = guard.degradation_report()
        assert report["func_engine_floor"] == "reference"
        assert report["bundles_written"] == 1
        # 4. A replayable reproducer bundle exists.
        bundles = list((tmp_path / "divergence").iterdir())
        assert len(bundles) == 1
        bundle = bundles[0]
        assert bundle.name.startswith("functional-")
        meta = json.loads((bundle / "meta.json").read_text())
        assert meta["kind"] == "functional"
        assert meta["digests"]["memory_fast"] != meta["digests"]["memory_reference"]
        assert (bundle / "program.bin").stat().st_size > 0
        pre = np.load(bundle / "memory_pre.npz")["words"]
        assert pre.dtype == np.uint32 and pre.size > 0

    def test_clean_run_checks_without_degrading(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "full")
        a, b = _operands(1)
        out = hgemm(a, b)
        assert np.array_equal(out, hgemm_reference(a, b))
        assert STATS.counters.get("guard.checks") == 1
        assert "guard.divergences" not in STATS.counters
        assert guard.degradation_report()["func_engine_floor"] == "gridlock"

    def test_guard_off_param_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "full")
        a, b = _operands(2)
        hgemm(a, b, guard="off")
        assert "guard.checks" not in STATS.counters

    def test_degraded_engine_actually_used(self, monkeypatch):
        # After a full functional degradation the floor is the reference
        # engine; runs still work and are no longer guarded (guarding the
        # ground truth would be circular).
        monkeypatch.setenv("REPRO_GUARD", "full")
        for rung in guard.FUNC_LADDER:
            guard._degrade("functional", rung)
        a, b = _operands(3)
        out = hgemm(a, b)
        assert np.array_equal(out, hgemm_reference(a, b))
        assert "guard.checks" not in STATS.counters


class TestTimingWatchdog:
    def test_divergence_degrades_to_reference(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_GUARD", "full")
        monkeypatch.setenv("REPRO_CHAOS", "flip_output:1")
        r1 = _timing_run()
        assert guard.degradation_report()["timing_engine_floor"] \
            == "reference"
        # Healed result: the divergent run reports the reference numbers.
        r2 = _timing_run()  # now on the reference floor, unguarded
        assert r1 == r2
        assert STATS.counters.get("guard.checks") == 1
        assert STATS.counters.get("guard.divergences") == 1
        assert STATS.counters.get("guard.degraded") == 1
        bundles = list((tmp_path / "divergence").iterdir())
        assert len(bundles) == 1
        assert bundles[0].name.startswith("timing-")

    def test_clean_timing_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "full")
        r = _timing_run()
        assert r.cycles > 0
        assert STATS.counters.get("guard.checks") == 1
        assert "guard.divergences" not in STATS.counters
        assert guard.degradation_report()["timing_engine_floor"] == "event"

    def test_value_free_divergence_healed(self, monkeypatch, tmp_path):
        # A synthetic event-engine bug: one stall cycle miscounted.  The
        # value-free run's watchdog compares TimingResults, catches it,
        # heals to the reference result and degrades the ladder.
        monkeypatch.setenv("REPRO_GUARD", "full")
        program = _timing_program()
        ref = TimingSimulator(RTX2070, engine="reference").run_cycles(
            program, 16 << 20, 1)
        real = TimingSimulator._run_event

        def miscount(self, *args):
            outcome = real(self, *args)
            outcome[4]["stall"] += 1
            return outcome

        monkeypatch.setattr(TimingSimulator, "_run_event", miscount)
        healed = TimingSimulator(RTX2070).run_cycles(program, 16 << 20, 1)
        assert healed == ref
        assert STATS.counters.get("guard.checks") == 1
        assert STATS.counters.get("guard.divergences") == 1
        assert guard.degradation_report()["timing_engine_floor"] \
            == "reference"
        bundles = list((tmp_path / "divergence").iterdir())
        assert len(bundles) == 1
        meta = json.loads((bundles[0] / "meta.json").read_text())
        assert meta["context"]["value_free"] is True

    def test_value_free_memory_not_compared(self, monkeypatch):
        # R10 reaches no address, guard or branch, so the value-free run
        # skips the MOV32I and stores 0 where the reference stores 5.  The
        # memory image is not an observable of run_cycles: no divergence.
        monkeypatch.setenv("REPRO_GUARD", "full")
        b = ProgramBuilder(name="dead_store", num_regs=16, block_dim=32)
        b.mov32i(10, 5, stall=6)
        b.s2r(2, "SR_TID.X", stall=6)
        b.imad(3, Reg(2), 4, 0x100, stall=6)
        b.stg(3, 10, width=32, stall=4)
        b.exit()
        r = TimingSimulator(RTX2070).run_cycles(b.build(), 1 << 16, 1)
        assert r.cycles > 0
        assert STATS.counters.get("guard.checks") == 1
        assert "guard.divergences" not in STATS.counters
