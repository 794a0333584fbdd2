"""``model-cold``: fresh performance models profiling never-seen pairs.

This is the path behind ``sweep``, ``autotune``, ``analyze`` and
``tables`` on a cold cache.  Each op creates a fresh
``PerformanceModel``, profiles one (device, config) pair with the timing
simulator and estimates the paper's square sweep from it.  The functional
engine, the oracle and the daemon do no work here.

The stream opens with the paper's two kernels on RTX 2070 and T4 (the
composition behind Figs. 6 and 7) and continues with seeded draws from
``candidate_space`` over all four devices -- the autotuner's own
population -- with no pair repeated, so every op misses the cache.

Profile cost varies about 8x across the population (occupancy, tile and
HMMA shape), and one op is a few percent of a run.  So that every seed
sees the same mix of work, the draws follow a fixed template: each
device's pairs are sorted by a static work estimate (simulated warps
times per-iteration HMMA and fragment loads) and cut into strata of
:data:`STRATUM` neighbours; each device's strata are taken in
bit-reversed order, so that any prefix spans the cost range, all members
of a stratum one after another in an order the seed picks; the devices
take turns, one pair each.  A run of a given length therefore profiles
the same pairs on every seed; a seed picking one member per stratum
would move the median op time by about 6% between seeds on top of the
host's own drift.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from accuracy import PAPER_SIZES, modelled_speedups
from checks import same_profile

#: Pairs per stratum of the work estimate.
STRATUM = 2


def _bit_reversed(n: int) -> list:
    """0..n-1 in van der Corput order: every prefix spreads over the range."""
    bits = max(1, (n - 1).bit_length())
    order = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [i for i in order if i < n]


def _work_estimate(spec, config, ctas_per_sm: int) -> float:
    arch = spec.arch
    warps = (config.b_m // config.w_m) * (config.b_n // config.w_n)
    hmma = (config.w_m * config.w_n * config.b_k
            / (arch.hmma_m * arch.hmma_n * arch.hmma_k))
    fragment_loads = (config.w_m + config.w_n) * config.b_k / 64
    return ctas_per_sm * warps * (hmma + fragment_loads)


def _tile(config) -> tuple:
    return (config.b_m, config.b_n, config.b_k, config.w_m, config.w_n,
            config.smem_swizzle, config.smem_pad_halves)


class ModelCold:
    #: Ops covered by the simulated-statistics digest: the four paper
    #: pairs and the first four draws.
    digest_ops = 8
    unit_ops = 1

    def __init__(self, seed: int, tracer) -> None:
        from repro.analysis import PerformanceModel, candidate_space
        from repro.arch import DEVICES, get_device
        from repro.core import ConfigError, RegisterPlan, cublas_like, ours
        from repro.core.config import adapt_for_arch

        self.seed = seed
        self.tracer = tracer
        self.specs = {name: get_device(name) for name in DEVICES}
        paper = [(d, c, c.name == "cublas-like")
                 for d in ("RTX2070", "T4") for c in (ours(), cublas_like())]
        seen = {(d, _tile(c)) for d, c, _ in paper}
        rng = np.random.default_rng(seed)
        per_device = []
        for name, spec in self.specs.items():
            pm = PerformanceModel(spec)
            population = []
            for config in candidate_space(spec):
                adapted = adapt_for_arch(config, spec.arch)
                if (name, _tile(adapted)) in seen:
                    continue  # would hit the cache of an earlier pair
                try:
                    config.validate_against(spec)
                    RegisterPlan.for_config(config, config.threads_per_cta,
                                            spec.arch)
                    ctas = pm.ctas_per_sm(adapted)
                except (ConfigError, ValueError):
                    continue  # infeasible: no op of the stream may fail
                seen.add((name, _tile(adapted)))
                population.append((_work_estimate(spec, adapted, ctas),
                                   config.name, name, config))
            population.sort(key=lambda row: row[:2])
            strata = [population[i:i + STRATUM]
                      for i in range(0, len(population), STRATUM)]
            per_device.append([strata[j][k] for j in _bit_reversed(len(strata))
                               for k in rng.permutation(len(strata[j]))])
        draws = []
        for slot in range(max(len(rows) for rows in per_device)):
            for rows in per_device:
                if slot < len(rows):
                    _, _, name, config = rows[slot]
                    draws.append((name, config, False))
        self.stream = paper + draws

    def max_ops(self) -> int:
        return len(self.stream)

    def run_op(self, i: int):
        from repro.analysis import PerformanceModel

        device, config, quirks = self.stream[i]
        pm = PerformanceModel(self.specs[device])
        with self.tracer.span("analysis.sm_profile"):
            profile = pm.sm_profile(config)
        with self.tracer.span("analysis.sweep"):
            estimates = pm.sweep(config, PAPER_SIZES,
                                 baseline_quirks=quirks)
        with self.tracer.span("bench.check"):
            tflops = [e.tflops for e in estimates]
            ok = (profile.marginal_cycles > 0 and profile.ctas_per_sm >= 1
                  and all(math.isfinite(t) and t > 0 for t in tflops))
            record = {"op": i, "device": device, "config": config.name,
                      "profile": asdict(profile),
                      "tflops": sum(tflops) / len(tflops)}
        return ok, record

    def finish(self, records) -> dict:
        """Paper accuracy, then a determinism check of one sampled op.

        The sampled pair is profiled again from an emptied cache by a
        fresh model; the simulator is deterministic, so the profile must
        match the one the op recorded.
        """
        from repro.analysis import PerformanceModel
        from repro.perf import PROFILE_CACHE

        speedups = modelled_speedups()
        profiled = [r for r in records if "profile" in r]
        rng = np.random.default_rng([self.seed, 7])
        record = profiled[int(rng.integers(len(profiled)))]
        j = record["op"]
        device, config, _ = self.stream[j]
        PROFILE_CACHE.clear(disk=True)
        again = asdict(PerformanceModel(self.specs[device]).sm_profile(config))
        deterministic = same_profile(record["profile"], again)
        return {"speedups": speedups,
                "extra_failures": 0 if deterministic else 1,
                "notes": [f"determinism: op {j} ({device}:{config.name}) "
                          f"re-profiled from an empty cache: "
                          f"{'identical' if deterministic else 'DIFFERENT'}"]}
