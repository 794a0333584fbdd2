"""``gemm-functional``: a seeded stream of functional GEMMs, each checked
bit for bit against its oracle.

This is the path behind ``repro hgemm``, ``verify``, ``workloads run``
and ``numerics``: kernel generation, the functional engine with its HMMA
batch kernels, and the NumPy oracle.  The timing simulator, performance
model, result cache and daemon do no work here.

The stream is built in rounds of fixed composition so that every seed
sees the same mix of work and only the order and the operand values move:

* the sim-scale members of the ``layers``, ``bert``, ``resnet`` and
  ``lstm`` suites (all four kinds: gemm, batched, conv-as-GEMM and
  attention) once on each of RTX 2070, V100 and A100 -- per-launch
  overhead bound, 10-30 ms each;
* the paper-style square and ``[aW x bW x cW]`` GEMMs below, two per
  device: one large, about 0.45 s on every device (these set the tail),
  and one small, 0.1-0.15 s -- engine-throughput bound.

The loop only stops at the end of a round, so a run always measures whole
rounds.
"""

from __future__ import annotations

import numpy as np

from accuracy import modelled_speedups
from checks import array_hash, bit_exact

DEVICES = ("RTX2070", "V100", "A100")
SUITES = ("layers", "bert", "resnet", "lstm")

#: Paper-style problems: (device, (m, n, k)), squares and [aW x bW x cW]
#: families with W = 128.  The large ones are sized to cost about the
#: same on each device, so the tail percentile sits inside one cluster.
PAPER_GEMMS = (
    ("RTX2070", (512, 512, 512)), ("V100", (384, 384, 384)),
    ("A100", (512, 512, 512)), ("RTX2070", (256, 256, 256)),
    ("V100", (256, 512, 128)), ("A100", (128, 256, 512)),
)


class GemmFunctional:

    def __init__(self, seed: int, tracer) -> None:
        from repro.arch import get_device
        from repro.workloads import get_suite

        self.seed = seed
        self.tracer = tracer
        self.specs = {name: get_device(name) for name in DEVICES}
        self.members = [w for suite in SUITES
                        for w in get_suite(suite).workloads]
        self.round_size = len(self.members) * len(DEVICES) + len(PAPER_GEMMS)
        #: Ops covered by the simulated-statistics digest, and the unit
        #: the loop stops on: one round.
        self.digest_ops = self.unit_ops = self.round_size
        self._rounds: dict = {}

    def _round(self, r: int) -> list:
        plan = self._rounds.get(r)
        if plan is None:
            rng = np.random.default_rng([self.seed, r])
            plan = [("dl", dev, w) for dev in DEVICES for w in self.members]
            plan += [("paper", dev, shape) for dev, shape in PAPER_GEMMS]
            plan = [plan[i] for i in rng.permutation(len(plan))]
            self._rounds = {r: plan}
        return plan

    def run_op(self, i: int):
        kind, dev, item = self._round(i // self.round_size)[i % self.round_size]
        spec = self.specs[dev]
        rng = np.random.default_rng([self.seed, i, 1])
        if kind == "paper":
            out, oracle = self._paper(item, spec, rng)
            label = "x".join(map(str, item))
        else:
            out, oracle = _RUNNERS[item.kind](self, item.sim, spec, rng)
            label = f"{item.kind}:{item.name}"
        with self.tracer.span("bench.check"):
            ok = bit_exact(out, oracle)
            record = {"op": i, "device": dev, "what": label,
                      "out": array_hash(out)}
        return ok, record

    # ----------------------------------------------------------- op kinds

    def _paper(self, shape, spec, rng):
        from repro.core import hgemm, hgemm_reference

        m, n, k = shape
        with self.tracer.span("bench.inputs"):
            a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
            b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
        with self.tracer.span("core.hgemm"):
            run = hgemm(a, b, spec=spec, return_run=True)
        with self.tracer.span("core.oracle"):
            oracle = hgemm_reference(a, b, w_k=run.config.w_k)
        return run.c, oracle

    def _gemm(self, shape, spec, rng):
        return self._paper((shape.m, shape.n, shape.k), spec, rng)

    def _batched(self, shape, spec, rng):
        from repro.workloads import (hgemm_strided_batched,
                                     hgemm_strided_batched_reference)

        with self.tracer.span("bench.inputs"):
            a = rng.uniform(-1, 1, (shape.m, shape.k)).astype(np.float16)
            b = rng.uniform(-1, 1, (shape.count, shape.k,
                                    shape.n)).astype(np.float16)
        with self.tracer.span("workloads.batched"):
            run = hgemm_strided_batched(a, b, spec=spec, return_run=True)
        with self.tracer.span("core.oracle"):
            oracle = hgemm_strided_batched_reference(a, b, w_k=run.config.w_k)
        return run.c, oracle

    def _conv(self, conv, spec, rng):
        from repro.workloads import conv2d, conv2d_reference

        with self.tracer.span("bench.inputs"):
            x = rng.uniform(-1, 1, (conv.n, conv.h, conv.w,
                                    conv.c_in)).astype(np.float16)
            w = rng.uniform(-0.5, 0.5, (conv.r, conv.s, conv.c_in,
                                        conv.c_out)).astype(np.float16)
        with self.tracer.span("workloads.conv2d"):
            run = conv2d(x, w, conv, device=spec, return_run=True)
        with self.tracer.span("core.oracle"):
            oracle = conv2d_reference(x, w, conv, w_k=run.config.w_k)
        return run.c.reshape(oracle.shape), oracle

    def _attention(self, att, spec, rng):
        from repro.workloads import attention_head, attention_head_reference

        outs, oracles = [], []
        for _head in range(att.n_heads):
            with self.tracer.span("bench.inputs"):
                q, k, v = (rng.uniform(-1, 1, (att.seq, att.d_head))
                           .astype(np.float16) for _ in range(3))
            with self.tracer.span("workloads.attention"):
                out, _ = attention_head(q, k, v, device=spec)
            with self.tracer.span("core.oracle"):
                oracles.append(attention_head_reference(q, k, v,
                                                        device=spec))
            outs.append(out)
        return np.stack(outs), np.stack(oracles)

    def finish(self, records) -> dict:
        # The paper pairs are cold here: four SM profiles, after the loop.
        return {"speedups": modelled_speedups(), "extra_failures": 0}


_RUNNERS = {"gemm": GemmFunctional._gemm, "batched": GemmFunctional._batched,
            "conv": GemmFunctional._conv,
            "attention": GemmFunctional._attention}
