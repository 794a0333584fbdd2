"""``serve-shared``: two ``--remote`` tenants sharing one daemon.

The daemon runs as its own process (``repro serve start --foreground``)
with its default worker count; one thread of this process drives it
through two connections in a closed loop: units of the stream go out one
after another, alternating connections, and a twin unit submits the same
key on both connections before waiting on either, so the second
submission attaches to the first while it is in flight.  One unit at a
time keeps the load within the two cores the daemon and this client
share.  Set-up spawns the daemon, pings it and warms the SM profiles of
the paper's two kernels on RTX 2070 and T4; after set-up the timing
simulator does no work.

The request stream is built in blocks of fixed composition so every seed
sees the same mix; within a block the order, the new keys and the reused
keys are seeded:

* one new small ``hgemm`` job, submitted as a twin (coalescing); its
  shape walks all eight of ``HGEMM_DIMS`` cubed once every eight blocks,
  in a seeded order, so every seed executes the same jobs in the long
  run;
* three new ``sweep`` keys over the warm profiles (executions and cache
  writes), the first again submitted as a twin -- a sweep can finish
  before its twin arrives, and the twin is then a hot-cache read;
* the rest repeat an earlier key (reads answered from the hot cache),
  skewed: half the time one of the eight newest keys, otherwise any
  earlier key.

Every answer is checked: a failed job is an error; ``hgemm`` answers must
carry ``exact: true`` (the daemon compared them with the oracle); the
first answer of a sweep or profile key must equal the same computation
done in this process on the warm profiles; every later answer of a key
must be byte-equal to its first one.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import asdict

import numpy as np

from accuracy import PAPER_SIZES, modelled_speedups
from checks import (FirstResults, canonical, same_estimates, same_profile,
                    served_gemm_exact)

BLOCK = 40
HITS_PER_BLOCK = BLOCK - 6
#: (device, kernel) profiles warmed during set-up.
WARM = (("RTX2070", "ours"), ("RTX2070", "cublas"),
        ("T4", "ours"), ("T4", "cublas"))
#: The paper's rectangular families [aW x bW x cW], plus square.
SHAPES = ((1, 1, 1), (1, 1, 4), (1, 4, 1), (4, 1, 1), (1, 2, 2), (2, 2, 1))
HGEMM_DIMS = (64, 128)


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class ServeShared:
    digest_ops = 400

    def __init__(self, seed: int, tracer, tmpdir: str) -> None:
        from repro.analysis import PerformanceModel
        from repro.arch import get_device
        from repro.core import cublas_like, ours
        from repro.serve import ServeClient, daemon_available
        from repro.serve.jobs import config_to_dict, spec_to_dict

        self.seed = seed
        self.tracer = tracer
        self.ServeClient = ServeClient
        self.socket = os.path.join(os.path.relpath(tmpdir), "serve.sock")
        self.log = open(os.path.join(tmpdir, "serve.log"), "wb")
        # This process and the daemon it spawns share one CPU.  With one
        # unit in flight, one of them waits while the other works, so a
        # second CPU adds no throughput; across two CPUs of a shared VM
        # every hand-off wakes an idle CPU, whose delay grows with the
        # host's load, and requests then slowed by up to 1.5x in
        # side-by-side runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start", "--foreground",
             "--socket", self.socket],
            stdout=self.log, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            while not daemon_available(self.socket):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("serve daemon did not come up")
                time.sleep(0.02)
            configs = {"ours": ours(), "cublas": cublas_like()}
            self.specs = {d: get_device(d) for d in ("RTX2070", "T4")}
            self.spec_d = {d: spec_to_dict(s) for d, s in self.specs.items()}
            self.config_d = {k: config_to_dict(c) for k, c in configs.items()}
            warm = [self._request("profile", {
                "spec": self.spec_d[d], "config": self.config_d[c]})
                for d, c in WARM]
            with ServeClient(self.socket) as client:
                views = client.batch_submit(
                    [{"kind": r["kind"], "payload": r["payload"]}
                     for r in warm])
                for view in views:
                    if view["state"] not in ("done", "failed"):
                        view = client.wait(view["job_id"])
                    if view["state"] != "done":
                        raise RuntimeError(f"warm-up failed: {view}")
                self.stats_before = client.stats()
            # This process's models read the daemon's warm profiles from
            # the shared result cache; they check served sweeps.
            self.models = {d: PerformanceModel(s)
                           for d, s in self.specs.items()}
            for d, c in WARM:
                self.models[d].sm_profile(configs[c])
        except BaseException:
            self.close()
            raise
        self.pool = list(warm)
        self.stream: list = []
        #: Stream index of every unit's first request, in order.
        self.unit_starts: list = []
        self.ledger = FirstResults()
        self.peak_rss_mb = None

    # -------------------------------------------------------------- stream

    @staticmethod
    def _request(kind: str, payload: dict) -> dict:
        return {"kind": kind, "payload": payload,
                "key": canonical([kind, payload]).decode()}

    def _new_block(self, b: int) -> None:
        rng = np.random.default_rng([self.seed, b])
        device = ("RTX2070", "T4")[int(rng.integers(2))]
        order = np.random.default_rng([self.seed, b // 8, 1]).permutation(8)
        m, n, k = (HGEMM_DIMS[(int(order[b % 8]) >> bit) & 1]
                   for bit in range(3))
        gemm = self._request("hgemm", {
            "m": m, "n": n, "k": k, "seed": int(rng.integers(1 << 30)),
            "spec": self.spec_d[device]})
        sweeps = []
        for _ in range(3):
            device, kernel = WARM[int(rng.integers(len(WARM)))]
            sizes = sorted(int(s) for s in rng.choice(PAPER_SIZES, 8,
                                                      replace=False))
            shape = SHAPES[int(rng.integers(len(SHAPES)))]
            sweeps.append(self._request("sweep", {
                "spec": self.spec_d[device], "config": self.config_d[kernel],
                "sizes": sizes, "shape": list(shape),
                "baseline_quirks": kernel == "cublas"}))
        units = [[gemm, gemm], [sweeps[0], sweeps[0]], [sweeps[1]],
                 [sweeps[2]]] + [None] * HITS_PER_BLOCK
        for u in rng.permutation(len(units)):
            unit = units[u]
            if unit is None:
                if rng.random() < 0.5:
                    recent = self.pool[-8:]
                    unit = [recent[int(rng.integers(len(recent)))]]
                else:
                    unit = [self.pool[int(rng.integers(len(self.pool)))]]
            else:
                self.pool.append(unit[0])
            self.unit_starts.append(len(self.stream))
            self.stream.extend(unit)

    def unit(self, u: int) -> list:
        """The requests of the *u*-th unit: one, or a twin of one key."""
        while len(self.unit_starts) <= u + 1:
            self._new_block(len(self.stream) // BLOCK)
        return self.stream[self.unit_starts[u]:self.unit_starts[u + 1]]

    # ---------------------------------------------------------------- loop

    def run_loop(self, seconds: float, max_ops: int = None):
        """Send the stream unit by unit until time (or *max_ops*) runs out.

        The loop stops only between units.  Returns (per-request rows,
        wall seconds).
        """
        rows = []
        start = time.perf_counter()
        deadline = start + seconds
        with self.ServeClient(self.socket) as first, \
                self.ServeClient(self.socket) as second:
            conns = (first, second)
            u = 0
            while True:
                i = len(rows)
                if max_ops is not None:
                    if i >= max_ops:
                        break
                elif (time.perf_counter() >= deadline
                      and i >= self.digest_ops):
                    break
                reqs = self.unit(u)
                with self.tracer.span("op", op_id=i):
                    rows.extend(self._send(conns[u % 2], conns[1 - u % 2],
                                           reqs, i))
                u += 1
        wall = time.perf_counter() - start
        self.peak_rss_mb = _vm_hwm_mb(self.proc.pid)
        return rows, wall

    def _send(self, conn, other, reqs: list, i: int) -> list:
        """One unit: submit each request (a twin's second on *other*),
        then wait for each and check its answer."""
        sent = []
        with self.tracer.span("serve.request"):
            for req, client in zip(reqs, (conn, other)):
                t0 = time.perf_counter()
                view = client.submit(req["kind"], req["payload"])
                sent.append((req, client, t0, view))
            done = []
            for req, client, t0, view in sent:
                coalesced = bool(view.get("coalesced"))
                if view["state"] not in ("done", "failed"):
                    view = client.wait(view["job_id"])
                done.append((req, time.perf_counter() - t0, view, coalesced))
        return [self._row(i + j, *answer) for j, answer in enumerate(done)]

    def _row(self, i: int, req: dict, rtt: float, view: dict,
             coalesced: bool) -> dict:
        with self.tracer.span("bench.check"):
            ok = view["state"] == "done"
            result = view.get("result")
            if ok and req["kind"] == "hgemm":
                ok = served_gemm_exact(result)
            if ok and not self.ledger.seen(req["key"]):
                ok = self._verify_first(req, result)
            if ok:
                ok = self.ledger.check(req["key"], result)
            record = {"i": i,
                      "result": canonical(result).decode() if ok else None}
            if ok and req["kind"] == "hgemm":
                record["func_instructions"] = result["instructions"]
            elif ok and req["kind"] == "sweep":
                tflops = [e["tflops"] for e in result["estimates"]]
                record["tflops"] = sum(tflops) / len(tflops)
        stats = view.get("stats") or {}
        return {"i": i, "ok": ok, "latency": rtt, "kind": req["kind"],
                "cached": bool(view.get("cached")), "coalesced": coalesced,
                "timers": stats.get("timers", {}),
                "counters": stats.get("counters", {}),
                "record": record}

    def _verify_first(self, req: dict, result) -> bool:
        """The first answer of a model key equals the local computation."""
        from repro.serve.jobs import config_from_dict

        if req["kind"] not in ("profile", "sweep"):
            return True
        payload = req["payload"]
        device = next(d for d, s in self.spec_d.items()
                      if s == payload["spec"])
        config = config_from_dict(payload["config"])
        if req["kind"] == "profile":
            return same_profile(result,
                                asdict(self.models[device].sm_profile(config)))
        if req["kind"] == "sweep":
            with self.tracer.span("analysis.sweep"):
                local = self.models[device].sweep(
                    config, payload["sizes"], shape=tuple(payload["shape"]),
                    baseline_quirks=payload["baseline_quirks"])
            return same_estimates(result, [asdict(e) for e in local])

    # ------------------------------------------------------------- results

    def finish(self, records) -> dict:
        with self.ServeClient(self.socket) as client:
            after = client.stats()
        before = self.stats_before
        served = {name: after[name] - before[name]
                  for name in ("executed", "coalesced", "cache_hits",
                               "failed")}
        return {"speedups": modelled_speedups(self.models),
                "extra_failures": served["failed"],
                "daemon": served}

    def close(self) -> None:
        """Shut the daemon down and wait for it; kill it if it hangs."""
        if self.proc.poll() is None:
            try:
                with self.ServeClient(self.socket, timeout=5) as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall through to kill
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()
