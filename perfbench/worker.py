"""One workload process: set up, signal readiness, run the op loop.

Started by ``run.py`` (never by hand) with the program on ``PYTHONPATH``
and a throwaway ``REPRO_CACHE_DIR``.  It prints ``READY`` once the first
op is ready -- ``run.py`` times set-up from process start to that line --
and, unless ``--setup-only``, one ``RESULT <json>`` line at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _build(name: str, seed: int, tracer, tmpdir: str):
    if name == "gemm-functional":
        from gemm_functional import GemmFunctional
        return GemmFunctional(seed, tracer)
    if name == "model-cold":
        from model_cold import ModelCold
        return ModelCold(seed, tracer)
    from serve_shared import ServeShared
    return ServeShared(seed, tracer, tmpdir)


def _in_process_loop(workload, seconds: float, max_ops, tracer):
    """Closed loop, one client: op after op until time (or max_ops) is up.

    At least ``digest_ops`` ops always run, so the digest prefix exists,
    and the loop stops only after a whole ``unit_ops`` block.
    Garbage is collected between ops, outside the timed op: every op then
    starts from the same heap, and the peak RSS measures the ops' working
    sets rather than when the collector last happened to run.  Returns
    (rows, seconds spent inside ops, STATS delta over the loop).
    """
    from repro.perf import STATS

    limit = workload.max_ops() if hasattr(workload, "max_ops") else None
    rows = []
    loop_before = STATS.snapshot()
    start = time.perf_counter()
    busy = 0.0
    i = 0
    while True:
        if max_ops is not None:
            if i >= max_ops:
                break
        elif (time.perf_counter() - start >= seconds
              and i >= workload.digest_ops and i % workload.unit_ops == 0):
            break
        if limit is not None and i >= limit:
            break
        gc.collect()
        before = STATS.snapshot()
        t0 = time.perf_counter()
        with tracer.span("op", op_id=i):
            try:
                ok, record = workload.run_op(i)
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                ok, record = False, {"op": i, "error": repr(exc)}
        latency = time.perf_counter() - t0
        delta = STATS.delta(before)["counters"]
        record["cycles"] = delta.get("sim.cycles", 0)
        record["func_instructions"] = delta.get("func.instructions", 0)
        busy += latency
        rows.append({"i": i, "ok": ok, "latency": latency, "record": record,
                     "destacks": delta.get("func.destacks", 0)
                     + delta.get("func.grid_destacks", 0)})
        i += 1
    return rows, busy, STATS.delta(loop_before)


def _layers_in_process(tracer, rows, loop_delta) -> dict:
    self_t = tracer.self_times()
    totals = tracer.totals()
    c, t = loop_delta["counters"], loop_delta["timers"]
    n = len(rows)

    def per_op(*names):
        return sum(self_t.get(name, 0.0) for name in names) / n

    hits = c.get("cache.mem_hits", 0) + c.get("cache.disk_hits", 0)
    return {
        "core.build_s": per_op("core.resolve_config", "core.build_hgemm"),
        "core.oracle_s": per_op("core.oracle"),
        "workloads.lower_s": per_op("workloads.im2col",
                                    "workloads.weights_matrix"),
        "sim.functional.self_s": per_op("sim.functional.run"),
        "sim.functional.inst_per_s": _ratio(c.get("func.instructions", 0),
                                            t.get("func.wall", 0.0)),
        "sim.functional.destacks": sum(r["destacks"] for r in rows) / n,
        "isa.encode_s": per_op("isa.encode_program"),
        "sim.timing.self_s": t.get("sim.wall", 0.0) / n,
        "sim.timing.cycles_per_s": _ratio(c.get("sim.cycles", 0),
                                          t.get("sim.wall", 0.0)),
        "sim.timing.plan_frac": _ratio(c.get("sim.plan_insts", 0),
                                       c.get("sim.instructions", 0)),
        "sim.timing.ff_frac": _ratio(c.get("sim.ff_cycles", 0),
                                     c.get("sim.cycles", 0)),
        "analysis.profile_self_s": per_op("analysis.sm_profile"),
        "analysis.estimate_s": per_op("analysis.sweep"),
        "perf.cache.hit_ratio": _ratio(hits, hits + c.get("cache.misses", 0)),
        "perf.cache.stores": c.get("cache.stores", 0) / n,
        "cross_check": {
            "sim.functional.run span": totals.get("sim.functional.run", 0.0),
            "func.wall": t.get("func.wall", 0.0),
            "sim.timing.run span": totals.get("sim.timing.run", 0.0),
            "sim.wall": t.get("sim.wall", 0.0),
        },
    }


def _layers_serve(tracer, rows) -> dict:
    """Serve-side layers come from the daemon-scoped stats in job views.

    A coalesced waiter's view carries the stats of the one execution it
    shared, and a cache hit's view carries none, so the daemon-side sums
    run over executed requests only.
    """
    self_t = tracer.self_times()
    n = len(rows)
    executed = [r for r in rows if not r["cached"] and not r["coalesced"]]
    timers, counters = {}, {}
    for row in executed:
        for name, value in row["timers"].items():
            timers[name] = timers.get(name, 0.0) + value
        for name, value in row["counters"].items():
            counters[name] = counters.get(name, 0) + value
    hits = counters.get("cache.mem_hits", 0) + counters.get("cache.disk_hits", 0)
    overhead = sorted(r["latency"] - r["timers"].get("func.wall", 0.0)
                      - r["timers"].get("sim.wall", 0.0) for r in executed)
    hit_rtt = sorted(r["latency"] for r in rows if r["cached"])
    return {
        "sim.functional.self_s": timers.get("func.wall", 0.0) / n,
        "sim.functional.inst_per_s": _ratio(counters.get("func.instructions", 0),
                                            timers.get("func.wall", 0.0)),
        "sim.functional.destacks": (counters.get("func.destacks", 0)
                                    + counters.get("func.grid_destacks", 0)) / n,
        "sim.timing.self_s": timers.get("sim.wall", 0.0) / n,
        "sim.timing.cycles_per_s": _ratio(counters.get("sim.cycles", 0),
                                          timers.get("sim.wall", 0.0)),
        "analysis.estimate_s": self_t.get("analysis.sweep", 0.0) / n,
        "perf.cache.hit_ratio": _ratio(hits, hits + counters.get("cache.misses", 0)),
        "perf.cache.stores": counters.get("cache.stores", 0) / n,
        "serve.hit_rtt_s": hit_rtt[len(hit_rtt) // 2] if hit_rtt else 0.0,
        "serve.exec_overhead_s": (overhead[len(overhead) // 2]
                                  if overhead else 0.0),
        "daemon_walls": {name: timers.get(name, 0.0)
                         for name in ("func.wall", "sim.wall")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--trace", default=None,
                    help="trace the loop and write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmpdir", required=True)
    args = ap.parse_args(argv)

    from tracing import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    import repro

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise RuntimeError(f"repro imported from {repro.__file__}, "
                           f"not from {src}")
    workload = _build(args.workload, args.seed, tracer, args.tmpdir)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            tracer.install()
        try:
            if args.workload == "serve-shared":
                rows, wall = workload.run_loop(args.seconds, args.max_ops)
                loop_delta = None
                peak_rss_mb = workload.peak_rss_mb
            else:
                rows, wall, loop_delta = _in_process_loop(
                    workload, args.seconds, args.max_ops, tracer)
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if args.trace:
                tracer.uninstall()
        from checks import digest_of

        prefix = rows[:workload.digest_ops]
        out = {
            "ops": len(rows),
            "ok_ops": sum(1 for r in rows if r["ok"]),
            "wall": wall,
            "latencies": [r["latency"] for r in rows],
            "digest_ops": len(prefix),
            "digest": digest_of(r["record"] for r in prefix),
            "digest_all": digest_of(r["record"] for r in rows),
            "sim_totals": {
                "func_instructions": sum(r["record"].get("func_instructions", 0)
                                         for r in prefix),
                "cycles": sum(r["record"].get("cycles", 0) for r in prefix),
                "tflops_mean": _ratio(
                    sum(r["record"].get("tflops", 0.0) for r in prefix),
                    sum(1 for r in prefix if "tflops" in r["record"])),
            },
            "peak_rss_mb": peak_rss_mb,
            "failures": [f"op {r['i']}: {r['record'].get('error', 'wrong output')}"
                         for r in rows if not r["ok"]][:5],
        }
        out.update(workload.finish([r["record"] for r in rows]))
        if args.trace:
            if loop_delta is None:
                out["layers"] = _layers_serve(tracer, rows)
            else:
                out["layers"] = _layers_in_process(tracer, rows, loop_delta)
            out["layers"]["sim.functional.instructions"] = (
                out["sim_totals"]["func_instructions"])
            out["layers"]["sim.timing.cycles"] = out["sim_totals"]["cycles"]
            out["breakdown"] = tracer.self_times()
            walls = out["layers"].pop("daemon_walls", {})
            if walls:
                # Split the daemon's simulator time out of the request
                # round-trips that contain it.
                out["breakdown"]["serve.request"] -= sum(walls.values())
                out["breakdown"]["sim.functional.run (daemon)"] = (
                    walls["func.wall"])
                out["breakdown"]["sim.timing.run (daemon)"] = walls["sim.wall"]
            out["unwrapped"] = tracer.missing
            tracer.write_chrome(args.trace)
        if args.workload == "serve-shared":
            out["serve_rows"] = {
                "cached": sum(1 for r in rows if r["cached"]),
                "coalesced": sum(1 for r in rows if r["coalesced"]),
                "executed": sum(1 for r in rows
                                if not r["cached"] and not r["coalesced"]),
            }
        print("RESULT " + json.dumps(out), flush=True)
        return 0
    finally:
        if hasattr(workload, "close"):
            workload.close()


if __name__ == "__main__":
    sys.exit(main())
