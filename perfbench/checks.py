"""Output checks of the benchmark, and a self-test proving each can fail.

Every op of every workload passes through one of these checks before it
counts as completed; a failed check counts the op in ``error_rate``.  The
self-test (:func:`selftest`) feeds each check a deliberately corrupted
result and requires it to reject it, so a check that can never fail is
caught before any measurement is trusted.

Run the self-test alone with ``python3 perfbench/checks.py``.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np


def canonical(obj) -> bytes:
    """Stable bytes of a JSON-able result (sorted keys, exact floats)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest_of(records) -> str:
    """SHA-256 over the canonical bytes of a list of op records."""
    h = hashlib.sha256()
    for record in records:
        h.update(canonical(record))
        h.update(b"\n")
    return h.hexdigest()


def array_hash(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def bit_exact(out, oracle) -> bool:
    """Same dtype, same shape, same bits (NaN payloads included)."""
    out, oracle = np.asarray(out), np.asarray(oracle)
    return (out.dtype == oracle.dtype and out.shape == oracle.shape
            and out.tobytes() == oracle.tobytes())


def served_gemm_exact(result: dict) -> bool:
    """A served ``hgemm`` job passed its daemon-side oracle comparison."""
    return result.get("exact") is True and bool(result.get("c_sha256"))


def same_profile(first: dict, second: dict) -> bool:
    """Two SM profiles of one (device, config) pair are identical."""
    return canonical(first) == canonical(second)


def same_estimates(served: dict, local: list) -> bool:
    """A served sweep equals the in-process sweep of the same payload."""
    return canonical(served) == canonical({"estimates": local})


class FirstResults:
    """First result seen per request key; later answers must be byte-equal.

    Cache hits and coalesced answers of the serve workload are compared
    against the first answer of their key, whichever connection got it.
    """

    def __init__(self) -> None:
        self._first: dict = {}
        self._lock = threading.Lock()

    def seen(self, key: str) -> bool:
        with self._lock:
            return key in self._first

    def check(self, key: str, result) -> bool:
        blob = canonical(result)
        with self._lock:
            first = self._first.setdefault(key, blob)
        return first == blob


# ----------------------------------------------------------------- self-test

def selftest() -> list:
    """Feed each check a corrupted result; return the checks that passed it."""
    failures = []
    rng = np.random.default_rng(0)
    out = rng.uniform(-1, 1, (8, 8)).astype(np.float16)
    flipped = out.copy()
    flipped.view(np.uint16)[3, 5] ^= 1
    if not bit_exact(out, out.copy()):
        failures.append("bit_exact rejects identical arrays")
    if bit_exact(flipped, out):
        failures.append("bit_exact accepts a one-bit flip")
    if bit_exact(out.astype(np.float32), out):
        failures.append("bit_exact accepts a dtype change")
    if array_hash(flipped) == array_hash(out):
        failures.append("array_hash misses a one-bit flip")

    good = {"exact": True, "c_sha256": "ab" * 32, "instructions": 10}
    if not served_gemm_exact(good):
        failures.append("served_gemm_exact rejects a good job")
    if served_gemm_exact(dict(good, exact=False)):
        failures.append("served_gemm_exact accepts exact=False")
    if served_gemm_exact({"c_sha256": "ab" * 32}):
        failures.append("served_gemm_exact accepts a missing flag")

    profile = {"marginal_cycles": 4375.0, "fixed_cycles": 6603.0,
               "ctas_per_sm": 1}
    if not same_profile(profile, dict(profile)):
        failures.append("same_profile rejects equal profiles")
    if same_profile(profile, dict(profile, marginal_cycles=4376.0)):
        failures.append("same_profile accepts a changed cycle count")

    est = [{"m": 1024, "tflops": 40.5}, {"m": 2048, "tflops": 51.25}]
    if not same_estimates({"estimates": [dict(e) for e in est]}, est):
        failures.append("same_estimates rejects equal sweeps")
    bad = [dict(e) for e in est]
    bad[1]["tflops"] = 51.250000001
    if same_estimates({"estimates": bad}, est):
        failures.append("same_estimates accepts a perturbed TFLOPS")

    ledger = FirstResults()
    if not ledger.check("k", {"estimates": est}):
        failures.append("FirstResults rejects a first answer")
    if not ledger.check("k", {"estimates": [dict(e) for e in est]}):
        failures.append("FirstResults rejects an equal hit")
    if ledger.check("k", {"estimates": bad}):
        failures.append("FirstResults accepts a corrupted hit")

    records = [{"op": 0, "out": array_hash(out)}]
    if digest_of(records) == digest_of([{"op": 0,
                                         "out": array_hash(flipped)}]):
        failures.append("digest_of misses a changed output hash")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("check self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
