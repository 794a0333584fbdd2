"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark's own calls into the program open spans directly, and layers
that are only reachable inside another public call are reached by
wrapping the module attribute that call site resolves at run time (for
example ``repro.analysis.perf_model.build_hgemm``).  The wrappers are
installed only for the traced run and removed afterwards, so untraced
runs execute the program exactly as shipped.

A span is ``(span_id, name, start, end, parent_id, op_id, thread)``; spans stay in
a list until :meth:`Tracer.write_chrome` exports them as Chrome Trace
Event JSON (Perfetto and ``chrome://tracing`` open it).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager

#: Wrapped call sites: (module, attribute, span name).  Class methods are
#: written ``Class.method``.  Each entry is a place the program resolves a
#: layer's public function at call time; ``hgemm`` calls the implementation
#: behind ``resolve_config`` directly, so that name is wrapped there.
CALL_SITES = (
    ("repro.core.hgemm", "_resolve_config", "core.resolve_config"),
    ("repro.workloads.batched", "resolve_config", "core.resolve_config"),
    ("repro.workloads.attention", "resolve_config", "core.resolve_config"),
    ("repro.core.hgemm", "build_hgemm", "core.build_hgemm"),
    ("repro.workloads.batched", "build_hgemm", "core.build_hgemm"),
    ("repro.analysis.perf_model", "build_hgemm", "core.build_hgemm"),
    ("repro.analysis.perf_model", "encode_program", "isa.encode_program"),
    ("repro.workloads.conv", "im2col", "workloads.im2col"),
    ("repro.workloads.conv", "weights_matrix", "workloads.weights_matrix"),
    ("repro.sim.functional", "FunctionalSimulator.run",
     "sim.functional.run"),
    ("repro.sim.timing", "TimingSimulator.run", "sim.timing.run"),
)


class Tracer:
    """Nested spans per thread, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patched: list = []
        self.missing: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op_id: int = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = parent[1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append((span_id, op_id))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end,
                                   parent[0] if parent else None, op_id,
                                   threading.get_ident()))

    # ------------------------------------------------------------ wrapping

    def install(self, sites=CALL_SITES) -> None:
        """Wrap every call site in *sites*; unknown ones are listed in
        :attr:`missing` rather than failing the run."""
        for module_name, attr, span_name in sites:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, span_name))
            self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict:
        """Total self time per span name: duration minus child spans."""
        child = {}
        for _sid, _name, start, end, parent, _op, _tid in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for sid, name, start, end, _parent, _op, _tid in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        return out

    def totals(self) -> dict:
        """Total inclusive duration per span name."""
        out = {}
        for _sid, name, start, end, _parent, _op, _tid in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def write_chrome(self, path) -> None:
        """Export the spans as Chrome Trace Event JSON ("X" events)."""
        base = min((s[2] for s in self.spans), default=0.0)
        events = [{"name": name, "ph": "X", "pid": 1, "tid": tid,
                   "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
                   "args": {"span": sid, "parent": parent, "op": op}}
                  for sid, name, start, end, parent, op, tid in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class NullTracer:
    """The untraced run's stand-in: same interface, records nothing."""

    @contextmanager
    def span(self, name: str, op_id: int = None):
        yield None
