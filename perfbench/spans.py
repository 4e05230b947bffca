"""Spans around calls into the isingspec modules, and the per-layer metrics.

A traced step process calls ``install(tracer)`` before it runs anything.
Every public function of the layer modules (``chain``, ``probe``,
``decoherence``, ``spectrum``, ``oracle``, ``cli``), plus the CLI's two
writers, is replaced by one wrapper at every name the package resolves it
through, so a call records exactly one span whichever module made it.  The
CLI's thread pool is swapped for a subclass that records the pool's lifetime
and one span per job on the worker threads.  Nothing in the package is
edited; spans stay in memory until the step process ends.

``layer_metrics`` turns the spans of one workload iteration into the
per-layer metrics listed in README.md.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("chain", "probe", "decoherence", "spectrum", "oracle", "cli")
# the CLI's only emission boundary; both are private, so named explicitly
EMITTERS = ("_write_csv", "_write_json")


class Tracer:
    """Collects spans of one process: name, start, end, parent, thread, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, parent: str | None = None) -> dict:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]["id"]
        span = {
            "id": f"{os.getpid()}-{next(self._ids)}",
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "thread": threading.get_ident(),
            "run": self.run_id,
            "attrs": {},
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self.spans.append(span)

    def wrap(self, name: str, fn, attrs=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span["attrs"] = attrs(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _populated(state) -> int:
    return int((state.branch_weights()[1:] > 0.0).sum())


# counts recorded per span, from the call's bound arguments and its result
ATTRS = {
    "decoherence.decoherence_factor": lambda a, r: {
        "mode_samples": int(a["table"].momenta.size * np.size(a["t"]))
    },
    "decoherence.enumerate_lines": lambda a, r: {"lines": int(r.centers.size)},
    "spectrum.correlation_series": lambda a, r: {"n_samples": int(a["n_samples"])},
    "oracle.oracle_spectrum": lambda a, r: {
        "lorentzians": int(
            np.size(a["freq_grid"]) * 4 ** a["n_sites"] * _populated(a["state"])
        )
    },
    "probe.fock_superposition": lambda a, r: {"populated": _populated(r)},
    "probe.coherent_state": lambda a, r: {"populated": _populated(r)},
    "cli.emit": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


def _traced_pool(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        def __enter__(self):
            self._span = tracer.begin("cli.pool")
            self._span["attrs"]["workers"] = self._max_workers
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

        def map(self, fn, *iterables, **kwargs):
            pool_id = self._span["id"]

            def job(*args):
                span = tracer.begin("cli.pool.job", parent=pool_id)
                try:
                    return fn(*args)
                finally:
                    tracer.end(span)

            return super().map(job, *iterables, **kwargs)

    return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap every layer function at each module attribute that refers to it."""
    package = importlib.import_module("isingspec")
    modules = [package] + [importlib.import_module(f"isingspec.{m}") for m in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules[1:]):
        for attr, fn in vars(module).items():
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if attr in EMITTERS:
                name = "cli.emit"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{attr}"
            wrappers[fn] = tracer.wrap(name, fn, ATTRS.get(name))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    importlib.import_module("isingspec.cli").ThreadPoolExecutor = _traced_pool(tracer)


# --- per-layer metrics -------------------------------------------------------


def _covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of the union of parts, clipped to interval."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus what its same-thread children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            children.setdefault(parent["id"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered((s["start"], s["end"]), children.get(s["id"], []))
        for s in spans
    }


def _has_ancestor(span: dict, name: str, by_id: dict) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one iteration; layers not called report 0."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_seconds(name):
        return sum(own[s["id"]] for s in named(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    mode_samples = attr_sum("decoherence.decoherence_factor", "mode_samples")
    lorentzians = attr_sum("oracle.oracle_spectrum", "lorentzians")
    emit_bytes = attr_sum("cli.emit", "bytes")
    pools = named("cli.pool")
    jobs = named("cli.pool.job")
    busy = sum(s["end"] - s["start"] for s in jobs)
    capacity = sum(p["attrs"]["workers"] * (p["end"] - p["start"]) for p in pools)
    pooled_echo = sum(
        s["end"] - s["start"]
        for s in named("decoherence.decoherence_factor")
        if _has_ancestor(s, "cli.pool.job", by_id)
    )
    probes = named("probe.fock_superposition") + named("probe.coherent_state")
    return {
        "chain.build_mode_table.s": seconds("chain.build_mode_table"),
        "chain.build_mode_table.calls": len(named("chain.build_mode_table")),
        "probe.populated_branches": max((s["attrs"]["populated"] for s in probes), default=0),
        "decoherence.decoherence_factor.s": seconds("decoherence.decoherence_factor"),
        "decoherence.decoherence_factor.calls": len(named("decoherence.decoherence_factor")),
        "decoherence.decoherence_factor.mode_samples": mode_samples,
        "decoherence.decoherence_factor.ns_per_mode_sample": _ratio(
            1e9 * seconds("decoherence.decoherence_factor"), mode_samples
        ),
        "decoherence.pool_busy_share": _ratio(pooled_echo, busy),
        "decoherence.enumerate_lines.s": seconds("decoherence.enumerate_lines"),
        "decoherence.enumerate_lines.lines": attr_sum("decoherence.enumerate_lines", "lines"),
        "spectrum.auto_time_grid.s": seconds("spectrum.auto_time_grid"),
        "spectrum.grid_samples": attr_sum("spectrum.correlation_series", "n_samples"),
        "spectrum.correlation_series.self_s": self_seconds("spectrum.correlation_series"),
        "spectrum.spectrum_fft.s": seconds("spectrum.spectrum_fft"),
        "spectrum.broadening_metrics.s": seconds("spectrum.broadening_metrics"),
        "spectrum.fitted_peak.s": seconds("spectrum.fitted_peak"),
        "spectrum.fitted_peak.evals": sum(
            1
            for s in named("spectrum.lorentzian")
            if _has_ancestor(s, "spectrum.fitted_peak", by_id)
        ),
        "spectrum.spectrum_analytic.s": seconds("spectrum.spectrum_analytic"),
        "spectrum.threshold_crossing_time.self_s": self_seconds(
            "spectrum.threshold_crossing_time"
        ),
        "oracle.comparison_suite.self_s": self_seconds("oracle.comparison_suite"),
        "oracle.oracle_decoherence.s": seconds("oracle.oracle_decoherence"),
        "oracle.oracle_decoherence.calls": len(named("oracle.oracle_decoherence")),
        "oracle.build_dense.calls": len(named("oracle.build_dense")),
        "oracle.oracle_spectrum.s": seconds("oracle.oracle_spectrum"),
        "oracle.oracle_spectrum.ns_per_lorentzian": _ratio(
            1e9 * seconds("oracle.oracle_spectrum"), lorentzians
        ),
        "cli.emit.s": seconds("cli.emit"),
        "cli.emit.bytes": emit_bytes,
        "cli.emit.mb_per_s": _ratio(emit_bytes / 1e6, seconds("cli.emit")),
        "cli.pool.utilization": _ratio(busy, capacity),
    }
