"""Spans and work counters around calls into daflow's modules.

The wrappers are installed from outside the package: every binding of a
listed function in a loaded ``daflow.*`` module namespace is replaced for the
duration of a ``with`` block and restored afterwards, so code that imported
the function by name (``from .engine import run``) is traced as well, and
nothing under ``src/`` changes.

Span names are ``<module>.<layer>``. A span's self time is its duration minus
the time covered by the spans it caused; the time spent computing work
counters is excluded from both.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# span name -> (module, functions whose calls open the span)
SPANS = {
    "cli.main": ("daflow.cli", ("main",)),
    "dist.load_joint": ("daflow.dist", ("load_joint",)),
    "dist.save_joint": ("daflow.dist", ("save_joint",)),
    "dist.make_target": ("daflow.dist", ("make_target",)),
    "dist.compose": ("daflow.dist", ("compose_with_drift",)),
    "dist.marginal": ("daflow.dist", ("marginal",)),
    "dist.validate": ("daflow.dist", ("_validated_pmf",)),
    "numeric.stable_sum": ("daflow._numeric", ("stable_sum",)),
    "metrics.relative_entropy": ("daflow.metrics", ("relative_entropy",)),
    "metrics.total_variation": ("daflow.metrics", ("total_variation",)),
    "engine.run": ("daflow.engine", ("run",)),
    "engine.half_step": ("daflow.engine", ("half_step_with_drift",)),
    "engine.export": ("daflow.engine", ("trace_to_csv", "trace_to_json")),
    "diagnostics.lemma1": ("daflow.diagnostics", ("lemma1_check",)),
    "diagnostics.lemma2": ("daflow.diagnostics", ("lemma2_check",)),
    "diagnostics.lemma3": ("daflow.diagnostics", ("lemma3_check",)),
    "diagnostics.cauchy": ("daflow.diagnostics", ("cauchy_check",)),
    "diagnostics.lsc": ("daflow.diagnostics", ("lsc_gap",)),
    "diagnostics.balance": ("daflow.diagnostics", ("balance_check",)),
    "diagnostics.reconstruction": ("daflow.diagnostics", ("reconstruction_check",)),
    "diagnostics.export": ("daflow.diagnostics", ("verification_to_json",)),
    "sampler.run_chains": ("daflow.sampler", ("run_chains",)),
    "sampler.uniforms": ("daflow.sampler", ("_replica_uniforms",)),
    "sampler.categorical": ("daflow.sampler", ("_categorical_rows",)),
    "sampler.consistency_report": ("daflow.sampler", ("consistency_report",)),
    "sampler.draws_to_csv": ("daflow.sampler", ("draws_to_csv",)),
    "fsio.atomic_write_text": ("daflow._fsio", ("atomic_write_text",)),
}

# spans around one verify check family each; every call yields one report
CHECK_SPANS = tuple(
    f"diagnostics.{c}" for c in ("lemma1", "lemma2", "lemma3", "cauchy", "lsc", "balance", "reconstruction")
)

# spans whose allocation peak is measured, in a separate pass under tracemalloc
ALLOC_SPANS = ("diagnostics.reconstruction", "sampler.run_chains")


def _text_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _check_counts(report) -> dict[str, int]:
    return {"checks": 1, "failures": 0 if report.passed else 1}


def _run_counts(trace) -> dict[str, int]:
    nx, ny = trace.target.shape
    return {"retained_states": len(trace.states), "retained_bytes": len(trace.states) * nx * ny * 8}


# span name -> counters computed from (args, result) after the call returns
COUNTERS = {
    "numeric.stable_sum": lambda a, r: {"elements": int(np.size(a[0]))},
    "engine.run": lambda a, r: _run_counts(r),
    "engine.export": lambda a, r: {"bytes": _text_bytes(r)},
    "sampler.run_chains": lambda a, r: {"draws": int(r.xs.size)},
    # inverse-CDF lookup compares each uniform with every category
    "sampler.categorical": lambda a, r: {"compares": int(a[1].size) * int(a[0].shape[1])},
    "sampler.draws_to_csv": lambda a, r: {"bytes": _text_bytes(r)},
    "fsio.atomic_write_text": lambda a, r: {"bytes": _text_bytes(a[1])},
}
COUNTERS["diagnostics.export"] = lambda a, r: {"bytes": _text_bytes(r)}
for _name in CHECK_SPANS:
    COUNTERS[_name] = lambda a, r: _check_counts(r)


@dataclass
class SpanStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects spans for one job at a time and aggregates them by name.

    ``jobs`` holds one ``{span name: SpanStats}`` dict per traced job, in
    order; the job span itself is named ``job``.
    """

    def __init__(self) -> None:
        self.jobs: list[dict[str, SpanStats]] = []
        # spans whose counters could not be read from a call's arguments or result
        self.counter_errors: set[str] = set()
        # open spans: [name, start, time covered by children]
        self._stack: list[list] = []

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, end: float, counts: dict[str, int] | None) -> None:
        name, start, child = frame
        self._stack.pop()
        stats = self.jobs[-1].setdefault(name, SpanStats())
        stats.calls += 1
        stats.incl_s += end - start
        stats.self_s += end - start - child
        for key, value in (counts or {}).items():
            stats.counts[key] = stats.counts.get(key, 0) + value
        if self._stack:
            # the parent does not own the time spent here or on the counters
            self._stack[-1][2] += time.perf_counter() - start

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = self._enter(name)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._exit(frame, end, self._count(name, counter, args, result) if ok else None)

        return traced

    def _count(self, name, counter, args, result) -> dict[str, int] | None:
        if counter is None:
            return None
        try:
            return counter(args, result)
        except (AttributeError, IndexError, TypeError):
            # a changed signature must not fail the job; the record names it
            self.counter_errors.add(name)
            return None

    @contextmanager
    def job(self):
        """Trace one job: every listed function is wrapped inside the block."""
        self.jobs.append({})
        frame = self._enter("job")
        with patched({name: lambda fn, name=name: self.wrap(name, fn) for name in SPANS}):
            try:
                yield
            finally:
                self._exit(frame, time.perf_counter(), None)


@contextmanager
def alloc_peaks(peaks: dict[str, int]):
    """Record in `peaks` the largest tracemalloc peak of each ALLOC_SPANS call.

    Kept out of the timed trace because tracemalloc slows every allocation.
    """

    def factory(name):
        def make(fn):
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[name] = max(peaks.get(name, 0), peak)

            return measured

        return make

    with patched({name: factory(name) for name in ALLOC_SPANS}):
        yield


@contextmanager
def patched(factories: dict):
    """Replace each named span's functions in every loaded daflow module.

    `factories` maps a span name to a function that wraps one original
    function. A function the program no longer has is skipped, so its span
    reads zero. Bindings are restored on exit, even after an exception.
    """
    wrappers = {}
    for name, make in factories.items():
        module_name, functions = SPANS[name]
        module = sys.modules[module_name]
        for fn_name in functions:
            original = getattr(module, fn_name, None)
            if original is not None:
                wrappers[id(original)] = (original, make(original))
    replaced = []
    modules = [m for n, m in list(sys.modules.items()) if n == "daflow" or n.startswith("daflow.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                replaced.append((module, attr, value))
                setattr(module, attr, entry[1])
    try:
        yield
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


def missing_functions() -> list[str]:
    """Listed functions that the loaded program does not define."""
    return [
        f"{module_name}.{fn_name}"
        for module_name, functions in SPANS.values()
        for fn_name in functions
        if not hasattr(sys.modules[module_name], fn_name)
    ]
