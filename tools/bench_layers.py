"""Time the summation layer and the reconstruction check, binned against fsum.

Run from the repository root:

    python3 tools/bench_layers.py --out BENCH.json

For each array size it times ``daflow._numeric.stable_sum`` against
``math.fsum(a.tolist())``, the body it replaced, on two kinds of data: a
normalized gamma pmf, as in the mass sums, and signed p*log(p/q) terms, as in
the divergence sums. The binned side is timed with the size threshold lowered
to 1, so sizes below ``BINNED_MIN_ENTRIES`` show what binning them would cost;
the crossover printed with the results is the smallest measured size from
which binning wins at every larger size. It then times
``diagnostics.reconstruction_check`` on n x n random targets with the
package's summation and with every module's ``stable_sum`` swapped for the
fsum body, and records the tracemalloc peak of one binned call.

Each value is the median over ``REPEATS`` rounds of a loop sized to run at
least ``MIN_TIME`` seconds. The results, with the interpreter, NumPy
and core count, go to the ``--out`` JSON file and to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import daflow._numeric as numeric  # noqa: E402
from daflow.diagnostics import reconstruction_check  # noqa: E402
from daflow.dist import random_positive_target  # noqa: E402

SUM_SIZES = (64, 256, 512, 784, 1024, 1280, 1600, 2048, 4096, 13_225, 40_000, 250_000)
RECONSTRUCTION_SIDES = (50, 120, 200)
MIN_TIME = 0.05
REPEATS = 7


def fsum_body(a: np.ndarray) -> float:
    """What stable_sum computed before binning: fsum over a Python list."""
    return math.fsum(np.ascontiguousarray(a, dtype=np.float64).ravel().tolist())


def per_call_s(fn, min_time: float, repeats: int) -> float:
    """Median seconds per call over `repeats` rounds of at least `min_time`."""
    fn()
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - start >= min_time:
            break
        loops *= 2
    rounds = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        rounds.append((time.perf_counter() - start) / loops)
    return statistics.median(rounds)


@contextlib.contextmanager
def binned_from(min_entries: int):
    saved = numeric.BINNED_MIN_ENTRIES
    numeric.BINNED_MIN_ENTRIES = min_entries
    try:
        yield
    finally:
        numeric.BINNED_MIN_ENTRIES = saved


@contextlib.contextmanager
def stable_sum_replaced(body):
    """Every imported daflow module's stable_sum replaced by `body`; yields
    the names of the modules changed."""
    users = [
        name for name, m in sorted(sys.modules.items())
        if name.startswith("daflow") and getattr(m, "stable_sum", None) is numeric.stable_sum
    ]
    original = numeric.stable_sum
    for name in users:
        sys.modules[name].stable_sum = body
    try:
        yield users
    finally:
        for name in users:
            sys.modules[name].stable_sum = original


def sample_data(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.gamma(1.0, size=size)
    p /= p.sum()
    if kind == "pmf":
        return p
    q = rng.gamma(1.0, size=size)
    q /= q.sum()
    return p * np.log(p / q)


def time_sums(sizes, min_time: float, repeats: int) -> list[dict]:
    rng = np.random.default_rng(0)
    rows = []
    for size in sizes:
        for kind in ("pmf", "terms"):
            a = sample_data(kind, size, rng)
            with binned_from(1):
                if numeric.stable_sum(a) != fsum_body(a):
                    raise SystemExit(f"stable_sum differs from fsum at {size} {kind} entries")
                binned = per_call_s(lambda: numeric.stable_sum(a), min_time, repeats)
            fsum = per_call_s(lambda: fsum_body(a), min_time, repeats)
            rows.append({
                "entries": size,
                "data": kind,
                "fsum_us": round(fsum * 1e6, 2),
                "binned_us": round(binned * 1e6, 2),
                "speedup": round(fsum / binned, 3),
            })
    return rows


def crossover(rows: list[dict]) -> int | None:
    """Smallest measured size from which binning wins on every kind of data
    at every larger measured size."""
    sizes = sorted({r["entries"] for r in rows})
    wins = {s: all(r["speedup"] > 1.0 for r in rows if r["entries"] == s) for s in sizes}
    best = None
    for s in reversed(sizes):
        if not wins[s]:
            break
        best = s
    return best


def time_reconstruction(sides, min_time: float, repeats: int) -> list[dict]:
    rows = []
    for n in sides:
        target = random_positive_target(n, n, seed=n)
        binned_report = reconstruction_check(target)
        binned = per_call_s(lambda: reconstruction_check(target), min_time, repeats)
        with stable_sum_replaced(fsum_body):
            if reconstruction_check(target) != binned_report:
                raise SystemExit(f"reconstruction_check differs under fsum at {n}x{n}")
            fsum = per_call_s(lambda: reconstruction_check(target), min_time, repeats)
        tracemalloc.start()
        try:
            reconstruction_check(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows.append({
            "n": n,
            "entries": n * n,
            "fsum_s": round(fsum, 5),
            "binned_s": round(binned, 5),
            "speedup": round(fsum / binned, 3),
            "binned_tracemalloc_peak_mb": round(peak / 2**20, 3),
        })
    return rows


def main(argv: list[str] | None = None) -> dict:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="write the results here as JSON")
    args = p.parse_args(argv)
    sums = time_sums(SUM_SIZES, MIN_TIME, REPEATS)
    doc = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "platform": platform.platform(terse=True),
        },
        "timing": f"median of {REPEATS} rounds of at least {MIN_TIME} s",
        "stable_sum": sums,
        "threshold": {
            "BINNED_MIN_ENTRIES": numeric.BINNED_MIN_ENTRIES,
            "measured_crossover_entries": crossover(sums),
        },
        "reconstruction_check": time_reconstruction(RECONSTRUCTION_SIDES, MIN_TIME, REPEATS),
    }
    text = json.dumps(doc, indent=1) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return doc


if __name__ == "__main__":
    main()
