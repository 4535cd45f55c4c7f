"""Time the summation layers, the reconstruction check, `run`, the draws CSV
and the verify reports.

Run from the repository root:

    python3 tools/bench_layers.py --out BENCH.json

For each array size it times ``daflow._numeric.stable_sum`` against
``math.fsum(a.tolist())``, the body it replaced, on two kinds of data: a
normalized gamma pmf, as in the mass sums, and signed p*log(p/q) terms, as in
the divergence sums. The binned side is timed with the size threshold lowered
to 1, so sizes below ``BINNED_MIN_ENTRIES`` show what binning them would cost;
the crossover printed with the results is the smallest measured size from
which binning wins at every larger size. It times
``_numeric.stable_row_sums`` against the fsum body row by row on stacks of
divergence terms: at 16 rows of lengths around ``ROW_BINNED_MIN_ENTRIES``,
with that threshold lowered to 1, and at the block shapes `run` stacks on
each grid below. It then times ``diagnostics.reconstruction_check`` on n x n
random targets with the package's summation and with every module's
``stable_sum`` swapped for the fsum body, and records the tracemalloc peak
of one binned call. Last, it times ``engine.run`` per half-step from a
corner cell of seeded banded targets, with its measurements stacked over
blocks of half-steps and with one-half-step blocks, and checks that both
give the same trace. Finally it times ``sampler.draws_csv_blocks`` against
``percent_body``, the one-``%``-format-per-block body it replaced, on the
draws of seeded chains, after checking that both write the same text. Then,
on traces of seeded banded targets run to a divergence of 1e-15 with every
state retained, it times the lemma3 sweep per report as column blocks
(``diagnostics.verification_table``) and materialized as one ``LemmaReport``
each (``run_verification``), and the verify JSON export per report:
``verification_to_json`` over the blocks against ``dumps_indent1`` over one
``report_to_json_dict`` per report, the body it replaced, after checking
that both write the same text.

Each value is the median over ``REPEATS`` rounds of a loop sized to run at
least ``MIN_TIME`` seconds. Where two bodies are compared on one case, their
rounds alternate, and which goes first alternates too, so drift of the host
between rounds reaches both alike. The results, with the interpreter, NumPy
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
import daflow.engine as engine  # noqa: E402
from daflow._fsio import dumps_indent1  # noqa: E402
from daflow.diagnostics import (  # noqa: E402
    reconstruction_check,
    report_to_json_dict,
    run_verification,
    summarize,
    verification_table,
    verification_to_json,
)
from daflow.dist import JointDensity, make_target, random_positive_target  # noqa: E402
from daflow.sampler import (  # noqa: E402
    DRAWS_CSV_BLOCK_ROWS,
    DRAWS_CSV_HEADER,
    ChainDraws,
    draws_csv_blocks,
    run_chains,
)

SUM_SIZES = (64, 256, 512, 784, 1024, 1280, 1600, 2048, 4096, 13_225, 40_000, 250_000)
ROW_LENGTHS = (64, 96, 128, 192, 256)
RECONSTRUCTION_SIDES = (50, 120, 200)
# (side, beta, half-steps): the converge benchmark's grid and mixing, larger
# grids, and a slowly mixing target that needs about 15,700 half-steps to
# reach a divergence of 1e-16
RUN_CASES = ((28, 0.9, 400), (50, 0.9, 200), (200, 0.9, 40), (40, 2.0, 1000))
# (replicas, half-steps, grid side): the sample benchmark's draws at its
# smallest and largest grid, and 1e5 replicas at 50 x 50
DRAWS_CSV_CASES = ((5000, 20, 5), (5000, 20, 20), (100_000, 4, 50))
# (side, beta): the certify benchmark's grid and mixing, about 105 half-steps
# and 5,460 lemma3 reports
VERIFY_CASES = ((8, 0.9),)
MIN_TIME = 0.05
REPEATS = 7


def fsum_body(a: np.ndarray) -> float:
    """What stable_sum computed before binning: fsum over a Python list."""
    return math.fsum(np.ascontiguousarray(a, dtype=np.float64).ravel().tolist())


def percent_body(draws: ChainDraws):
    """What draws_csv_blocks computed before its record encoder: each block
    of rows through one ``%`` format."""
    yield DRAWS_CSV_HEADER + "\n"
    steps = draws.half_steps + 1
    total = draws.replicas * steps
    xs, ys = draws.xs.ravel(), draws.ys.ravel()
    for start in range(0, total, DRAWS_CSV_BLOCK_ROWS):
        stop = min(start + DRAWS_CSV_BLOCK_ROWS, total)
        r, t = np.divmod(np.arange(start, stop), steps)
        rows = np.column_stack((r, t, xs[start:stop], ys[start:stop]))
        yield "%d,%d,%d,%d\n" * (stop - start) % tuple(rows.ravel().tolist())


def per_call_s(fn, min_time: float, repeats: int) -> float:
    """Median seconds per call over `repeats` rounds of at least `min_time`."""
    return interleaved_per_call_s((fn,), min_time, repeats)[0]


def interleaved_per_call_s(fns, min_time: float, repeats: int) -> list[float]:
    """Median seconds per call of each function over `repeats` rounds of at
    least `min_time`; the functions take their rounds in turn, in the given
    order on even rounds and in reverse on odd ones."""
    loops = []
    for fn in fns:
        fn()
        n = 1
        while True:
            start = time.perf_counter()
            for _ in range(n):
                fn()
            if time.perf_counter() - start >= min_time:
                break
            n *= 2
        loops.append(n)
    rounds = [[] for _ in fns]
    order = list(range(len(fns)))
    for k in range(repeats):
        for i in order if k % 2 == 0 else reversed(order):
            start = time.perf_counter()
            for _ in range(loops[i]):
                fns[i]()
            rounds[i].append((time.perf_counter() - start) / loops[i])
    return [statistics.median(r) for r in rounds]


@contextlib.contextmanager
def constant_set(module, name: str, value: int):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


@contextlib.contextmanager
def stable_sum_replaced(body):
    """Every imported daflow module's stable_sum replaced by `body`, and its
    stable_row_sums by `body` over each row; yields the names of the modules
    changed."""
    replacements = {
        numeric.stable_sum: body,
        numeric.stable_row_sums: lambda a: [body(row) for row in a],
    }
    replaced = []
    for name, m in sorted(sys.modules.items()):
        for attr in ("stable_sum", "stable_row_sums"):
            value = getattr(m, attr, None)
            if name.startswith("daflow") and value in replacements:
                replaced.append((m, attr, value))
                setattr(m, attr, replacements[value])
    try:
        yield sorted({m.__name__ for m, _, _ in replaced})
    finally:
        for m, attr, value in replaced:
            setattr(m, attr, value)


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
            with constant_set(numeric, "BINNED_MIN_ENTRIES", 1):
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


def block_rows(n: int) -> int:
    """Half-steps per block once `run`'s blocks have grown, on an n x n grid."""
    return max(1, min(engine._BLOCK_ROWS, engine._BLOCK_VALUES // (n * n)))


def time_row_sums(min_time: float, repeats: int) -> list[dict]:
    rng = np.random.default_rng(1)
    shapes = [(16, n, 1) for n in ROW_LENGTHS]
    shapes += [(block_rows(side), side * side, numeric.ROW_BINNED_MIN_ENTRIES) for side, _, _ in RUN_CASES]
    rows = []
    for n_rows, entries, threshold in shapes:
        a = np.stack([sample_data("terms", entries, rng) for _ in range(n_rows)])
        with constant_set(numeric, "ROW_BINNED_MIN_ENTRIES", threshold):
            if numeric.stable_row_sums(a) != [fsum_body(row) for row in a]:
                raise SystemExit(f"stable_row_sums differs from fsum at {n_rows} x {entries}")
            binned = per_call_s(lambda: numeric.stable_row_sums(a), min_time, repeats)
        fsum = per_call_s(lambda: [fsum_body(row) for row in a], min_time, repeats)
        rows.append({
            "rows": n_rows,
            "entries": entries,
            "row_threshold": threshold,
            "fsum_us_per_row": round(fsum / n_rows * 1e6, 2),
            "row_sums_us_per_row": round(binned / n_rows * 1e6, 2),
            "speedup": round(fsum / binned, 3),
        })
    return rows


def banded_target(n: int, beta: float):
    """The seeded target w[i, j] proportional to exp(-beta |i - j| + 0.1 z[i, j])."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    w = np.exp(-beta * np.abs(i[:, None] - i[None, :]) + 0.1 * rng.standard_normal((n, n)))
    return make_target(JointDensity(w / w.sum()))


def time_run(cases, min_time: float, repeats: int) -> list[dict]:
    rows = []
    for n, beta, steps in cases:
        target = banded_target(n, beta)
        w = np.zeros((n, n))
        w[n // 3, n - 1] = 1.0
        p0 = JointDensity(w)

        def once():
            return engine.run(p0, target, steps, 1e-300, engine.RetainPolicy.none())

        blocked = per_call_s(once, min_time, repeats)
        trace = once()
        with constant_set(engine, "_BLOCK_VALUES", 0):
            if once().records != trace.records:
                raise SystemExit(f"run differs with one-half-step blocks at {n}x{n}")
            single = per_call_s(once, min_time, repeats)
        rows.append({
            "n": n,
            "beta": beta,
            "half_steps": trace.last_t,
            "block_half_steps": block_rows(n),
            "one_step_blocks_us_per_half_step": round(single / trace.last_t * 1e6, 2),
            "blocks_us_per_half_step": round(blocked / trace.last_t * 1e6, 2),
            "speedup": round(single / blocked, 3),
        })
    return rows


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


def drain(blocks) -> None:
    for _ in blocks:
        pass


def time_draws_csv(cases, min_time: float, repeats: int) -> list[dict]:
    rows = []
    for replicas, half_steps, n in cases:
        target = random_positive_target(n, n, seed=n)
        draws = run_chains(target, target.joint, replicas, half_steps, seed=1)
        text = "".join(draws_csv_blocks(draws))
        if text != "".join(percent_body(draws)):
            raise SystemExit(f"draws_csv_blocks differs from the % body at {replicas} x {half_steps + 1}")
        percent, records = interleaved_per_call_s(
            (lambda: drain(percent_body(draws)), lambda: drain(draws_csv_blocks(draws))), min_time, repeats
        )
        rows.append({
            "replicas": replicas,
            "half_steps": half_steps,
            "n": n,
            "rows": replicas * (half_steps + 1),
            "bytes": len(text),
            "percent_ms": round(percent * 1e3, 3),
            "records_ms": round(records * 1e3, 3),
            "speedup": round(percent / records, 3),
        })
    return rows


def dicts_body(reports, summary: dict) -> str:
    """What verification_to_json computed before its block encoder: one dict
    per report, written by dumps_indent1."""
    return dumps_indent1({"reports": [report_to_json_dict(r) for r in reports], "summary": summary}) + "\n"


def time_verify(cases, min_time: float, repeats: int) -> list[dict]:
    rows = []
    for n, beta in cases:
        w = np.zeros((n, n))
        w[0, n - 1] = 1.0
        trace = engine.run(JointDensity(w), banded_target(n, beta), 5000, 1e-15, engine.RetainPolicy.all())
        checks = ("lemma3",)
        table = verification_table(trace, checks)
        reports = run_verification(trace, checks)
        summary = summarize(table)
        text = verification_to_json(table, summary)
        if text != dicts_body(reports, summary):
            raise SystemExit(f"verification_to_json differs from the dict body at {n}x{n}")
        sweeps = (lambda: verification_table(trace, checks), lambda: run_verification(trace, checks))
        blocks, materialized = interleaved_per_call_s(sweeps, min_time, repeats)
        exports = (lambda: dicts_body(reports, summary), lambda: verification_to_json(table, summary))
        dicts, encoder = interleaved_per_call_s(exports, min_time, repeats)
        per_report_us = 1e6 / len(reports)
        rows.append({
            "n": n,
            "beta": beta,
            "half_steps": trace.last_t,
            "reports": len(reports),
            "bytes": len(text),
            "sweep_blocks_us_per_report": round(blocks * per_report_us, 3),
            "sweep_materialized_us_per_report": round(materialized * per_report_us, 3),
            "export_dicts_us_per_report": round(dicts * per_report_us, 3),
            "export_blocks_us_per_report": round(encoder * per_report_us, 3),
            "export_speedup": round(dicts / encoder, 3),
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
        "stable_row_sums": time_row_sums(MIN_TIME, REPEATS),
        "reconstruction_check": time_reconstruction(RECONSTRUCTION_SIDES, MIN_TIME, REPEATS),
        "run": time_run(RUN_CASES, MIN_TIME, REPEATS),
        "draws_csv": time_draws_csv(DRAWS_CSV_CASES, MIN_TIME, REPEATS),
        "verify": time_verify(VERIFY_CASES, MIN_TIME, REPEATS),
    }
    text = json.dumps(doc, indent=1) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return doc


if __name__ == "__main__":
    main()
