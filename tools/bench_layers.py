"""Time the summation layers, the reconstruction check, `run`, the draws CSV
and the verify reports, or compare the summation layers and `run` with those
of another source tree.

Run from the repository root:

    python3 tools/bench_layers.py --out BENCH.json

For each array size it times ``daflow._numeric.stable_sum`` against
``math.fsum(a.tolist())``, the body it replaced, on two kinds of data: a
normalized gamma pmf, as in the mass sums, and signed p*log(p/q) terms, as in
the divergence sums. The extraction is timed with the size threshold lowered
to 1, so sizes below ``BINNED_MIN_ENTRIES`` show what extracting them would
cost; the crossover printed with the results is the smallest measured size
from which extraction wins at every larger size. It times
``_numeric.stable_row_sums`` against the fsum body row by row on stacks of
divergence terms: stacks of 64-entry rows, with the threshold lowered to 1,
and the block shapes `run` stacks on each grid below. It then times
``diagnostics.reconstruction_check`` on n x n random targets with the
package's summation and with every module's ``stable_sum`` swapped for the
fsum body, and records the tracemalloc peak of one call. Last, it times ``engine.run`` per half-step from a
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

With ``--parent SRC``, where SRC is the ``src`` directory of another checkout
(for one commit, ``git archive COMMIT src | tar -x -C DIR`` and pass
``DIR/src``), it instead imports that tree's package as ``daflow_parent``
beside this tree's ``daflow`` and times both in one process, their rounds
alternating as above, over ``COMPARE_REPEATS`` rounds: ``stable_sum`` on
``COMPARE_SUMS``, ``stable_row_sums`` on the stacks `run` measures on the
grids of ``COMPARE_RUNS``, and one `run` half-step on those grids. Each case
is first checked to give the same result on both trees. Each row gives both
medians, the parent's interquartile range and the rounds the change won.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
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
# stacks of 64-entry rows, the divergence rows of the certify benchmark's 8x8
# grid
STACK_ROWS = (8, 16, 32, 64)
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
# (entries, data) for the two-tree comparison: pmfs and divergence terms on
# the 100x100, 200x200 and 500x500 grids, then two arrays of mantissas
# spread over exponents 2**-1074 to 2**989, one with every entry below
# 2**990 and one whose normal mantissas carry a few entries past it
COMPARE_SUMS = (
    (10_000, "pmf"), (10_000, "terms"), (40_000, "pmf"), (40_000, "terms"),
    (250_000, "pmf"), (250_000, "terms"), (250_000, "spread"), (250_000, "spread_normal"),
)
# (side, beta, half-steps) for the two-tree comparison of `run`
COMPARE_RUNS = ((28, 0.9, 400), (100, 0.9, 60), (200, 0.9, 40), (500, 0.9, 10))
COMPARE_REPEATS = 11


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
    """Median seconds per call of each function over `interleaved_rounds`."""
    return [statistics.median(r) for r in interleaved_rounds(fns, min_time, repeats)]


def interleaved_rounds(fns, min_time: float, repeats: int) -> list[list[float]]:
    """Seconds per call of each function in each of `repeats` rounds of at
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
    return rounds


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
    if kind == "spread":
        return rng.uniform(-1.0, 1.0, size) * 2.0 ** rng.integers(-1074, 990, size)
    if kind == "spread_normal":
        return rng.standard_normal(size) * 2.0 ** rng.integers(-1074, 990, size)
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
                extraction = per_call_s(lambda: numeric.stable_sum(a), min_time, repeats)
            fsum = per_call_s(lambda: fsum_body(a), min_time, repeats)
            rows.append({
                "entries": size,
                "data": kind,
                "fsum_us": round(fsum * 1e6, 2),
                "extraction_us": round(extraction * 1e6, 2),
                "speedup": round(fsum / extraction, 3),
            })
    return rows


def crossover(rows: list[dict]) -> int | None:
    """Smallest measured size from which extraction wins on every kind of
    data at every larger measured size."""
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
    shapes = [(n_rows, 64, 1) for n_rows in STACK_ROWS]
    shapes += [(block_rows(side), side * side, numeric.BINNED_MIN_ENTRIES) for side, _, _ in RUN_CASES]
    rows = []
    for n_rows, entries, threshold in shapes:
        a = np.stack([sample_data("terms", entries, rng) for _ in range(n_rows)])
        with constant_set(numeric, "BINNED_MIN_ENTRIES", threshold):
            if numeric.stable_row_sums(a) != [fsum_body(row) for row in a]:
                raise SystemExit(f"stable_row_sums differs from fsum at {n_rows} x {entries}")
            row_sums = per_call_s(lambda: numeric.stable_row_sums(a), min_time, repeats)
        fsum = per_call_s(lambda: [fsum_body(row) for row in a], min_time, repeats)
        rows.append({
            "rows": n_rows,
            "entries": entries,
            "min_entries": threshold,
            "fsum_us_per_row": round(fsum / n_rows * 1e6, 2),
            "row_sums_us_per_row": round(row_sums / n_rows * 1e6, 2),
            "speedup": round(fsum / row_sums, 3),
        })
    return rows


def banded_weights(n: int, beta: float) -> np.ndarray:
    """The seeded weights w[i, j] proportional to exp(-beta |i - j| + 0.1 z[i, j])."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    w = np.exp(-beta * np.abs(i[:, None] - i[None, :]) + 0.1 * rng.standard_normal((n, n)))
    return w / w.sum()


def banded_target(n: int, beta: float):
    return make_target(JointDensity(banded_weights(n, beta)))


def run_from_corner(n: int, beta: float, steps: int, package: str = "daflow"):
    """A function running `steps` half-steps of ``engine.run`` from a corner
    cell of the banded target, retaining no state, with the modules of the
    imported `package`."""
    dist, eng = (importlib.import_module(f"{package}.{m}") for m in ("dist", "engine"))
    target = dist.make_target(dist.JointDensity(banded_weights(n, beta)))
    w = np.zeros((n, n))
    w[n // 3, n - 1] = 1.0
    p0 = dist.JointDensity(w)
    return lambda: eng.run(p0, target, steps, 1e-300, eng.RetainPolicy.none())


def time_run(cases, min_time: float, repeats: int) -> list[dict]:
    rows = []
    for n, beta, steps in cases:
        once = run_from_corner(n, beta, steps)
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
        report = reconstruction_check(target)
        extraction = per_call_s(lambda: reconstruction_check(target), min_time, repeats)
        with stable_sum_replaced(fsum_body):
            if reconstruction_check(target) != report:
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
            "extraction_s": round(extraction, 5),
            "speedup": round(fsum / extraction, 3),
            "extraction_tracemalloc_peak_mb": round(peak / 2**20, 3),
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


def load_tree(src: Path, name: str):
    """The daflow package under the directory `src`, imported as `name`."""
    init = src / "daflow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def compared(parent_fn, change_fn, min_time: float, repeats: int) -> dict:
    """Interleaved rounds of the parent's and the change's body: both
    medians in microseconds, the parent's interquartile range, and the
    rounds in which the change was faster."""
    parent, change = interleaved_rounds((parent_fn, change_fn), min_time, repeats)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {
        "parent_us": round(statistics.median(parent) * 1e6, 2),
        "change_us": round(statistics.median(change) * 1e6, 2),
        "ratio": round(statistics.median(change) / statistics.median(parent), 3),
        "parent_iqr_us": round((q3 - q1) * 1e6, 2),
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "rounds": repeats,
    }


def compare_trees(parent_src: Path, min_time: float, repeats: int) -> dict:
    """`stable_sum`, `stable_row_sums` and `run` of the tree at `parent_src`
    against this tree's, each case checked for equal results first."""
    load_tree(parent_src, "daflow_parent")
    old = importlib.import_module("daflow_parent._numeric")
    rng = np.random.default_rng(2)
    sums = []
    for size, kind in COMPARE_SUMS:
        a = sample_data(kind, size, rng)
        if old.stable_sum(a) != numeric.stable_sum(a):
            raise SystemExit(f"stable_sum differs between the trees at {size} {kind} entries")
        row = {"entries": size, "data": kind, "max_log2": round(float(np.log2(np.abs(a).max())), 2)}
        sums.append(row | compared(lambda: old.stable_sum(a), lambda: numeric.stable_sum(a), min_time, repeats))
    stacks, runs = [], []
    for n, beta, steps in COMPARE_RUNS:
        a = np.stack([sample_data("terms", n * n, rng) for _ in range(block_rows(n))])
        if old.stable_row_sums(a) != numeric.stable_row_sums(a):
            raise SystemExit(f"stable_row_sums differs between the trees at {a.shape}")
        row = {"rows": len(a), "entries": n * n}
        stacks.append(row | compared(lambda: old.stable_row_sums(a), lambda: numeric.stable_row_sums(a), min_time, repeats))
        parent_run, change_run = run_from_corner(n, beta, steps, "daflow_parent"), run_from_corner(n, beta, steps)
        if repr(parent_run().records) != repr(change_run().records):
            raise SystemExit(f"run differs between the trees at {n}x{n}")
        per_step = compared(parent_run, change_run, min_time, repeats)
        for key in ("parent_us", "change_us", "parent_iqr_us"):
            per_step[key] = round(per_step[key] / steps, 2)
        runs.append({"n": n, "beta": beta, "half_steps": steps} | per_step)
    return {"stable_sum": sums, "stable_row_sums": stacks, "run_per_half_step": runs}


def main(argv: list[str] | None = None) -> dict:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="write the results here as JSON")
    p.add_argument("--parent", type=Path, help="compare with the daflow package in this src directory")
    args = p.parse_args(argv)
    machine = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "platform": platform.platform(terse=True),
    }
    if args.parent:
        doc = {
            "machine": machine,
            "timing": f"medians of {COMPARE_REPEATS} interleaved rounds of at least {MIN_TIME} s",
        } | compare_trees(args.parent, MIN_TIME, COMPARE_REPEATS)
        return write_doc(doc, args.out)
    sums = time_sums(SUM_SIZES, MIN_TIME, REPEATS)
    doc = {
        "machine": machine,
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
    return write_doc(doc, args.out)


def write_doc(doc: dict, out: str) -> dict:
    text = json.dumps(doc, indent=1) + "\n"
    Path(out).write_text(text)
    print(text, end="")
    return doc


if __name__ == "__main__":
    main()
