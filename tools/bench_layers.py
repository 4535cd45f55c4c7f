"""Time and memory-profile each layer of daflow at fixed sizes, on this
source tree or against another one. Run from the repository root:

    python3 tools/bench_layers.py --out BENCH.json
    python3 tools/bench_layers.py --parent DIR/src --out BENCH.json

Every row comes from one table, ``CASES``, of (layer, builder, sizes). A
builder takes one imported copy of the package (``daflow``, or the
``daflow_parent`` that ``load_tree`` imports from ``--parent``) and one size
as keyword arguments, and returns a ``Timed``: a call of the layer on seeded
inputs, a digest of that call's result to check, and the units of work per
call (half-steps for ``engine.run``, else 1). ``measure`` runs each case in a
fresh temporary working directory: the median and interquartile range in
microseconds per unit over ``REPEATS`` rounds of a loop sized to run at least
``MIN_TIME`` seconds, and the tracemalloc peak of one call.

With ``--parent`` the ``src`` directory of another checkout (for one commit,
``git archive COMMIT src | tar -x -C DIR`` gives ``DIR/src``), a case is
refused unless both trees give the same check. Their rounds then alternate,
which goes first alternating too, so drift of the host reaches both alike.
To re-measure a settled decision, pass a tree that reverts it; the
``stable_sum`` sizes straddle ``BINNED_MIN_ENTRIES``. The rows and the machine
go to the ``--out`` JSON file and to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import daflow  # noqa: E402
import daflow._numeric as numeric  # noqa: E402
import daflow.cli  # noqa: E402, F401  (imports every module a builder reads)

MIN_TIME = 0.05
REPEATS = 11


class Timed(NamedTuple):
    call: Callable[[], object]
    check: str
    per: int = 1


def fsum_body(a: np.ndarray) -> float:
    """What stable_sum computed before binning: fsum over a Python list."""
    return math.fsum(np.ascontiguousarray(a, dtype=np.float64).ravel().tolist())


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


def digest(*parts) -> str:
    """A short sha256 over arrays' bytes and other values' text."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else str(part).encode())
    return h.hexdigest()[:16]


def sample_data(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "spread":
        return rng.uniform(-1.0, 1.0, size) * 2.0 ** rng.integers(-1074, 990, size)
    p = rng.gamma(1.0, size=size)
    p /= p.sum()
    if kind == "pmf":
        return p
    q = rng.gamma(1.0, size=size)
    q /= q.sum()
    return p * np.log(p / q)


def banded_weights(n: int, beta: float) -> np.ndarray:
    """The seeded weights w[i, j] proportional to exp(-beta |i - j| + 0.1 z[i, j])."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    w = np.exp(-beta * np.abs(i[:, None] - i[None, :]) + 0.1 * rng.standard_normal((n, n)))
    return w / w.sum()


def banded_target(m, n: int, beta: float):
    return m.dist.make_target(m.dist.JointDensity(banded_weights(n, beta)))


def run_from_corner(m, n: int, beta: float, steps: int, eps: float = 1e-300, retain: str = "none"):
    """A function running ``engine.run`` of the package `m` from the cell
    (n // 3, n - 1) to the banded target, for `steps` half-steps or to `eps`."""
    target, w = banded_target(m, n, beta), np.zeros((n, n))
    w[n // 3, n - 1] = 1.0
    p0, policy = m.dist.JointDensity(w), getattr(m.engine.RetainPolicy, retain)()
    return lambda: m.engine.run(p0, target, steps, eps, policy)


def validate_case(m, n: int) -> Timed:
    w = banded_weights(n, 0.9)
    return Timed(call := lambda: m.dist.JointDensity(w), digest(call().w))


def sum_case(m, entries: int, data: str) -> Timed:
    a = sample_data(data, entries, np.random.default_rng(entries))
    return Timed(call := lambda: m._numeric.stable_sum(a), digest(call()))


def row_sums_case(m, rows: int, entries: int) -> Timed:
    rng = np.random.default_rng(entries)
    a = np.stack([sample_data("terms", entries, rng) for _ in range(rows)])
    return Timed(call := lambda: m._numeric.stable_row_sums(a), digest(call()))


def compose_case(m, n: int) -> Timed:
    target, v = banded_target(m, n, 0.9), m.dist.random_positive_target(n, n, seed=n).marg_y
    return Timed(call := lambda: m.dist.compose(v, target.cond_x_given_y), digest(call().w))


def relative_entropy_case(m, n: int) -> Timed:
    p, q = banded_target(m, n, 0.9).joint, m.dist.random_positive_target(n, n, seed=n).joint
    return Timed(call := lambda: m.metrics.relative_entropy(p, q), digest(m.metrics.encode(call())))


def half_step_case(m, n: int) -> Timed:
    target = banded_target(m, n, 0.9)
    state = m.engine.initial_state(m.dist.random_positive_target(n, n, seed=n).joint)
    return Timed(call := lambda: m.engine.da_half_step(state, target), digest(call().density.w))


def run_case(m, n: int, beta: float | None, half_steps: int, eps: float = 1e-300, retain: str = "none") -> Timed:
    """``engine.run`` for at most `half_steps` half-steps or to `eps`, per
    half-step run, keeping the states of the policy `retain`: from a corner
    to the banded target of `beta`, or, with beta None, from uniform to the
    target ``gen`` draws at seed 1, as the wide workload's ``verify`` runs
    it. The check digests the trace CSV and the retained joints."""
    if beta is None:
        target = m.dist.random_positive_target(n, n, seed=1)
        p0 = m.dist.JointDensity(np.full((n, n), 1.0 / (n * n)))
        call = lambda: m.engine.run(p0, target, half_steps, eps, getattr(m.engine.RetainPolicy, retain)())
    else:
        call = run_from_corner(m, n, beta, half_steps, eps, retain)
    trace = call()
    return Timed(call, digest(m.engine.trace_to_csv(trace), trace.joints(trace.retained_times)), trace.last_t)


def trace_export_case(m, fmt: str, n: int, beta: float, eps: float) -> Timed:
    trace = run_from_corner(m, n, beta, 5000, eps, "all")()
    return Timed(call := lambda: getattr(m.engine, f"trace_to_{fmt}")(trace), digest(call()))


def verify_case(m, check: str, n: int, beta: float, half_steps: int = 400) -> Timed:
    """One verify family's report blocks, its stream listed, on the trace
    run to eps 1e-15 within `half_steps`, by default the certify
    benchmark's. Each call composes the joints it reads from the kept
    marginals."""
    trace = run_from_corner(m, n, beta, half_steps, 1e-15, "all")()
    call = lambda: list(m.diagnostics.verification_table(trace, (check,)))
    return Timed(call, digest(m.diagnostics.verification_to_json([r for b in call() for r in b.reports()])))


def verify_export_case(m, n: int, beta: float) -> Timed:
    """The verify JSON of every check, from blocks made once: the summary
    folded and the reports written, as `cmd_verify` does."""
    trace = run_from_corner(m, n, beta, 400, 1e-15, "all")()
    blocks = list(m.diagnostics.verification_table(trace, m.diagnostics.DEFAULT_CHECKS))
    return Timed(call := lambda: "".join(m.diagnostics.verification_chunks(blocks, {})), digest(call()))


def save_joint_case(m, n: int) -> Timed:
    """`dist.save_joint` of the seeded n x n target that `gen` draws."""
    p = m.dist.random_positive_target(n, n, seed=1).joint
    call = lambda: m.dist.save_joint("t.json", p)
    call()
    return Timed(call, digest(Path("t.json").read_text()))


def float_texts_case(m, values: int, data: str) -> Timed:
    """The text of a float column of `values` entries, a value per line, as
    `_fsio.float_chunks` writes it: gamma draws normalized as ``gen`` draws
    them, or the residuals of lemma3's 5,460 reports on the certify
    benchmark's trace."""
    if data == "residuals":
        trace = run_from_corner(m, 8, 0.9, 400, 1e-15, "all")()
        a = np.concatenate([b.value for b in m.diagnostics.verification_table(trace, ("lemma3",))])[:values]
    else:
        a = sample_data(data, values, np.random.default_rng(values))
    return Timed(call := lambda: "".join(m._fsio.float_chunks(a, "\n", 1, "\n", "\n")), digest(call()))


def run_chains_case(m, replicas: int, half_steps: int, n: int) -> Timed:
    target = m.dist.random_positive_target(n, n, seed=n)
    call = lambda: m.sampler.run_chains(target, target.joint, replicas, half_steps, seed=1)
    draws = call()
    return Timed(call, digest(draws.xs, draws.ys))


def draws_csv_case(m, replicas: int, half_steps: int, n: int) -> Timed:
    draws = run_chains_case(m, replicas, half_steps, n).call()
    return Timed(call := lambda: m.sampler.draws_to_csv(draws), digest(call()))


def cli_case(m, argv: str, banded: list | None = None) -> Timed:
    """``cli.main`` on `argv`, after writing the banded target of (n, beta)
    `banded` as ``target.json``; the check digests the exit code, stdout and
    every file in the working directory."""
    if banded:
        w = banded_weights(*banded)
        Path("target.json").write_text(json.dumps({"nx": len(w), "ny": len(w), "w": w.tolist()}))

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return m.cli.main(argv.split()), out.getvalue()

    result = call()
    return Timed(call, digest(result, *((p.name, p.read_bytes()) for p in sorted(Path().iterdir()))))


# (layer, builder, sizes): the benchmark workloads' sizes and larger ones
CASES = [
    *((layer, builder, [{"n": n} for n in (8, 28, 50, 200, 500)]) for layer, builder in (
        ("dist.validate", validate_case), ("dist.compose", compose_case),
        ("metrics.relative_entropy", relative_entropy_case), ("engine.half_step", half_step_case))),
    ("numeric.stable_sum", sum_case, [
        {"entries": e, "data": d} for e, d in (
            (512, "terms"), (768, "terms"), (1023, "terms"), (1024, "terms"), (2048, "terms"), (784, "pmf"),
            (40_000, "pmf"), (40_000, "terms"), (250_000, "terms"), (250_000, "spread"))]),
    # the wide workload's target file, and a large one
    ("dist.save_joint", save_joint_case, [{"n": 120}, {"n": 500}]),
    # one call of the float kernel and eight, and a certify job's lemma3 residuals
    ("fsio.float_texts", float_texts_case, [
        {"values": 1024, "data": "pmf"}, {"values": 8192, "data": "pmf"}, {"values": 5460, "data": "residuals"}]),
    # the certify grid's 64-entry rows, and `run`'s stacks at 28 x 28 and 200 x 200
    ("numeric.stable_row_sums", row_sums_case, [
        {"rows": r, "entries": e} for r, e in ((8, 64), (16, 64), (64, 64), (10, 784), (1, 40_000))]),
    ("engine.run", run_case, [*({"n": n, "beta": b, "half_steps": s} for n, b, s in (
        (28, 0.9, 400), (100, 0.9, 60), (200, 0.9, 40), (500, 0.9, 10), (40, 2.0, 1000))),
        # 1,000 kept states, as converge, certify and sample keep every one
        {"n": 40, "beta": 2.0, "half_steps": 1000, "retain": "all"},
        # the wide workload's run: 10 half-steps from uniform on 120 x 120
        {"n": 120, "beta": None, "half_steps": 10_000, "eps": 1e-16, "retain": "all"}]),
    # the converge benchmark's trace, 746 half-steps
    ("engine.export", trace_export_case, [{"fmt": f, "n": 28, "beta": 0.9, "eps": 1e-10} for f in ("csv", "json")]),
    # the pair sweeps also on 150 retained 40 x 40 joints, which span several
    # tiles of times, cauchy on 300 retained 60 x 60 joints, whose cached
    # joints once dominated its peak, and reconstruction, which reads only
    # the target, at the wide workload's largest size
    *((f"diagnostics.{c}", verify_case, [
        {"check": c, "n": 8, "beta": 0.9},
        *([{"check": c, "n": 40, "beta": 0.9, "half_steps": 150}] if c in ("lemma3", "cauchy") else []),
        *([{"check": c, "n": 60, "beta": 0.9, "half_steps": 299}] if c == "cauchy" else []),
        *([{"check": c, "n": 120, "beta": 0.9, "half_steps": 1}] if c == "reconstruction" else [])])
      for c in daflow.diagnostics.DEFAULT_CHECKS),
    ("diagnostics.export", verify_export_case, [{"n": 8, "beta": 0.9}]),
    *((layer, builder, [{"replicas": r, "half_steps": s, "n": n} for r, s, n in (
        (5000, 20, 5), (5000, 20, 20), (100_000, 4, 50))]) for layer, builder in (
        ("sampler.run_chains", run_chains_case), ("sampler.draws_to_csv", draws_csv_case))),
    ("cli.gen", cli_case, [{"argv": f"gen --nx {n} --ny {n} --seed 1 --out g.json"} for n in (120, 500)]),
    ("cli.run", cli_case, [
        {"argv": "run --target target.json --p0 degenerate:9,27 --eps 1e-10 --max-steps 5000 --out-prefix r",
         "banded": [28, 0.9]},
        # 20,000 half-steps of 40 B of records on a 1 x 5 target, and with its
        # 48 B per kept state: the columns' growth sets the peak
        *({"argv": f"run --gen 1,5,3 --p0 random:4 --eps 1e-300 --max-steps 20000 --retain {r} --out-prefix r"}
          for r in ("none", "all"))]),
    ("cli.verify", cli_case, [
        {"argv": "verify --target target.json --p0 degenerate:2,7 --checks all --eps 1e-15 "
                 "--max-steps 400 --retain all --out-prefix v", "banded": [8, 0.9]},
        {"argv": "verify --gen 120,120,1 --checks balance,reconstruction --out-prefix w"},
        # the wide workload's verify, reading its target through `load_joint`
        {"argv": "verify --target target.json --checks balance,reconstruction --out-prefix w",
         "banded": [120, 0.9]},
        # lemma3's 79,800 reports and cauchy's scan on a 1 x 5 target
        {"argv": "verify --gen 1,5,3 --p0 random:4 --checks lemma3,cauchy --eps 1e-300 --max-steps 400 "
                 "--out-prefix v"}]),
    ("cli.sample", cli_case, [{"argv": "sample --gen 20,20,1 --replicas 5000 --half-steps 20 --times 0,2,20 "
                                       "--seed 1 --draws-out d.csv --out-prefix s"}]),
]


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


def peak_mb(call) -> float:
    """The tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    finally:
        tracemalloc.stop()


def measure(layer: str, builder, size: dict, trees: dict) -> dict:
    """One row of `size`: per tree, under its key prefix in `trees`, the
    median and interquartile range in microseconds per unit and the peak,
    and with two trees the rounds the change won; refused unless every tree
    gives the same check value."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="daflow-bench-") as work:
        os.chdir(work)
        try:
            built = {prefix: builder(m, **size) for prefix, m in trees.items()}
            checks = {b.check for b in built.values()}
            if len(checks) > 1:
                raise SystemExit(f"{layer} {size}: the trees give different check values {sorted(checks)}")
            rounds = interleaved_rounds([b.call for b in built.values()], MIN_TIME, REPEATS)
            per = next(iter(built.values())).per
            row = {"layer": layer, "size": size, "per": per, "check": checks.pop()}
            for (prefix, b), r in zip(built.items(), rounds):
                q1, median, q3 = np.percentile(np.array(r) * 1e6 / per, [25, 50, 75]).tolist()
                row |= {f"{prefix}us": round(median, 2), f"{prefix}iqr_us": round(q3 - q1, 2),
                        f"{prefix}peak_mb": peak_mb(b.call)}
        finally:
            os.chdir(home)
    if len(rounds) == 2:
        row |= {"change_wins": sum(c < p for p, c in zip(*rounds)), "rounds": REPEATS}
    return row


def load_tree(src: Path, name: str):
    """The daflow package under the directory `src`, imported as `name` with
    all of its modules."""
    init = src / "daflow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def main(argv: list[str] | None = None) -> dict:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="write the results here as JSON")
    p.add_argument("--parent", type=Path, help="compare with the daflow package in this src directory")
    args = p.parse_args(argv)
    trees = {"": daflow}
    if args.parent:
        trees = {"parent_": load_tree(args.parent.resolve(), "daflow_parent"), "change_": daflow}
    rounds = f"{REPEATS} {'interleaved ' if args.parent else ''}rounds of at least {MIN_TIME} s"
    doc = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count(),
                    "platform": platform.platform(terse=True)},
        "timing": f"median and interquartile range per unit over {rounds}; tracemalloc peak of one call",
        "rows": [measure(layer, builder, size, trees) for layer, builder, sizes in CASES for size in sizes],
    }
    text = json.dumps(doc, indent=1) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return doc


if __name__ == "__main__":
    main()
