"""daflow benchmark: closed-loop CLI jobs timed end to end, or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 25 --trace 0

One client in this process runs jobs back to back; each job is one or two
in-process calls to ``daflow.cli.main`` on inputs generated from the seed
(see jobs.py for the workloads), and every job's outputs are checked.

``--trace 0`` measures for ``--seconds`` with tracing off and reports
``job_s.p50``, ``job_s.tail``, ``setup_s`` and ``peak_rss_mb``; the failure
fraction is printed too and carried by ``attempted``/``failed``.

``--trace 1`` runs as many whole passes over the job pool as fit in
``--seconds`` (at least one), each job once untraced and once with a span
around every call into the listed module functions (see spans.py), then the
largest job once more under tracemalloc. It reports per-layer calls, self
time and work counts per pass; counts repeat exactly for a given seed.

The program is imported from ``src/`` next to this directory; nothing there
is changed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread unless set, never more than the cores available; this must
# happen before NumPy is imported
for _var in BLAS_THREAD_VARS:
    try:
        _threads = int(os.environ.get(_var, "1"))
    except ValueError:
        _threads = 1
    os.environ[_var] = str(min(max(_threads, 1), NPROC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import jobs as workloads  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh-process set-up probes: a few before the first job and one after each
# pass, so that the median spans the run as job times do and a slow spell of
# the host does not decide it alone
SETUP_PROBES_FIRST = 3
SETUP_TIMEOUT_S = 60
TAIL_JOBS_ABOVE = 10

# per-layer metrics: name -> unit, in output order
PER_LAYER_UNITS: dict[str, str] = {}
for _layer in ("load_joint", "save_joint", "make_target", "compose", "marginal", "validate"):
    PER_LAYER_UNITS[f"dist.{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"dist.{_layer}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "numeric.stable_sum.calls": "count",
    "numeric.stable_sum.self_s": "s",
    "numeric.stable_sum.elements": "count",
    "numeric.stable_sum.elements_per_half_step": "count/step",
    "metrics.relative_entropy.calls": "count",
    "metrics.relative_entropy.self_s": "s",
    "metrics.total_variation.calls": "count",
    "metrics.total_variation.self_s": "s",
    "engine.run.self_s": "s",
    "engine.half_step.calls": "count",
    "engine.half_step.self_s": "s",
    "engine.export.self_s": "s",
    "engine.export.bytes": "B",
    "engine.retained_states": "count",
    "engine.retained_mb": "MB_computed",
})
for _span in spans.CHECK_SPANS:
    PER_LAYER_UNITS[f"{_span}.checks"] = "count"
    PER_LAYER_UNITS[f"{_span}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "diagnostics.export.self_s": "s",
    "diagnostics.export.bytes": "B",
    "diagnostics.failures": "count",
    "diagnostics.reconstruction.alloc_peak_mb": "MB",
    "sampler.run_chains.self_s": "s",
    "sampler.run_chains.draws": "count",
    "sampler.run_chains.alloc_peak_mb": "MB",
    "sampler.uniforms.self_s": "s",
    "sampler.categorical.self_s": "s",
    "sampler.categorical.compares": "count_computed",
    "sampler.consistency_report.self_s": "s",
    "sampler.draws_to_csv.self_s": "s",
    "sampler.draws_to_csv.bytes": "B",
    "fsio.atomic_write_text.calls": "count",
    "fsio.atomic_write_text.self_s": "s",
    "fsio.atomic_write_text.bytes": "B",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
})
# share of traced job time spent inside a span, children included: the
# shares an optimisation of that layer starts from
SHARE_SPANS = (
    "numeric.stable_sum",
    "metrics.relative_entropy",
    "engine.half_step",
    "diagnostics.lemma3",
    "diagnostics.reconstruction",
    "sampler.uniforms",
    "sampler.draws_to_csv",
)
for _span in SHARE_SPANS:
    PER_LAYER_UNITS[f"{_span}.share"] = "ratio"

END_TO_END_UNITS = {"job_s.p50": "s", "job_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def _import_program():
    """Import daflow from this checkout's src/, refusing any other copy."""
    if not (SRC / "daflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no daflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import daflow
    import daflow.cli

    if Path(daflow.__file__).resolve().parent != SRC / "daflow":
        raise SystemExit(f"error: imported daflow from {daflow.__file__}, not from {SRC}")
    return daflow.cli


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "daflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def execute(cli, job: workloads.Job) -> tuple[float, list[str]]:
    """Run one job's CLI calls; return its wall time and the problems found."""
    codes, stdouts = [], []
    start = time.perf_counter()
    try:
        for argv in job.calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(list(argv)))
            stdouts.append(out.getvalue())
    except Exception:
        # the loop must go on: an unexpected exception is one failed job
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, job.check(codes, stdouts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return elapsed, [f"output check could not read the outputs: {e!r}"]


def _warm_up(cli, work: str) -> None:
    """The same tiny job as the setup probe, so lazy set-up is not timed."""
    target = os.path.join(work, "warmup.json")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["gen", "--nx", "4", "--ny", "4", "--seed", "0", "--out", target])
        cli.main(["run", "--target", target])


def measure_setup(work: str, repeats: int) -> list[float]:
    """Seconds a fresh process takes to import daflow and finish a tiny job."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), work],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if out["codes"] != [0, 0]:
            raise RuntimeError(f"setup probe exit codes {out['codes']}")
        samples.append(out["setup_s"])
    return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with TAIL_JOBS_ABOVE jobs above it.

    Returns (value, percentile, jobs above); with too few jobs it falls back
    to the smallest time and says how many lie above.
    """
    ordered = sorted(times)
    k = max(len(ordered) - 1 - TAIL_JOBS_ABOVE, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def timed_run(cli, pool, work, seconds) -> tuple[dict, dict, int, int]:
    setup = measure_setup(work, SETUP_PROBES_FIRST)
    _warm_up(cli, work)
    times, problems = [], []
    start = time.perf_counter()
    # whole passes, so every run times the same mix of jobs
    while not times or time.perf_counter() - start < seconds:
        for k, job in enumerate(pool):
            elapsed, found = execute(cli, job)
            times.append(elapsed)
            if found:
                problems.append({"job": k, "problems": found})
        setup += measure_setup(work, 1)
    tail_s, pct, above = tail(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "jobs_timed": len(times),
        "tail_percentile": pct,
        "jobs_above_tail": above,
        "setup_samples_s": setup,
        "fail_frac": len(problems) / len(times),
        "problems": problems[:5],
    }
    return metrics, detail, len(times), len(problems)


def _job_elements(job_spans: dict) -> int:
    stats = job_spans.get("numeric.stable_sum")
    return stats.counts.get("elements", 0) if stats else 0


def _job_counts(job_spans: dict) -> dict:
    return {name: (s.calls, s.counts) for name, s in job_spans.items()}


def traced_run(cli, pool, work, seconds) -> tuple[dict, dict, int, int]:
    _warm_up(cli, work)
    tracer = spans.Tracer()
    plain, traced, problems = [], [], []
    attempted = passes = 0

    def attempt(k, job):
        nonlocal attempted
        attempted += 1
        elapsed, found = execute(cli, job)
        if found:
            problems.append({"job": k, "problems": found})
        return elapsed

    start = time.perf_counter()
    # whole passes only, and none that would end after `seconds`
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for k, job in enumerate(pool):
            plain.append(attempt(k, job))
            with tracer.job():
                traced.append(attempt(k, job))
        passes += 1
    # tracemalloc makes a job many times slower, so the allocation peaks come
    # from one job: the one that sums the most elements (the largest input)
    heavy = [k for k in range(len(pool)) if any(n in tracer.jobs[k] for n in spans.ALLOC_SPANS)]
    peaks: dict[str, int] = {}
    if heavy:
        k = max(heavy, key=lambda k: _job_elements(tracer.jobs[k]))
        with spans.alloc_peaks(peaks):
            attempt(k, pool[k])

    # every pass runs the same jobs, so every count must repeat exactly
    first = [_job_counts(j) for j in tracer.jobs[: len(pool)]]
    for p in range(1, passes):
        again = [_job_counts(j) for j in tracer.jobs[p * len(pool) : (p + 1) * len(pool)]]
        if again != first:
            problems.append({"job": None, "problems": [f"span counts differ between pass 0 and pass {p}"]})

    metrics = _layer_metrics(tracer.jobs, passes, peaks, plain, traced)
    detail = {
        "passes": passes,
        "jobs_traced": len(traced),
        "missing_functions": spans.missing_functions(),
        "counter_errors": sorted(tracer.counter_errors),
        "incl_s_per_pass": _incl_per_pass(tracer.jobs, passes),
        "problems": problems[:5],
    }
    return metrics, detail, attempted, len(problems)


def _totals(job_spans: list[dict]) -> dict[str, spans.SpanStats]:
    total: dict[str, spans.SpanStats] = {}
    for job in job_spans:
        for name, s in job.items():
            t = total.setdefault(name, spans.SpanStats())
            t.calls += s.calls
            t.incl_s += s.incl_s
            t.self_s += s.self_s
            for key, value in s.counts.items():
                t.counts[key] = t.counts.get(key, 0) + value
    return total


def _incl_per_pass(job_spans: list[dict], passes: int) -> dict[str, float]:
    return {name: s.incl_s / passes for name, s in sorted(_totals(job_spans).items())}


def _layer_metrics(job_spans, passes, peaks, plain, traced) -> dict[str, float]:
    total = _totals(job_spans)
    empty = spans.SpanStats()

    def calls(name):
        return total.get(name, empty).calls // passes

    def self_s(name):
        return total.get(name, empty).self_s / passes

    def count(name, key):
        return total.get(name, empty).counts.get(key, 0) // passes

    def per_job_max(name, key):
        return max((j[name].counts.get(key, 0) for j in job_spans if name in j), default=0)

    m: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            m[metric] = calls(span)
        elif field == "self_s":
            m[metric] = self_s(span)
        elif field in ("elements", "bytes", "draws", "compares", "checks"):
            m[metric] = count(span, field)
    half_steps = calls("engine.half_step")
    m["numeric.stable_sum.elements_per_half_step"] = (
        m["numeric.stable_sum.elements"] / half_steps if half_steps else 0.0
    )
    m["engine.retained_states"] = per_job_max("engine.run", "retained_states")
    m["engine.retained_mb"] = per_job_max("engine.run", "retained_bytes") / 1e6
    m["diagnostics.failures"] = sum(count(name, "failures") for name in spans.CHECK_SPANS)
    for span in spans.ALLOC_SPANS:
        m[f"{span}.alloc_peak_mb"] = peaks.get(span, 0) / 1e6
    m["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    job_s = total["job"].incl_s
    for span in SHARE_SPANS:
        m[f"{span}.share"] = total.get(span, empty).incl_s / job_s
    return m


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        pool = workloads.make_jobs(args.workload, args.seed, work, args.tiny)
        run = traced_run if args.trace else timed_run
        values, detail, attempted, failed = run(cli, pool, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": _environment(),
        "jobs": [job.params for job in pool],
        **detail,
    }
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if not args.trace:
        print(
            f"{args.workload} job_s.tail is p{detail['tail_percentile']:.1f} of "
            f"{detail['jobs_timed']} timed jobs ({detail['jobs_above_tail']} above it)"
        )
        print(f"{args.workload} fail_frac = {detail['fail_frac']:.6g} ratio ({failed} of {attempted} jobs)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
