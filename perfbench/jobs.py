"""The four workloads: seeded job inputs, CLI arguments and output checks.

Each workload draws a pool of POOL jobs from its seed, and the closed loop
runs whole passes over the pool. The parameter that sets a job's cost is
spread over its range by stratified sampling (one draw per stratum, strata
shuffled), so every seed gets a pool with the same spread of job costs and
the median job time does not depend on the seed's luck. The banded targets
carry seeded multiplicative noise, which makes each seed's targets distinct
without changing how slowly they mix; their degenerate start sits in the
first or last column, because the first half-step keeps only the column and
a central column would converge about a quarter faster.

The output checks test properties that hold for any correct implementation:
exit codes, convergence and certification verdicts, monotone divergence, an
independent divergence trajectory, value ranges and lossless file round
trips. They never pin random stream values or the number of checks run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from oracle import divergence_path

POOL = 8

# input ranges; `tiny` keeps the smoke test fast
SIZES = {
    "full": {
        "converge": {"n": 28, "beta": (0.85, 0.95)},
        "certify": {"n": 8, "beta": (0.85, 0.95)},
        "sample": {"n": (5, 20), "replicas": 5000},
        "wide": {"n": (110, 120)},
    },
    "tiny": {
        "converge": {"n": 5, "beta": (0.8, 1.0)},
        "certify": {"n": 3, "beta": (0.8, 1.0)},
        "sample": {"n": (2, 4), "replicas": 100},
        "wide": {"n": (6, 10)},
    },
}

TARGET_NOISE = 0.1  # log-scale standard deviation of the banded targets' noise
CONVERGE_EPS = 1e-10
ORACLE_TOL = 1e-12
SAMPLE_HALF_STEPS = 20
SAMPLE_TIMES = "0,2,20"
# verify's default eps of 1e-16 sits on the rounding floor of the divergence:
# about one small target in sixty never reaches it and the job fails with
# NotConverged, so certify asks for 1e-15, which 900 seeded draws all reached
CERTIFY_EPS = 1e-15
# step budgets far above what the targets need (about 750 and 100 half-steps),
# so a regression that stalls fails fast instead of filling memory
CONVERGE_MAX_STEPS = 5000
CERTIFY_MAX_STEPS = 400
WIDE_CHECKS = ("balance", "reconstruction")

# report names that each verify check family produces
FAMILY_REPORTS = {
    "lemma1": {"Lemma1"},
    "lemma2": {"Lemma2Even", "Lemma2Odd"},
    "lemma3": {"Lemma3"},
    "cauchy": {"Cauchy"},
    "lsc": {"LSC"},
    "balance": {"DetailedBalance"},
    "reconstruction": {"Reconstruction"},
}


@dataclass(frozen=True)
class Job:
    """One closed-loop request: CLI calls run in order, then checked.

    `check(codes, stdouts)` returns the problems found; none means correct.
    """

    params: dict
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[int], list[str]], list[str]]


def _strata(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """POOL values in [lo, hi], one uniform draw in each of POOL equal strata."""
    u = (rng.permutation(POOL) + rng.random(POOL)) / POOL
    return lo + u * (hi - lo)


def _strata_ints(rng: np.random.Generator, lo: int, hi: int) -> list[int]:
    return [int(v) for v in np.floor(_strata(rng, lo, hi + 1 - 1e-9))]


def noisy_banded(rng: np.random.Generator, n: int, beta: float) -> np.ndarray:
    """The slowly mixing target w[i, j] proportional to
    exp(-beta |i - j| + TARGET_NOISE * z[i, j]), z standard normal."""
    i = np.arange(n)
    log_w = -beta * np.abs(i[:, None] - i[None, :]) + TARGET_NOISE * rng.standard_normal((n, n))
    w = np.exp(log_w)
    return w / w.sum()


def _banded_inputs(rng: np.random.Generator, work: str, name: str, size: dict):
    """Yield (params, target path, start cell, target, output prefix) per job."""
    n = size["n"]
    for k, beta in enumerate(_strata(rng, *size["beta"])):
        beta = round(float(beta), 4)
        pi = noisy_banded(rng, n, beta)
        cell = (int(rng.integers(n)), int(rng.choice([0, n - 1])))
        target = _write_target(os.path.join(work, f"{name}{k}.json"), pi)
        params = {"n": n, "beta": beta, "cell": list(cell)}
        yield params, target, cell, pi, os.path.join(work, f"{name}{k}")


def _write_target(path: str, w: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"nx": w.shape[0], "ny": w.shape[1], "w": w.tolist()}, f)
    return path


def _read_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _exit_problems(codes: list[int], n_calls: int) -> list[str]:
    if codes != [0] * n_calls:
        return [f"exit codes {codes}, expected all 0"]
    return []


# --- converge -----------------------------------------------------------------


def converge_jobs(rng: np.random.Generator, work: str, size: dict) -> list[Job]:
    jobs = []
    for params, target, cell, pi, prefix in _banded_inputs(rng, work, "converge", size):
        argv = (
            "run", "--target", target, "--p0", f"degenerate:{cell[0]},{cell[1]}",
            "--eps", repr(CONVERGE_EPS), "--max-steps", str(CONVERGE_MAX_STEPS), "--out-prefix", prefix,
        )
        jobs.append(Job(params, (argv,), partial(check_converge, pi, cell, prefix + ".trace.csv")))
    return jobs


def check_converge(pi, cell, csv_path, codes, stdouts) -> list[str]:
    problems = _exit_problems(codes, 1)
    if "stop_reason=Converged" not in stdouts[0]:
        problems.append(f"run did not report convergence: {stdouts[0].strip()!r}")
    with open(csv_path, encoding="utf-8") as f:
        text = f.read()
    if "nan" in text.lower():
        problems.append("trace CSV contains nan")
        return problems
    rows = text.splitlines()[1:]
    d = [float(r.split(",")[1]) for r in rows]
    if not d[-1] <= CONVERGE_EPS:
        problems.append(f"final divergence {d[-1]!r} above eps {CONVERGE_EPS}")
    rises = sum(b > a for a, b in zip(d, d[1:]))
    if rises:
        problems.append(f"d_to_target rises {rises} times")
    expected = divergence_path(pi, cell, len(d) - 1)
    worst = max(abs(a - b) for a, b in zip(d, expected))
    if not worst <= ORACLE_TOL:
        problems.append(f"d_to_target differs from the marginal recursion by {worst!r}")
    return problems


# --- certify and wide: verify reports -------------------------------------------


def check_verify(families, json_path, codes, stdouts) -> list[str]:
    problems = _exit_problems(codes, len(stdouts))
    doc = _read_json(json_path)
    failures = doc["summary"]["failures"]
    if failures != 0 or not all(r["pass"] for r in doc["reports"]):
        problems.append(f"verify reported {failures} failures")
    names = {r["name"] for r in doc["reports"]}
    missing = [fam for fam in families if not FAMILY_REPORTS[fam] & names]
    if missing:
        problems.append(f"check families missing from the report: {missing}")
    return problems


def certify_jobs(rng: np.random.Generator, work: str, size: dict) -> list[Job]:
    jobs = []
    for params, target, cell, _, prefix in _banded_inputs(rng, work, "certify", size):
        argv = (
            "verify", "--target", target, "--p0", f"degenerate:{cell[0]},{cell[1]}",
            "--checks", "all", "--eps", repr(CERTIFY_EPS), "--max-steps", str(CERTIFY_MAX_STEPS),
            "--retain", "all", "--out-prefix", prefix,
        )
        check = partial(check_verify, tuple(FAMILY_REPORTS), prefix + ".verify.json")
        jobs.append(Job(params, (argv,), check))
    return jobs


def wide_jobs(rng: np.random.Generator, work: str, size: dict) -> list[Job]:
    jobs = []
    for k, n in enumerate(_strata_ints(rng, *size["n"])):
        seed = int(rng.integers(2**31))
        target = os.path.join(work, f"wide{k}.json")
        prefix = os.path.join(work, f"wide{k}")
        gen = ("gen", "--nx", str(n), "--ny", str(n), "--seed", str(seed), "--out", target)
        verify = ("verify", "--target", target, "--checks", ",".join(WIDE_CHECKS), "--out-prefix", prefix)
        params = {"n": n, "gen_seed": seed}
        check = partial(check_wide, n, seed, target, prefix + ".verify.json")
        jobs.append(Job(params, (gen, verify), check))
    return jobs


def check_wide(n, seed, target_path, json_path, codes, stdouts) -> list[str]:
    from daflow.dist import load_joint, random_positive_target

    problems = check_verify(WIDE_CHECKS, json_path, codes, stdouts)
    loaded = load_joint(target_path).w
    generated = random_positive_target(n, n, seed).joint.w
    if loaded.shape != (n, n) or loaded.tobytes() != generated.tobytes():
        problems.append("the generated target does not load back bit-equal")
    return problems


# --- sample ---------------------------------------------------------------------


def sample_jobs(rng: np.random.Generator, work: str, size: dict) -> list[Job]:
    replicas = size["replicas"]
    jobs = []
    for k, n in enumerate(_strata_ints(rng, *size["n"])):
        gen_seed, chain_seed = (int(s) for s in rng.integers(2**31, size=2))
        prefix = os.path.join(work, f"sample{k}")
        draws = prefix + ".draws.csv"
        argv = (
            "sample", "--gen", f"{n},{n},{gen_seed}", "--replicas", str(replicas),
            "--half-steps", str(SAMPLE_HALF_STEPS), "--times", SAMPLE_TIMES,
            "--seed", str(chain_seed), "--draws-out", draws, "--out-prefix", prefix,
        )
        params = {"n": n, "replicas": replicas, "gen_seed": gen_seed, "chain_seed": chain_seed}
        check = partial(check_sample, n, replicas, draws, prefix + ".consistency.json")
        jobs.append(Job(params, (argv,), check))
    return jobs


def check_sample(n, replicas, draws_path, json_path, codes, stdouts) -> list[str]:
    problems = _exit_problems(codes, 1)
    if not _read_json(json_path)["all_within_bound"]:
        problems.append("histograms are not within the consistency bound")
    steps = SAMPLE_HALF_STEPS + 1
    with open(draws_path, encoding="utf-8") as f:
        header = f.readline().strip()
        table = np.loadtxt(f, delimiter=",", dtype=np.int64, ndmin=2)
    if header != "replica,t,x,y" or table.shape != (replicas * steps, 4):
        problems.append(f"draws CSV has header {header!r} and shape {table.shape}")
        return problems
    r, t, x, y = table.T
    in_range = (
        (r >= 0) & (r < replicas) & (t >= 0) & (t < steps) & (x >= 0) & (x < n) & (y >= 0) & (y < n)
    )
    if not in_range.all():
        problems.append(f"{int((~in_range).sum())} draws CSV rows hold an index out of range")
    elif not (np.bincount(r * steps + t, minlength=replicas * steps) == 1).all():
        problems.append("draws CSV does not hold each (replica, t) exactly once")
    return problems


WORKLOADS = {
    "converge": converge_jobs,
    "certify": certify_jobs,
    "sample": sample_jobs,
    "wide": wide_jobs,
}


def make_jobs(workload: str, seed: int, work: str, tiny: bool) -> list[Job]:
    """The job pool of one workload, a pure function of the seed."""
    rng = np.random.default_rng(seed)
    size = SIZES["tiny" if tiny else "full"][workload]
    return WORKLOADS[workload](rng, work, size)
