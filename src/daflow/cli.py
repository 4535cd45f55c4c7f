"""Command-line entry point: generate targets, run traces, verify, sample.

Subcommands:

  gen     draw a strictly positive random target and write it as JSON
  run     iterate the density recursion, exporting the trace as CSV or JSON
  verify  run certification checks over a trace and report pass/fail
  sample  simulate chains and compare histograms against exact iterates

Every command is a pure function of its flags and input files: outputs carry
no timestamps and repeated invocations produce identical bytes. Files are
written atomically (temp file in place, then rename).

Exit codes: 0 success; 1 a convergence or certification check failed;
2 usage or configuration error (bad flags, malformed files, missing retained
states, budget exceeded); 3 hypothesis violation (target not strictly
positive, or infinite starting divergence).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable

import numpy as np

from ._fsio import atomic_write_chunks
from .diagnostics import (
    DEFAULT_CHECKS,
    SWEEP_NEEDS_HISTORY,
    ReportBlock,
    _gather,
    lemma1_check,
    lemma2_check,
    lemma3_check,
    lsc_gap,
    validate_checks,
    validate_instance,
    verification_chunks,
    verification_table,
)
from .dist import (
    JointDensity,
    Target,
    load_joint,
    make_target,
    random_positive_target,
    save_joint,
)
from .engine import (
    DATrace,
    RetainPolicy,
    StopReason,
    run,
    trace_csv_chunks,
    trace_json_chunks,
)
from .errors import DAError, DistributionError, PositivityViolation, StateNotRetained
from .metrics import encode
from .sampler import (
    DEFAULT_BUDGET,
    check_chain_request,
    consistency_report,
    draws_csv_blocks,
    run_chains,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3

ENTROPY_BUDGET_ENV = "DA_ENTROPY_BUDGET"

RUN_EPS_DEFAULT = 1e-10
# verification traces must sit much closer to the target than ordinary runs:
# the lsc proxy's tolerance floor assumes the horizon state is converged to
# near rounding level
VERIFY_EPS_DEFAULT = 1e-16
MAX_STEPS_DEFAULT = 10_000


def _parse_gen_spec(spec: str) -> tuple[int, int, int, float]:
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        raise DistributionError(f"--gen wants nx,ny,seed[,conc], got {spec!r}")
    try:
        nx, ny, seed = int(parts[0]), int(parts[1]), int(parts[2])
        conc = float(parts[3]) if len(parts) == 4 else 1.0
    except ValueError:
        raise DistributionError(f"--gen wants numeric nx,ny,seed[,conc], got {spec!r}") from None
    return nx, ny, seed, conc


def _resolve_target(args: argparse.Namespace) -> Target:
    if (args.target is None) == (args.gen is None):
        raise DistributionError("exactly one of --target and --gen is required")
    if args.gen is not None:
        nx, ny, seed, conc = _parse_gen_spec(args.gen)
        return random_positive_target(nx, ny, seed, conc)
    # file targets may carry zero cells; defer the positivity verdict to the
    # engine so an infinite starting divergence is reported as such
    return make_target(load_joint(args.target), require_positive=False)


def _resolve_p0(spec: str, target: Target) -> JointDensity:
    nx, ny = target.shape
    if spec == "uniform":
        return JointDensity(np.full((nx, ny), 1.0 / (nx * ny)))
    if spec.startswith("degenerate:"):
        try:
            i_str, j_str = spec[len("degenerate:") :].split(",")
            i, j = int(i_str), int(j_str)
        except ValueError:
            raise DistributionError(f"--p0 degenerate wants degenerate:i,j, got {spec!r}") from None
        if not (0 <= i < nx and 0 <= j < ny):
            raise DistributionError(f"degenerate cell ({i},{j}) outside {nx}x{ny} grid")
        w = np.zeros((nx, ny))
        w[i, j] = 1.0
        return JointDensity(w)
    if spec.startswith("random:"):
        try:
            seed = int(spec[len("random:") :])
        except ValueError:
            raise DistributionError(f"--p0 random wants random:seed, got {spec!r}") from None
        return random_positive_target(nx, ny, seed).joint
    if spec.startswith("file:"):
        p0 = load_joint(spec[len("file:") :])
        if p0.shape != target.shape:
            raise DistributionError(
                f"p0 file is {p0.shape[0]}x{p0.shape[1]} but target is {nx}x{ny}"
            )
        return p0
    raise DistributionError(
        f"--p0 wants uniform | degenerate:i,j | random:seed | file:path, got {spec!r}"
    )


def _parse_retain(spec: str) -> RetainPolicy:
    if spec == "all":
        return RetainPolicy.all()
    if spec == "none":
        return RetainPolicy.none()
    if spec.startswith("thin:"):
        try:
            k = int(spec[len("thin:") :])
        except ValueError:
            raise DistributionError(f"--retain thin wants thin:k, got {spec!r}") from None
        return RetainPolicy.thin(k)
    raise DistributionError(f"--retain wants all | none | thin:k, got {spec!r}")


def _effective_budget(flag_value: int | None) -> int:
    base = DEFAULT_BUDGET if flag_value is None else flag_value
    env = os.environ.get(ENTROPY_BUDGET_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise DistributionError(f"{ENTROPY_BUDGET_ENV} must be an integer, got {env!r}") from None
        return min(base, cap)
    return base


def _require_finite_start(trace: DATrace) -> None:
    if trace.stop_reason is StopReason.INFINITE_INITIAL_DIVERGENCE:
        raise PositivityViolation(
            "the starting density has infinite divergence to the target "
            "(the convergence theorem assumes D(p0 || target) < inf)"
        )


def _emit(out_prefix: str | None, kind: str, chunks: Iterable[str], summary: Callable[[], str]) -> None:
    """Write the document made of `chunks` to `<out_prefix>.<kind>.json` and
    then print `summary()`, or write it to stdout when no prefix is given."""
    if out_prefix:
        path = f"{out_prefix}.{kind}.json"
        atomic_write_chunks(path, chunks)
        print(f"{summary()} out={path}")
    else:
        sys.stdout.writelines(chunks)


def cmd_gen(args: argparse.Namespace) -> int:
    target = random_positive_target(args.nx, args.ny, args.seed, args.conc)
    save_joint(args.out, target.joint)
    print(
        f"wrote {args.out} nx={args.nx} ny={args.ny} "
        f"min_entry={target.joint.min_entry!r} "
        f"strictly_positive={str(target.strictly_positive).lower()}"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    target = _resolve_target(args)
    p0 = _resolve_p0(args.p0, target)
    trace = run(p0, target, max_half_steps=args.max_steps, eps=args.eps, retain=_parse_retain(args.retain))

    out_note = ""
    if args.out_prefix:
        path = f"{args.out_prefix}.trace.{args.format}"
        atomic_write_chunks(path, (trace_csv_chunks if args.format == "csv" else trace_json_chunks)(trace))
        out_note = f" out={path}"

    records = trace.records
    print(
        f"stop_reason={trace.stop_reason.value} half_steps={trace.last_t} "
        f"final_d={encode(records.d_to_target[-1])} final_tv={encode(records.tv_to_target[-1])}{out_note}"
    )
    _require_finite_start(trace)
    return EXIT_OK if trace.converged else EXIT_CHECK_FAILURE


def _parse_checks(spec: str) -> tuple[str, ...]:
    if spec == "all":
        return DEFAULT_CHECKS
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    if not names:
        raise DistributionError("--checks wants a comma-separated list or 'all'")
    validate_checks(names)
    return names


def _parse_selection(args: argparse.Namespace, retain: RetainPolicy) -> Callable[[DATrace], Iterable[ReportBlock]]:
    """Parse --checks and vet --retain, --t/--n and --max-steps against them,
    so a bad selection is refused before the trace is built; return the
    evaluation that turns the finished trace into its report blocks."""
    checks = _parse_checks(args.checks)
    if retain.kind == "none" and args.t is None:
        blocked = [c for c in checks if c in SWEEP_NEEDS_HISTORY]
        if blocked:
            raise StateNotRetained(
                f"{', '.join(blocked)} cannot run under --retain none, which keeps only the final state"
            )
    if args.t is None:
        if args.n is not None:
            raise DistributionError("--n needs --t: it sets the step count of the single check instance")
        return lambda trace: verification_table(trace, checks)
    if len(checks) != 1:
        raise DistributionError("--t needs exactly one check selected via --checks")
    name = checks[0]
    if name == "cauchy":
        raise DistributionError("cauchy sweeps retained times; it does not take --t")
    if name not in ("lemma1", "lemma2", "lemma3", "lsc"):
        raise DistributionError(f"--t applies to lemma1, lemma2, lemma3, or lsc, not {name!r}")
    t, n = args.t, args.n
    if name == "lemma1":
        if n is not None:
            raise DistributionError("lemma1 checks one half-step; it does not take --n")
        evaluate = lambda trace: _gather([lemma1_check(trace, t)])
    elif name == "lsc":
        # without --n, the horizon is the steps left to the final state; past
        # that state it is 0, so the missing state at t is refused
        evaluate = lambda trace: _gather([lsc_gap(trace, t, max(trace.last_t - t, 0) if n is None else n)])
    else:
        if n is None:
            raise DistributionError(f"{name} with --t also needs --n")
        check = lemma2_check if name == "lemma2" else lemma3_check
        evaluate = lambda trace: _gather([check(trace, t, n)])
    *earlier, latest = validate_instance(name, t, n)
    if latest > args.max_steps:
        raise StateNotRetained(f"{name} reads the state at t={latest}, past --max-steps {args.max_steps}")
    # an earlier state is never the final one, the only state every policy keeps
    for s in earlier:
        if not retain.keeps(s):
            raise StateNotRetained(f"{name} reads the state at t={s}, which --retain {args.retain} does not keep")
    return evaluate


def cmd_verify(args: argparse.Namespace) -> int:
    retain = _parse_retain(args.retain)
    evaluate = _parse_selection(args, retain)
    target = _resolve_target(args)
    p0 = _resolve_p0(args.p0, target)
    trace = run(p0, target, max_half_steps=args.max_steps, eps=args.eps, retain=retain)
    _require_finite_start(trace)

    # every refusal comes before any output; the blocks are written as the
    # families make them, and the summary is folded as they pass
    summary: dict = {}
    _emit(
        args.out_prefix,
        "verify",
        verification_chunks(evaluate(trace), summary),
        lambda: f"checks_run={summary['checks_run']} passes={summary['passes']} failures={summary['failures']}",
    )
    return EXIT_OK if summary["failures"] == 0 else EXIT_CHECK_FAILURE


def _parse_times(spec: str) -> list[int]:
    try:
        times = sorted({int(s) for s in spec.split(",") if s.strip() != ""})
    except ValueError:
        raise DistributionError(f"--times wants comma-separated integers, got {spec!r}") from None
    if not times or times[0] < 0:
        raise DistributionError(f"--times wants nonnegative integers, got {spec!r}")
    return times


def cmd_sample(args: argparse.Namespace) -> int:
    target = _resolve_target(args)
    p0 = _resolve_p0(args.p0, target)
    times = _parse_times(args.times)
    half_steps = max(times) if args.half_steps is None else args.half_steps
    if half_steps < max(times):
        raise DistributionError(
            f"--half-steps {half_steps} does not cover the latest requested time {max(times)}"
        )

    budget = _effective_budget(args.budget)
    check_chain_request(args.replicas, half_steps, args.seed, budget)

    trace = run(
        p0,
        target,
        max_half_steps=max(half_steps, 1),
        eps=1e-300,
        retain=RetainPolicy.all(),
    )
    _require_finite_start(trace)

    draws = run_chains(
        target,
        p0,
        replicas=args.replicas,
        half_steps=half_steps,
        seed=args.seed,
        budget=budget,
    )
    if args.draws_out:
        atomic_write_chunks(args.draws_out, draws_csv_blocks(draws))

    report = consistency_report(draws, trace, times, clamp_to_converged_tail=True)
    _emit(
        args.out_prefix,
        "consistency",
        (json.dumps(report, indent=1) + "\n",),
        lambda: f"replicas={args.replicas} half_steps={half_steps} "
        f"all_within_bound={str(report['all_within_bound']).lower()}",
    )
    return EXIT_OK if report["all_within_bound"] else EXIT_CHECK_FAILURE


def _add_target_and_p0_flags(p: argparse.ArgumentParser, eps_default: float | None = None) -> None:
    """The target and p0 flags and --out-prefix; with an eps default, also
    the flags of the run that builds the trace."""
    p.add_argument("--target", help="path to a target joint density JSON file")
    p.add_argument("--gen", help="generate the target: nx,ny,seed[,conc]")
    p.add_argument(
        "--p0",
        default="uniform",
        help="starting density: uniform | degenerate:i,j | random:seed | file:path",
    )
    if eps_default is not None:
        p.add_argument("--eps", type=float, default=eps_default, help="convergence threshold on divergence")
        p.add_argument("--max-steps", type=int, default=MAX_STEPS_DEFAULT, help="half-step budget")
        p.add_argument("--retain", default="all", help="state retention: all | none | thin:k")
    p.add_argument("--out-prefix", help="write outputs under this path prefix")


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daflow",
        description="Exact density evolution, certification, and sampling for "
        "two-component conditional resampling on finite grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random strictly positive target")
    p_gen.add_argument("--nx", type=int, required=True)
    p_gen.add_argument("--ny", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--conc", type=float, default=1.0, help="gamma shape; larger is flatter")
    p_gen.add_argument("--out", required=True, help="output JSON path")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="iterate the recursion and export the trace")
    _add_target_and_p0_flags(p_run, RUN_EPS_DEFAULT)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="certify the convergence argument on a trace")
    _add_target_and_p0_flags(p_verify, VERIFY_EPS_DEFAULT)
    p_verify.add_argument(
        "--checks",
        default="all",
        help=f"comma-separated subset of {','.join(DEFAULT_CHECKS)}, or 'all'",
    )
    p_verify.add_argument("--t", type=int, help="run a single check instance at this time")
    p_verify.add_argument("--n", type=int, help="step count for the single check instance")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="simulate chains and compare to exact iterates")
    _add_target_and_p0_flags(p_sample)
    p_sample.add_argument("--replicas", type=int, default=100_000)
    p_sample.add_argument("--seed", type=int, default=0, help="chain seed")
    p_sample.add_argument("--times", default="0,2,20", help="comparison times, comma-separated")
    p_sample.add_argument("--half-steps", type=int, help="simulate this many half-steps")
    p_sample.add_argument("--budget", type=int, help="cap on replicas * half_steps")
    p_sample.add_argument("--draws-out", help="also write every draw as CSV here")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except PositivityViolation as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (DAError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        # a request too large for this host is a configuration error, not a
        # failed check
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
