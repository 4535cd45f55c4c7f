"""Numerical certification of the convergence argument.

Each check evaluates one identity or inequality that the convergence proof
of the alternating recursion rests on, directly on the iterates of a
finished trace:

  - the per-step projection identity
    D(p_t || target) = D(p_t || p_(t+1)) + D(p_(t+1) || target);
  - the two-regime comparison between D(p_t || p_(t+n)) and its neighbours:
    an inequality for even n, an exact three-term identity for odd n;
  - the telescoped bound D(p_t || p_(t+n)) <= D(p_t || target) -
    D(p_(t+n) || target);
  - the Cauchy bound (1/2) V(p_t, p_k)^2 <= |D(p_t || target) -
    D(p_k || target)|, which makes the iterates a Cauchy sequence in L1;
  - a finite-horizon proxy for the lower-semicontinuity step
    liminf_n D(p_t || p_(t+n)) >= D(p_t || target);
  - reconstruction of a joint from its two conditional kernels, including a
    compatibility residual that flags conditional pairs not arising from any
    single joint;
  - detailed balance of the two induced single-coordinate Markov kernels.

Checks consume retained states only and never recompute iterates: the
engine stays the single source of truth, and a missing state is reported as
`StateNotRetained` rather than silently filled in.

The pairwise families are evaluated as rows. lemma3's D(p_t || p_k) and
cauchy's V(p_t, p_k) are formed for one t against a block of stacked later
densities in single NumPy operations, with one correctly rounded sum per
pair, so every value equals `relative_entropy` or `total_variation` on that
pair exactly and the JSON output is the same as pair by pair. A block holds
at most a fixed number of values, whatever the number of retained times.
A sweep evaluates D(p_t || target) once per time and lemma1, lemma3 and lsc
share it. The lemma3 grid still covers every pair of retained times, so its
cost is O(T^2) in their number T.

Every check returns a :class:`LemmaReport`; identities pass when the
absolute residual is at most the tolerance, inequalities when the slack is
no lower than minus the tolerance.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._fsio import dumps_indent1
from ._numeric import readonly, stable_sum
from .dist import (
    Axis,
    ConditionalKernel,
    Direction,
    JointDensity,
    MarginalDensity,
    Target,
    compose,
)
from .engine import DATrace
from .errors import (
    DimensionMismatch,
    DistributionError,
    NotConverged,
    StateNotRetained,
    TargetNotPositive,
    ZeroConditional,
)
from .metrics import (
    ExtReal,
    _l1_rows,
    _rel_entropy_rows,
    encode,
    relative_entropy,
    total_variation,
)

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-10
BALANCE_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
LSC_FLOOR = 1e-6
INCOMPATIBILITY_THRESHOLD = 0.01


class CheckName(enum.Enum):
    LEMMA1 = "Lemma1"
    LEMMA2_EVEN = "Lemma2Even"
    LEMMA2_ODD = "Lemma2Odd"
    LEMMA3 = "Lemma3"
    CAUCHY = "Cauchy"
    LSC = "LSC"
    DETAILED_BALANCE = "DetailedBalance"
    RECONSTRUCTION = "Reconstruction"


# identity checks compare |residual| to the tolerance; inequality checks
# require slack >= -tolerance
_CHECK_KIND = {
    CheckName.LEMMA1: "identity",
    CheckName.LEMMA2_EVEN: "inequality",
    CheckName.LEMMA2_ODD: "identity",
    CheckName.LEMMA3: "inequality",
    CheckName.CAUCHY: "inequality",
    CheckName.LSC: "identity",
    CheckName.DETAILED_BALANCE: "identity",
    CheckName.RECONSTRUCTION: "identity",
}


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one check instance.

    `lhs` and `rhs` are the two sides of the certified relation as evaluated,
    `residual_or_slack` the comparison summary (absolute defect for
    identities, signed slack for inequalities), and `passed` the verdict at
    `tolerance`. `t` and `n` locate the instance on the trace; target-level
    checks carry t=0 and n=None.
    """

    name: CheckName
    t: int
    n: int | None
    lhs: ExtReal
    rhs: ExtReal
    residual_or_slack: float
    passed: bool
    tolerance: float
    note: str = ""

    def __post_init__(self) -> None:
        if math.isnan(self.residual_or_slack):
            raise DistributionError("report residual must not be NaN")
        if self.passed != _verdict(self.name, self.residual_or_slack, self.tolerance):
            raise DistributionError(
                f"{self.name.value} report verdict {self.passed} contradicts "
                f"residual {self.residual_or_slack!r} at tolerance {self.tolerance!r}"
            )


def _verdict(name: CheckName, value: float, tolerance: float) -> bool:
    if _CHECK_KIND[name] == "identity":
        return abs(value) <= tolerance
    return value >= -tolerance


def _report(
    name: CheckName,
    t: int,
    n: int | None,
    lhs: ExtReal,
    rhs: ExtReal,
    value: float,
    tolerance: float,
    note: str = "",
) -> LemmaReport:
    return LemmaReport(name, t, n, lhs, rhs, value, _verdict(name, value, tolerance), tolerance, note)


def _density(trace: DATrace, t: int) -> JointDensity:
    return trace.state_at(t).density


class _ToTarget(dict):
    """D(p_t || target) on the joint, keyed by t and computed on first use,
    so a sweep evaluates it once per time whichever families read it."""

    def __init__(self, trace: DATrace) -> None:
        super().__init__()
        self._trace = trace

    def __missing__(self, t: int) -> ExtReal:
        d = self[t] = relative_entropy(_density(self._trace, t), self._trace.target.joint)
        return d


# the pairwise sweeps stack later densities at most this many values at a
# time (512 KiB of float64), whatever the number of retained times
_BLOCK_VALUES = 1 << 16


def _stacked_rows(
    rows: Callable[[np.ndarray, np.ndarray], list], p: np.ndarray, qs: list[np.ndarray]
) -> list:
    """rows(p, stack) over the weight arrays qs in order, stacked in blocks of
    at most _BLOCK_VALUES values: one value per q."""
    per_block = max(1, _BLOCK_VALUES // p.size)
    out = []
    for lo in range(0, len(qs), per_block):
        out.extend(rows(p, np.stack(qs[lo : lo + per_block])))
    return out


def _identity_value(lhs: ExtReal, rhs: ExtReal) -> tuple[float, str]:
    """Residual of an extended-real identity lhs = rhs.

    Two infinite sides agree vacuously (residual 0); one infinite side is an
    unconditional failure (residual +inf); two finite sides compare
    numerically.
    """
    if not lhs.is_finite and not rhs.is_finite:
        return 0.0, "both sides infinite; identity holds vacuously"
    if lhs.is_finite != rhs.is_finite:
        return math.inf, "exactly one side infinite"
    return abs(lhs.value - rhs.value), ""


def lemma1_check(trace: DATrace, t: int) -> LemmaReport:
    """Certify the projection identity at step t:
    D(p_t || target) = D(p_t || p_(t+1)) + D(p_(t+1) || target)."""
    if t < 0:
        raise DistributionError(f"lemma1_check needs t >= 0, got {t}")
    return _lemma1(trace, t, _ToTarget(trace))


def _lemma1(trace: DATrace, t: int, d: _ToTarget) -> LemmaReport:
    p_t = _density(trace, t)
    p_next = _density(trace, t + 1)
    lhs = d[t]
    rhs = relative_entropy(p_t, p_next) + d[t + 1]
    value, note = _identity_value(lhs, rhs)
    return _report(CheckName.LEMMA1, t, None, lhs, rhs, value, IDENTITY_TOL, note)


def lemma2_check(trace: DATrace, t: int, n: int) -> LemmaReport:
    """Certify the n-step comparison at t >= 1.

    Even n: D(p_t || p_(t+n)) <= D(p_t || p_(t+n-1)), reported as slack.
    Odd n: the identity
    D(p_t || p_(t+n)) = D(p_t || p_(t+1)) + D(p_(t+1) || p_(t+n)).
    """
    if t < 1 or n < 1:
        raise DistributionError(f"lemma2_check needs t >= 1 and n >= 1, got t={t}, n={n}")
    p_t = _density(trace, t)
    p_tn = _density(trace, t + n)
    if n % 2 == 0:
        lhs = relative_entropy(p_t, p_tn)
        rhs = relative_entropy(p_t, _density(trace, t + n - 1))
        if not lhs.is_finite and not rhs.is_finite:
            return _report(
                CheckName.LEMMA2_EVEN, t, n, lhs, rhs, 0.0, INEQUALITY_TOL,
                "both sides infinite; inequality holds vacuously",
            )
        slack = rhs.value - lhs.value
        return _report(CheckName.LEMMA2_EVEN, t, n, lhs, rhs, slack, INEQUALITY_TOL)
    p_t1 = _density(trace, t + 1)
    lhs = relative_entropy(p_t, p_tn)
    rhs = relative_entropy(p_t, p_t1) + relative_entropy(p_t1, p_tn)
    value, note = _identity_value(lhs, rhs)
    return _report(CheckName.LEMMA2_ODD, t, n, lhs, rhs, value, IDENTITY_TOL, note)


def lemma3_check(trace: DATrace, t: int, n: int) -> LemmaReport:
    """Certify the telescoped bound at t >= 1, n >= 0:
    D(p_t || p_(t+n)) <= D(p_t || target) - D(p_(t+n) || target)."""
    if t < 1 or n < 0:
        raise DistributionError(f"lemma3_check needs t >= 1 and n >= 0, got t={t}, n={n}")
    return _lemma3_row(trace, t, [t + n], _ToTarget(trace))[0]


def _lemma3_row(trace: DATrace, t: int, later: list[int], d: _ToTarget) -> list[LemmaReport]:
    """The lemma3 reports at t against each time k in `later`, with the
    divergences D(p_t || p_k) evaluated as one row."""
    p_t = _density(trace, t).w
    p_later = [_density(trace, k).w for k in later]
    if not (d[t].is_finite and all(d[k].is_finite for k in later)):
        raise DistributionError("lemma3_check needs finite divergences to the target")
    reports = []
    for k, lhs in zip(later, _stacked_rows(_rel_entropy_rows, p_t, p_later)):
        rhs = ExtReal.finite(d[t].value - d[k].value)
        if not lhs.is_finite:
            reports.append(_report(
                CheckName.LEMMA3, t, k - t, lhs, rhs, -math.inf, INEQUALITY_TOL,
                "left side infinite with finite right side",
            ))
            continue
        slack = rhs.value - lhs.value
        reports.append(_report(CheckName.LEMMA3, t, k - t, lhs, rhs, slack, INEQUALITY_TOL))
    return reports


def cauchy_matrix(trace: DATrace, times: list[int]) -> np.ndarray:
    """Pairwise L1 distances V(p_t, p_k) for the listed retained times, each
    row of later times evaluated as one stack."""
    weights = [_density(trace, t).w for t in times]
    m = len(times)
    out = np.zeros((m, m))
    for a in range(m - 1):
        row = _stacked_rows(_l1_rows, weights[a], weights[a + 1 :])
        out[a, a + 1 :] = row
        out[a + 1 :, a] = row
    return readonly(out)


def cauchy_check(trace: DATrace, times: list[int] | None = None) -> LemmaReport:
    """Certify (1/2) V(p_t, p_k)^2 <= |D(p_t || target) - D(p_k || target)|
    over every pair of listed times, reporting the tightest pair.

    Times default to all retained times from t=1 on; the bound is proved for
    iterates, not the arbitrary starting density, so t=0 never participates.
    """
    if times is None:
        times = [t for t in trace.retained_times if t >= 1]
    if len(times) < 2:
        raise StateNotRetained("cauchy_check needs at least two retained times with t >= 1")
    if min(times) < 1:
        raise DistributionError("cauchy_check applies to iterate times t >= 1 only")
    v = cauchy_matrix(trace, times)
    d = np.array([trace.record_at(t).d_to_target.value for t in times])
    worst = math.inf
    worst_pair = (times[0], times[1])
    worst_sides = (0.0, 0.0)
    # one row of later times at a time, keeping a row's first smallest slack
    # only when it is strictly below the best so far: the pair a strict `<`
    # scan over every pair in row-major order picks, with O(T) extra memory;
    # a NaN slack (inf - inf divergences) is never the tightest
    for a in range(len(times) - 1):
        vab = v[a, a + 1 :]
        lhs = 0.5 * vab * vab
        with np.errstate(invalid="ignore"):
            rhs = np.abs(d[a] - d[a + 1 :])
        slack = rhs - lhs
        slack[np.isnan(slack)] = math.inf
        j = int(np.argmin(slack))
        if slack[j] < worst:
            worst = float(slack[j])
            worst_pair = (times[a], times[a + 1 + j])
            worst_sides = (float(lhs[j]), float(rhs[j]))
    return _report(
        CheckName.CAUCHY,
        worst_pair[0],
        worst_pair[1] - worst_pair[0],
        ExtReal.finite(worst_sides[0]),
        ExtReal.finite(worst_sides[1]),
        worst,
        INEQUALITY_TOL,
        f"tightest pair (t={worst_pair[0]}, k={worst_pair[1]}) of {len(times)} times",
    )


def lsc_gap(trace: DATrace, t: int, horizon: int) -> LemmaReport:
    """Finite-horizon proxy for the lower-semicontinuity step
    liminf_n D(p_t || p_(t+n)) >= D(p_t || target).

    Evaluates gap = D(p_t || p_(t+horizon)) - D(p_t || target) on a converged
    trace. As the horizon state approaches the target the gap must shrink to
    zero, so the verdict uses the adaptive tolerance
    max(1e-6, 10 * D(p_(t+horizon) || target)). A liminf cannot be certified
    by finite computation; this check is labeled a proxy in its note.

    The gap scales with the L1 distance of the horizon state to the target,
    roughly sqrt(2 * D(p_(t+horizon) || target)), so a trace converged only
    to eps = 1e-10 can carry a legitimate gap above the 1e-6 floor. Run the
    trace to eps around 1e-16 before asking for this check.
    """
    if horizon < 0:
        raise DistributionError(f"lsc horizon must be >= 0, got {horizon}")
    if not trace.converged:
        raise NotConverged("lsc_gap needs a converged trace")
    return _lsc(trace, t, horizon, _ToTarget(trace))


def _lsc(trace: DATrace, t: int, horizon: int, d: _ToTarget) -> LemmaReport:
    p_t = _density(trace, t)
    p_h = _density(trace, t + horizon)
    lhs = relative_entropy(p_t, p_h)
    rhs = d[t]
    d_h = trace.record_at(t + horizon).d_to_target.value
    tolerance = max(LSC_FLOOR, 10.0 * d_h)
    if not (lhs.is_finite and rhs.is_finite):
        value, note = _identity_value(lhs, rhs)
        return _report(CheckName.LSC, t, horizon, lhs, rhs, value, tolerance, note)
    gap = lhs.value - rhs.value
    return _report(
        CheckName.LSC, t, horizon, lhs, rhs, gap, tolerance,
        "finite-horizon proxy for a liminf bound",
    )


def reconstruct_from_conditionals(
    cx: ConditionalKernel, cy: ConditionalKernel
) -> tuple[JointDensity, float]:
    """Rebuild a joint from its two conditional kernels.

    For a reference row x0, the ratio cy(y | x0) / cx(x0 | y) is the Y
    marginal up to normalization; composing it with cx yields the joint.
    Returns the reconstruction at x0 = 0 together with a compatibility
    residual: the largest L1 distance between reconstructions across all
    reference choices. The residual sits at rounding level when the kernels
    come from one joint and is substantially positive when they do not, so
    it doubles as an incompatibility detector.

    Strict positivity of both kernels licenses the division; any zero entry
    raises :class:`ZeroConditional`.
    """
    if cx.direction is not Direction.X_GIVEN_Y or cy.direction is not Direction.Y_GIVEN_X:
        raise DimensionMismatch("reconstruction needs an X-given-Y and a Y-given-X kernel")
    if cx.shape != cy.shape:
        raise DimensionMismatch(f"kernel shapes {cx.shape} and {cy.shape} differ")
    if cx.k.min() <= 0.0 or cy.k.min() <= 0.0:
        raise ZeroConditional("reconstruction requires strictly positive kernels")

    def rebuilt(x0: int) -> JointDensity:
        u = cy.k[x0, :] / cx.k[x0, :]
        return compose(MarginalDensity(Axis.Y, u / stable_sum(u)), cx)

    # each later reconstruction is compared with the first and dropped, so
    # at most two joints are alive at once
    first = rebuilt(0)
    residual = 0.0
    for x0 in range(1, cx.shape[0]):
        residual = max(residual, total_variation(rebuilt(x0), first))
    return first, residual


def reconstruction_check(target: Target) -> LemmaReport:
    """Certify that a target's own conditionals determine it: the rebuilt
    joint matches within L1 1e-10 and is invariant to the reference row."""
    rebuilt, compat = reconstruct_from_conditionals(
        target.cond_x_given_y, target.cond_y_given_x
    )
    tv = total_variation(rebuilt, target.joint)
    value = max(tv, compat)
    return _report(
        CheckName.RECONSTRUCTION,
        0,
        None,
        ExtReal.finite(tv),
        ExtReal.finite(compat),
        value,
        RECONSTRUCTION_TOL,
        "lhs: L1 to the original joint; rhs: reference-choice spread",
    )


def induced_marginal_kernel(target: Target, axis: Axis) -> np.ndarray:
    """Transition matrix of one coordinate observed every full sweep.

    For the X coordinate, K[x, x'] = sum_y cond_y_given_x(y | x) *
    cond_x_given_y(x' | y); symmetrically for Y. Rows sum to 1 within 1e-12.
    """
    if not target.strictly_positive:
        raise TargetNotPositive("induced kernels need a strictly positive target")
    k_xgy = target.cond_x_given_y.k
    k_ygx = target.cond_y_given_x.k
    if axis is Axis.X:
        kernel = k_ygx @ k_xgy.T
    else:
        kernel = k_xgy.T @ k_ygx
    return readonly(kernel)


def detailed_balance_residual(target: Target, axis: Axis) -> float:
    """Largest violation of detailed balance for the induced kernel:
    max over (s, s') of |marg(s) K[s, s'] - marg(s') K[s', s]|.

    Zero means the single-coordinate chain is reversible with the target
    marginal as its stationary law; the contract is residual <= 1e-12.
    """
    kernel = induced_marginal_kernel(target, axis)
    marg = target.marg_x.v if axis is Axis.X else target.marg_y.v
    flow = marg[:, None] * kernel
    return float(np.abs(flow - flow.T).max())


def balance_check(target: Target, axis: Axis) -> LemmaReport:
    residual = detailed_balance_residual(target, axis)
    return _report(
        CheckName.DETAILED_BALANCE,
        0,
        None,
        ExtReal.finite(residual),
        ExtReal.finite(0.0),
        residual,
        BALANCE_TOL,
        f"axis={axis.value}",
    )


# --- the full sweep -----------------------------------------------------------

DEFAULT_CHECKS = ("lemma1", "lemma2", "lemma3", "cauchy", "lsc", "balance", "reconstruction")

LEMMA2_DEFAULT_TS = (1, 2, 3)
LEMMA2_DEFAULT_NS = tuple(range(1, 9))


def validate_checks(checks: tuple[str, ...]) -> None:
    """Reject check names outside DEFAULT_CHECKS before any work is done."""
    unknown = [c for c in checks if c not in DEFAULT_CHECKS]
    if unknown:
        raise DistributionError(f"unknown checks {unknown}; valid: {list(DEFAULT_CHECKS)}")


def run_verification(trace: DATrace, checks: tuple[str, ...] = DEFAULT_CHECKS) -> list[LemmaReport]:
    """Run the selected checks over a trace, adapting to its retained states.

    Instance grids (which t, which n) follow the retained times; a selected
    check with no runnable instance raises :class:`StateNotRetained`, since
    a silent skip would turn a config mistake into a vacuous pass. An
    unconverged trace is refused up front when lsc is selected, before any
    other family spends its work.
    """
    validate_checks(checks)
    if "lsc" in checks and not trace.converged:
        raise NotConverged("lsc check needs a converged trace")
    retained = set(trace.retained_times)
    last = trace.last_t
    reports: list[LemmaReport] = []
    d = _ToTarget(trace)

    for check in checks:
        if check == "lemma1":
            instances = [t for t in sorted(retained) if t + 1 in retained]
            if not instances:
                raise StateNotRetained("lemma1 needs a retained consecutive pair")
            reports.extend(_lemma1(trace, t, d) for t in instances)
        elif check == "lemma2":
            ran = False
            for t in LEMMA2_DEFAULT_TS:
                for n in LEMMA2_DEFAULT_NS:
                    needed = {t, t + n} | ({t + n - 1} if n % 2 == 0 else {t + 1})
                    if t + n > last or not needed <= retained:
                        continue
                    reports.append(lemma2_check(trace, t, n))
                    ran = True
            if not ran:
                raise StateNotRetained("lemma2 found no runnable (t, n) instance")
        elif check == "lemma3":
            times = [t for t in sorted(retained) if t >= 1]
            if len(times) < 2:
                raise StateNotRetained("lemma3 needs two retained times with t >= 1")
            for i, t in enumerate(times[:-1]):
                reports.extend(_lemma3_row(trace, t, times[i + 1 :], d))
        elif check == "cauchy":
            reports.append(cauchy_check(trace))
        elif check == "lsc":
            anchors = [t for t in sorted(retained) if t >= 1 and t < last]
            if not anchors:
                raise StateNotRetained("lsc needs a retained time t >= 1 before the final state")
            t = anchors[0]
            reports.append(_lsc(trace, t, last - t, d))
        elif check == "balance":
            reports.append(balance_check(trace.target, Axis.X))
            reports.append(balance_check(trace.target, Axis.Y))
        elif check == "reconstruction":
            reports.append(reconstruction_check(trace.target))
    return reports


def summarize(reports: list[LemmaReport]) -> dict:
    """Aggregate counts and the worst residual or slack per check name.

    The worst values are in exported form (see `metrics.encode`), so an
    infinite residual or slack appears as "inf" or "-inf", never as a float
    infinity that strict JSON cannot carry.
    """
    worst: dict[str, float] = {}
    for r in reports:
        key = r.name.value
        if _CHECK_KIND[r.name] == "identity":
            candidate = abs(r.residual_or_slack)
            worst[key] = max(worst.get(key, 0.0), candidate)
        else:
            worst[key] = min(worst.get(key, math.inf), r.residual_or_slack)
    return {
        "checks_run": len(reports),
        "passes": sum(r.passed for r in reports),
        "failures": sum(not r.passed for r in reports),
        "worst_residual_by_lemma": {k: encode(v) for k, v in worst.items()},
    }


def report_to_json_dict(report: LemmaReport) -> dict:
    return {
        "name": report.name.value,
        "t": report.t,
        "n": report.n,
        "lhs": encode(report.lhs),
        "rhs": encode(report.rhs),
        "residual_or_slack": encode(report.residual_or_slack),
        "pass": report.passed,
        "tolerance": report.tolerance,
        "note": report.note,
    }


def verification_to_json(reports: list[LemmaReport], summary: dict | None = None) -> str:
    """The reports and their summary as strict JSON.

    A caller that already holds ``summarize(reports)`` passes it as
    `summary`, so the reports are not walked a second time.
    """
    doc = {
        "reports": [report_to_json_dict(r) for r in reports],
        "summary": summarize(reports) if summary is None else summary,
    }
    return dumps_indent1(doc) + "\n"
