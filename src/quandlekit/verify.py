"""Numerical verification: axiom sampling, bracket recovery, flow
integration, and the fixes-each-other equivalence check.

Everything here is driven by a `Realization` record and a seed; reports are
deterministic given both.  Residuals are measured in the realization's own
metric, and a sample that overflows or raises inside the operation is scored
as an infinite residual rather than an exception.  The engines that return
points (flows and brackets) instead refuse to return a non-finite one: they
raise an ``ArithmeticError`` naming the engine and the time t.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .linalg import _check_int, _check_real, as_matrix
from .realizations import Realization

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 42
PARAM_RANGE = 3.0
NOETHER_TOL = 1e-7
NOETHER_GRID = 41
DEFAULT_STEP = 1e-4


@dataclass(frozen=True)
class AxiomReport:
    """Worst sampled deviation of one axiom, with the sample that hit it."""

    realization: str
    axiom: str
    samples: int
    max_residual: float
    worst_case: dict
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "realization": self.realization,
            "axiom": self.axiom,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "worst_case": self.worst_case,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Trajectory:
    """A sampled curve t ↦ x acting on y for time t."""

    times: tuple
    points: tuple
    realization: str
    x: Any
    y: Any

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        points = tuple(self.points)
        if len(times) != len(points):
            raise ValueError("times and points must have equal length")
        if not times:
            raise ValueError("trajectory must contain at least one point")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class NoetherVerdict:
    """Both directions of "one element's flow fixes the other" for a pair."""

    x: Any
    y: Any
    x_fixes_y: bool
    y_fixes_x: bool
    consistent: bool
    method: str
    residuals: dict

    def to_json(self, encode=None) -> dict:
        enc = encode if encode is not None else repr
        return {
            "x": enc(self.x),
            "y": enc(self.y),
            "x_fixes_y": self.x_fixes_y,
            "y_fixes_x": self.y_fixes_x,
            "consistent": self.consistent,
            "method": self.method,
            "residuals": dict(self.residuals),
        }


@dataclass(frozen=True)
class NoetherSummary:
    """Aggregate of pairwise verdicts over one realization."""

    realization: str
    pairs: int
    inconsistent_count: int
    first_inconsistent: Optional[NoetherVerdict]
    modes_agree: Optional[bool]
    control_consistent: bool
    verdicts: tuple

    @property
    def all_consistent(self) -> bool:
        return self.inconsistent_count == 0

    def to_json(self, encode=None) -> dict:
        first = None
        if self.first_inconsistent is not None:
            first = self.first_inconsistent.to_json(encode)
        return {
            "realization": self.realization,
            "pairs": self.pairs,
            "inconsistent_count": self.inconsistent_count,
            "all_consistent": self.all_consistent,
            "first_inconsistent": first,
            "modes_agree": self.modes_agree,
            "control_consistent": self.control_consistent,
        }


def _guarded(fn) -> float:
    """Score a residual computation; numerical breakdown counts as inf."""
    try:
        value = float(fn())
    except ArithmeticError:
        return math.inf
    return value if math.isfinite(value) else math.inf


def _axiom_terms(r: Realization) -> dict:
    """Axiom name -> (residual as a function of (x, y, z, s, t), the
    parameters its worst case names).  The arguments are one sample, or
    stacks of samples with arrays s, t, giving one residual per sample.
    A fixed operation gets the two terms that need no parameter, and no
    parameter names."""
    op, metric = r.op, r.metric
    terms = {
        "self-action": (
            lambda x, y, z, s, t: metric(op(x, s, op(x, t, y)), op(x, s + t, y)),
            ("s", "t"),
        ),
        "self-distributivity": (
            lambda x, y, z, s, t: metric(op(x, s, op(y, t, z)), op(op(x, s, y), t, op(x, s, z))),
            ("s", "t"),
        ),
        "idempotency": (lambda x, y, z, s, t: metric(op(x, s, x), x), ("s",)),
        "inverse-law": (lambda x, y, z, s, t: metric(op(x, -t, op(x, t, y)), y), ("t",)),
    }
    if r.family:
        return terms
    return {name: (terms[name][0], ()) for name in ("self-distributivity", "idempotency")}


def verify_axioms(
    r: Realization,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tol: Optional[float] = None,
) -> list[AxiomReport]:
    """Sample every axiom of the realization and report worst residuals.

    Family realizations get four reports (self-action, self-distributivity,
    idempotency, inverse-law); fixed-operation ones get the two axioms that
    make sense without a parameter.  Parameters s, t are uniform on
    [-3, 3]; ties in the worst case go to the earliest sample.  Each axiom
    is evaluated on all samples at once, in one op call per term; if that
    raises an ``ArithmeticError``, the axiom is evaluated again sample by
    sample, so that only the samples that break down score inf.
    """
    samples = _check_int(samples, "samples", 1)
    tolerance = r.default_tolerance if tol is None else _check_real(tol, "tol", allow_zero=True)
    rng = np.random.default_rng(seed)
    xs, ys, zs, ss, ts = [], [], [], [], []
    for _ in range(samples):
        xs.append(r.sample(rng))
        ys.append(r.sample(rng))
        zs.append(r.sample(rng))
        ss.append(float(rng.uniform(-PARAM_RANGE, PARAM_RANGE)))
        ts.append(float(rng.uniform(-PARAM_RANGE, PARAM_RANGE)))
    params = {"s": ss, "t": ts}  # as the worst cases name them
    if not r.family:  # a fixed operation ignores its parameter: pass 0
        ss = ts = [0.0] * samples
    batch = (np.stack(xs), np.stack(ys), np.stack(zs), np.array(ss), np.array(ts))

    reports = []
    for name, (term, keys) in _axiom_terms(r).items():
        try:
            res = np.asarray(term(*batch), dtype=float)
            res = np.where(np.isfinite(res), res, math.inf)
        except ArithmeticError:
            res = [_guarded(lambda: term(xs[i], ys[i], zs[i], ss[i], ts[i]))
                   for i in range(samples)]
        i = int(np.argmax(res))
        worst = float(res[i])
        reports.append(
            AxiomReport(
                realization=r.name,
                axiom=name,
                samples=samples,
                max_residual=worst,
                worst_case={"sample": i, **{k: params[k][i] for k in keys}},
                tolerance=tolerance,
                passed=worst <= tolerance,
            )
        )
    return reports


def numeric_bracket(r: Realization, x, y, h: float = DEFAULT_STEP):
    """Central-difference derivative of t ↦ x acting on y, at t = 0.

    Recovers the bracket of the realization's generators up to O(h²).
    """
    h = _check_real(h, "step h")
    if not r.family:
        raise ValueError(f"{r.name} has no time parameter to differentiate")
    if not r.vector_carrier:
        raise ValueError(f"{r.name} elements do not support difference quotients")
    try:
        with np.errstate(over="raise", invalid="raise"):
            plus, minus = r.op(x, np.array([h, -h]), y)
            quotient = (plus - minus) / (2.0 * h)
    except ArithmeticError as exc:
        raise ArithmeticError(f"numeric_bracket at t = +/-{h!r}: {exc}") from exc
    if not np.isfinite(quotient).all():
        raise ArithmeticError(f"numeric_bracket at t = +/-{h!r}: non-finite result")
    return quotient


def integrate_flow(r: Realization, x, y, t_end: float, steps: int) -> Trajectory:
    """Classical Runge–Kutta for Ẏ = [gen(x), Y] from Y(0) = y."""
    if r.generator is None:
        raise ValueError(f"{r.name} has no matrix generator to integrate")
    steps = _check_int(steps, "steps", 1)
    t_end = _check_real(t_end, "t_end")

    g, cur = as_matrix(r.generator(x)), as_matrix(y)
    if g.shape != cur.shape:
        raise ValueError(f"dimension mismatch: {g.shape[0]} vs {cur.shape[0]}")

    def field(m):
        return g @ m - m @ g

    h = t_end / steps
    times = [0.0]
    points = [cur]
    # The state starts finite, and overflow or an invalid operation raises
    # at the step it happens in, so no state is ever non-finite.
    with np.errstate(over="raise", invalid="raise"):
        for k in range(1, steps + 1):
            try:
                k1 = field(cur)
                k2 = field(cur + 0.5 * h * k1)
                k3 = field(cur + 0.5 * h * k2)
                k4 = field(cur + h * k3)
                cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            except FloatingPointError as exc:
                raise ArithmeticError(f"integrate_flow at t = {k * h!r}: {exc}") from exc
            times.append(k * h)
            points.append(cur)
    return Trajectory(tuple(times), tuple(points), r.name, x, y)


def sample_flow(r: Realization, x, y, t_end: float, steps: int) -> Trajectory:
    """Closed-form trajectory: the realization's own op on a grid, in one call."""
    if not r.family:
        raise ValueError(f"{r.name} has no time parameter to flow along")
    steps = _check_int(steps, "steps", 1)
    t_end = _check_real(t_end, "t_end")
    times = [k * t_end / steps for k in range(steps + 1)]
    with np.errstate(over="raise", invalid="raise"):
        try:
            flow = r.op(x, np.array(times[1:]), y)
        except ArithmeticError as exc:
            # One bad t fails the whole batch; name the first one.
            for t in times[1:]:
                try:
                    point = r.op(x, t, y)
                except ArithmeticError as point_exc:
                    raise ArithmeticError(f"sample_flow at t = {t!r}: {point_exc}") from exc
                if not np.isfinite(point).all():
                    raise ArithmeticError(f"sample_flow at t = {t!r}: non-finite result") from exc
            raise ArithmeticError(f"sample_flow at t in [{times[1]!r}, {t_end!r}]: {exc}") from exc
    finite = np.isfinite(flow).reshape(steps, -1).all(axis=1)
    if not finite.all():
        t = times[1 + int(np.argmin(finite))]
        raise ArithmeticError(f"sample_flow at t = {t!r}: non-finite result")
    return Trajectory(tuple(times), (y, *flow), r.name, x, y)


def write_trajectory_csv(traj: Trajectory, r: Realization, stream) -> None:
    """Emit a trajectory as CSV: header ``t,<component columns>``."""
    if r.flatten is None or r.flat_labels is None:
        raise ValueError(f"{r.name} elements have no flat CSV form")
    writer = csv.writer(stream)
    writer.writerow(["t"] + r.flat_labels(traj.points[0]))
    for t, p in zip(traj.times, traj.points):
        writer.writerow([repr(float(t))] + [repr(v) for v in r.flatten(p)])


def noether_check(
    r: Realization,
    x,
    y,
    mode: str = "sampled",
    t_samples: int = NOETHER_GRID,
    t_max: float = PARAM_RANGE,
    tol: float = NOETHER_TOL,
) -> NoetherVerdict:
    """Decide both directions of "one element's whole flow fixes the other".

    Sampled mode evaluates the flow on an evenly spaced grid of t_samples
    points in [-t_max, t_max], one op call per direction; bracket mode tests
    whether the analytic bracket vanishes (a grid-free criterion, available
    where a bracket is).
    """
    if not r.family:
        raise ValueError(f"{r.name} has no flow to test for fixing")
    tol = _check_real(tol, "tol", allow_zero=True)
    if mode == "sampled":
        t_max = _check_real(t_max, "t_max")
        grid = np.linspace(-t_max, t_max, _check_int(t_samples, "t_samples", 2))

        def direction(a, b) -> float:
            # np.max of the distances is nan or inf if any one is, and so scores inf.
            return _guarded(lambda: np.max(r.metric(r.op(a, grid, b), b)))

        res_xy = direction(x, y)
        res_yx = direction(y, x)
        method = "sampled"
    elif mode == "bracket":
        if r.analytic_bracket is None:
            raise ValueError(f"{r.name} has no analytic bracket")
        res_xy = _guarded(lambda: r.metric(r.analytic_bracket(x, y), 0.0))
        res_yx = _guarded(lambda: r.metric(r.analytic_bracket(y, x), 0.0))
        method = "bracket-criterion"
    else:
        raise ValueError(f"mode must be 'sampled' or 'bracket', got {mode!r}")

    x_fixes_y = res_xy <= tol
    y_fixes_x = res_yx <= tol
    return NoetherVerdict(
        x=x,
        y=y,
        x_fixes_y=x_fixes_y,
        y_fixes_x=y_fixes_x,
        consistent=x_fixes_y == y_fixes_x,
        method=method,
        residuals={"x_fixes_y": res_xy, "y_fixes_x": res_yx},
    )


def noether_suite(
    r: Realization,
    pairs: int = 100,
    seed: int = DEFAULT_SEED,
    t_samples: int = NOETHER_GRID,
    t_max: float = PARAM_RANGE,
    tol: float = NOETHER_TOL,
) -> NoetherSummary:
    """Run the pairwise check over seeded random pairs.

    Includes a degenerate x = x positive control (idempotency forces both
    directions true) and, where an analytic bracket exists, cross-validates
    the sampled verdicts against the bracket criterion on every pair.
    """
    pairs = _check_int(pairs, "pairs", 1)
    rng = np.random.default_rng(seed)

    control_x = r.sample(rng)
    control = noether_check(r, control_x, control_x, "sampled", t_samples, t_max, tol)
    control_consistent = control.consistent and control.x_fixes_y

    verdicts = []
    modes_agree = True if r.analytic_bracket is not None else None
    for _ in range(pairs):
        x = r.sample(rng)
        y = r.sample(rng)
        v = noether_check(r, x, y, "sampled", t_samples, t_max, tol)
        verdicts.append(v)
        if modes_agree is not None:
            b = noether_check(r, x, y, "bracket", t_samples, t_max, tol)
            if b.x_fixes_y != v.x_fixes_y or b.y_fixes_x != v.y_fixes_x:
                modes_agree = False

    bad = [v for v in verdicts if not v.consistent]
    return NoetherSummary(
        realization=r.name,
        pairs=pairs,
        inconsistent_count=len(bad),
        first_inconsistent=bad[0] if bad else None,
        modes_agree=modes_agree,
        control_consistent=control_consistent,
        verdicts=tuple(verdicts),
    )
