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
import sys
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
# Members are scored in blocks of at most this many numbers per op output,
# so that memory stays flat however many pairs or samples there are.
BLOCK_NUMBERS = 2**15


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


def _scores(score, n: int, size: int) -> np.ndarray:
    """Residuals of n members whose terms hold ``size`` numbers each, by
    ``score(block)`` on slices of at most BLOCK_NUMBERS numbers.  Nan and inf
    score inf, and a block that raises an ``ArithmeticError`` is scored again
    member by member, so only the members that break down score inf."""
    out = np.empty(n)
    step = max(1, BLOCK_NUMBERS // size)
    for start in range(0, n, step):
        block = slice(start, min(start + step, n))
        try:
            out[block] = score(block)
        except ArithmeticError:
            for i in range(block.start, block.stop):
                try:
                    out[i] = score(slice(i, i + 1))[0]
                except ArithmeticError:
                    out[i] = math.inf
    return np.where(np.isfinite(out), out, math.inf)


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
    is scored by `_scores` in blocks of samples (one block at the usual
    sample counts), with one op call per term and block.
    """
    samples = _check_int(samples, "samples", 1)
    tolerance = r.default_tolerance if tol is None else _check_real(tol, "tol", allow_zero=True)
    rng = np.random.default_rng(seed)
    draws = [(r.sample(rng), r.sample(rng), r.sample(rng),
              *rng.uniform(-PARAM_RANGE, PARAM_RANGE, 2)) for _ in range(samples)]
    batch = [np.array(column) for column in zip(*draws)]
    params = {"s": batch[3].tolist(), "t": batch[4].tolist()}  # as the worst cases name them
    if not r.family:  # a fixed operation ignores its parameter: pass 0
        batch[3] = batch[4] = np.zeros(samples)

    reports = []
    for name, (term, keys) in _axiom_terms(r).items():
        res = _scores(lambda k: term(*(a[k] for a in batch)), samples, batch[0][0].size)
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


def _noether_scorer(r: Realization, mode, t_samples, t_max, tol):
    """Check the arguments of `noether_check` and return its verdicts as a
    function of pairs (xs[k], ys[k]), each direction scored by `_scores`."""
    if not r.family:
        raise ValueError(f"{r.name} has no flow to test for fixing")
    tol = _check_real(tol, "tol", allow_zero=True)
    if mode == "sampled":
        t_max = _check_real(t_max, "t_max")
        if t_max > sys.float_info.max / 2:  # the grid spans 2 t_max
            raise ValueError(f"t_max must be at most {sys.float_info.max / 2!r}, got {t_max!r}")
        grid = np.linspace(-t_max, t_max, _check_int(t_samples, "t_samples", 2))
        method, size = "sampled", grid.size

        def residual(u, v):  # each pair on the whole grid; a nan or inf distance scores inf
            return np.max(r.metric(r.op(u[:, None], grid, v[:, None]), v[:, None]), axis=-1)
    elif mode == "bracket":
        if r.analytic_bracket is None:
            raise ValueError(f"{r.name} has no analytic bracket")
        method, size = "bracket-criterion", 1

        def residual(u, v):
            return r.metric(r.analytic_bracket(u, v), 0.0)
    else:
        raise ValueError(f"mode must be 'sampled' or 'bracket', got {mode!r}")

    def verdicts(xs, ys) -> list:
        sx, sy = np.array(xs), np.array(ys)
        res_xy = _scores(lambda k: residual(sx[k], sy[k]), len(xs), size * sx[0].size).tolist()
        res_yx = _scores(lambda k: residual(sy[k], sx[k]), len(xs), size * sx[0].size).tolist()
        return [NoetherVerdict(x, y, a <= tol, b <= tol, (a <= tol) == (b <= tol), method,
                               {"x_fixes_y": a, "y_fixes_x": b})
                for x, y, a, b in zip(xs, ys, res_xy, res_yx)]

    return verdicts


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
    return _noether_scorer(r, mode, t_samples, t_max, tol)([x], [y])[0]


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
    the sampled verdicts against the bracket criterion on every pair.  All
    pairs are scored together, one op call per direction and block of pairs.
    """
    pairs = _check_int(pairs, "pairs", 1)
    sampled = _noether_scorer(r, "sampled", t_samples, t_max, tol)
    rng = np.random.default_rng(seed)
    # The x = x control, then the pairs (x, y), in the order they are drawn.
    draws = [r.sample(rng) for _ in range(2 * pairs + 1)]
    xs, ys = draws[:1] + draws[1::2], draws[:1] + draws[2::2]
    control, *verdicts = sampled(xs, ys)

    modes_agree = None
    if r.analytic_bracket is not None:
        brackets = _noether_scorer(r, "bracket", t_samples, t_max, tol)(xs[1:], ys[1:])
        fixes = [[(v.x_fixes_y, v.y_fixes_x) for v in vs] for vs in (verdicts, brackets)]
        modes_agree = fixes[0] == fixes[1]

    bad = [v for v in verdicts if not v.consistent]
    return NoetherSummary(
        realization=r.name,
        pairs=pairs,
        inconsistent_count=len(bad),
        first_inconsistent=bad[0] if bad else None,
        modes_agree=modes_agree,
        control_consistent=control.consistent and control.x_fixes_y,
        verdicts=tuple(verdicts),
    )
