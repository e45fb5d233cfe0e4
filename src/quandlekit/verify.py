"""Numerical verification: axiom sampling, bracket recovery, flow
integration, and the fixes-each-other equivalence check.

Everything here is driven by a `Realization` record and a seed; reports are
deterministic given both.  Residuals are measured in the realization's own
metric, and a sample that overflows or raises inside the operation is scored
as an infinite residual rather than an exception.  The engines that return
points (flows and brackets) instead refuse to return a non-finite one: they
raise an ``ArithmeticError`` naming the engine and the time t.  One guard,
`_finite`, states that rule, and the CLI's bracket numbers follow it too.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .linalg import _check_int, _check_real, _operands
from .realizations import Realization

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 42
PARAM_RANGE = 3.0
NOETHER_TOL = 1e-7
NOETHER_GRID = 41
DEFAULT_STEP = 1e-4
DEFAULT_PAIRS = 100
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
        return {("pass" if k == "passed" else k): v for k, v in vars(self).items()}


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
        if not all(b > a for a, b in zip(times, times[1:])):
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
        return {**vars(self), "x": enc(self.x), "y": enc(self.y), "residuals": dict(self.residuals)}


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


def _draw(r: Realization, rng: np.random.Generator, n: int, k: int, p: int):
    """(first index, columns) per block of at most BLOCK_NUMBERS element numbers of n records,
    each k ``r.sample`` calls then p ``rng.uniform(-PARAM_RANGE, PARAM_RANGE)``, read in that
    order: k element columns, stacks for a ``units`` form, else tuples, and p arrays.  A scan
    form's records start where pointer doubling of record start -> next start lands, and a
    block that runs past the units read reads more; the rest of what it read is never used."""
    lo, span = -PARAM_RANGE, 2 * PARAM_RANGE
    w, finish = r.units or (None, None)
    if w is not None:  # one rng.random call per block
        step = max(1, BLOCK_NUMBERS // w)
        for start in range(0, n, step):
            u = rng.random((min(step, n - start), k * w + p))
            params = lo + span * u[:, k * w:].T
            yield start, [finish(u[:, j * w:(j + 1) * w]) for j in range(k)] + list(params)
        return
    if finish is not None:  # a scan: records are walked by their elements' ends, none in Python
        u, start = np.empty(0), 0
        while start < n:
            m = min(BLOCK_NUMBERS // 3, n - start)  # a row (tag, a, b) holds three numbers and
            u = np.concatenate([u, rng.random(max(m * (3 * k + p) - len(u), 1))])  # reads three
            end, rows = finish[0](u)  # units, unless it redraws
            ends = np.concatenate([end, [len(u) + 1] * 2])  # from the end on, past the end
            hops = [np.arange(len(ends))]  # hops[j][i]: where the j-th element from u[i] starts
            for _ in range(k):
                hops.append(ends[hops[-1]])
            after = np.minimum(hops[k] + p, len(u) + 1) if p else hops[k]  # the next record's start
            at, jump = np.zeros(1, np.intp), after
            while len(at) < m:  # pointer doubling: records [0, 2^i) start at, so [0, 2^(i+1))
                at, jump = np.concatenate([at, jump[at]]), jump[jump]
            at = at[:m]
            if after[at[-1]] <= len(u):  # else the records ran past the units read: read more
                yield start, ([rows[h[at]] for h in hops[:k]]
                              + [lo + span * u[hops[k][at] + q] for q in range(p)])
                u, start = u[after[at[-1]]:], start + m
        return
    record = [functools.partial(r.sample, rng)] * k + [lambda: lo + span * rng.random()] * p
    rows, step = [], None
    for i in range(n):
        rows.append([draw() for draw in record])
        step = step or max(1, BLOCK_NUMBERS // np.size(rows[0][0]))
        if len(rows) == step or i == n - 1:
            yield i + 1 - len(rows), list(zip(*rows))
            rows = []


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


def _residuals(r: Realization, x, y, z, s, t) -> np.ndarray:
    """Each `_axiom_terms(r)` term's residuals, one row per term, by four op calls: x acts once
    per level, on all its (time, element) pairs.  Where one raises, `_scores` scores each term."""
    op, k = r.op, 5 if r.family else 3  # a fixed operation forms only x ▷ y, x ▷ z and x ▷ x
    try:
        xsy, xsz, xsx, *xt = op(x[None], np.array([s, s, s, t, s + t][:k]),
                                np.array([y, z, x, y, y][:k]))
        xs_ytz, *xxt = op(x[None], np.array([s, s, -t][:k - 2]),
                          np.array([op(y, t, z), *xt[:1], *xt[:1]]))
        pairs = [(xs_ytz, op(xsy, t, xsz)), (xsx, x)]  # self-distributivity, idempotency
        if r.family:  # x ▷ₛ (x ▷ₜ y) = x ▷ₛ₊ₜ y first, and x ▷₋ₜ (x ▷ₜ y) = y last
            pairs = [(xxt[0], xt[1]), *pairs, (xxt[1], y)]
        res = r.metric(*map(np.array, zip(*pairs)))
    except ArithmeticError:
        res = [_scores(lambda j: term(x[j], y[j], z[j], s[j], t[j]), len(s), x[0].size)
               for term, _ in _axiom_terms(r).values()]
    return np.where(np.isfinite(res), res, math.inf)


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
    [-3, 3]; ties in the worst case go to the earliest sample.  Samples are
    drawn by `_draw` one block at a time and scored by `_residuals` in slices of
    at most BLOCK_NUMBERS numbers per op output, keeping only the worst so far.
    """
    samples = _check_int(samples, "samples", 1)
    seed = _check_int(seed, "seed", 0)
    tolerance = r.default_tolerance if tol is None else _check_real(tol, "tol", allow_zero=True)
    terms = _axiom_terms(r)
    worst = dict.fromkeys(terms, (-math.inf, None))
    for done, block in _draw(r, np.random.default_rng(seed), samples, 3, 2):
        batch = [np.asarray(column) for column in block]
        params = {"s": batch[3], "t": batch[4]}  # as the worst cases name them
        if not r.family:  # a fixed operation ignores its parameter: pass 0
            batch[3] = batch[4] = np.zeros(len(batch[3]))
        step = max(1, BLOCK_NUMBERS // (5 * batch[0][0].size))  # x acts on five stacks at once
        rows = [_residuals(r, *(a[i:i + step] for a in batch)) for i in range(0, len(batch[3]), step)]
        for (name, (_, keys)), res in zip(terms.items(), np.concatenate(rows, axis=1)):
            i = int(np.argmax(res))
            if res[i] > worst[name][0]:
                case = {"sample": done + i, **{k: float(params[k][i]) for k in keys}}
                worst[name] = (float(res[i]), case)
    return [AxiomReport(realization=r.name, axiom=name, samples=samples, max_residual=res,
                        worst_case=case, tolerance=tolerance, passed=res <= tolerance)
            for name, (res, case) in worst.items()]


def _finite(what: str, compute):
    """``compute()``, refused by an ``ArithmeticError`` naming ``what`` if it
    overflows or is not finite (a matmul need not set an FP flag)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            value = compute()
    except ArithmeticError as exc:
        raise ArithmeticError(f"{what}: {exc}") from exc
    if not np.isfinite(value).all():
        raise ArithmeticError(f"{what}: non-finite result")
    return value


def numeric_bracket(r: Realization, x, y, h: float = DEFAULT_STEP):
    """Central-difference derivative of t ↦ x acting on y, at t = 0.

    Recovers the bracket of the realization's generators up to O(h²).
    """
    h = _check_real(h, "step h")
    if h > sys.float_info.max / 2:  # the quotient divides by 2h
        raise ValueError(f"step h must be at most {sys.float_info.max / 2!r}, got {h!r}")
    if not r.family:
        raise ValueError(f"{r.name} has no time parameter to differentiate")
    if not r.vector_carrier:
        raise ValueError(f"{r.name} elements do not support difference quotients")
    return _finite(f"numeric_bracket at t = +/-{h!r}",
                   lambda: np.subtract(*r.op(x, np.array([h, -h]), y)) / (2.0 * h))


def _grid(t_end, steps) -> list:
    """The times k * t_end / steps, k = 0..steps, that both flows report, after
    checking t_end and steps and refusing a grid that overflows or collapses."""
    steps = _check_int(steps, "steps", 1)
    t_end = _check_real(t_end, "t_end")
    if math.isinf(steps * t_end):  # the grid forms k * t_end for k up to steps
        raise ValueError(f"t_end * steps overflows: t_end {t_end!r}, steps {steps}")
    times = [k * t_end / steps for k in range(steps + 1)]
    if len(set(times)) <= steps:  # a subnormal t_end / steps rounds grid times together
        raise ValueError(f"t_end {t_end!r} is too small for {steps} steps: grid times coincide")
    return times


def integrate_flow(r: Realization, x, y, t_end: float, steps: int) -> Trajectory:
    """Classical Runge–Kutta for Ẏ = [gen(x), Y] from Y(0) = y, applied as its n²×n²
    step matrix S, one vector-matrix product per step.  A step rounds relative to
    max|S|·max|y| of the point y it steps, so points may differ from 0.1.0's matrix
    stepping by about 1.1e-15 · steps · max(1, max|S|) · max|p| (measured, dims 1-16)."""
    if r.generator is None:
        raise ValueError(f"{r.name} has no matrix generator to integrate")
    times = _grid(t_end, steps)

    g, start = _operands(r.generator(x), y)
    if g.ndim > 2 or start.ndim > 2:
        raise ValueError(f"integrate_flow takes one x and one y, not a stack: shapes "
                         f"{g.shape} and {start.shape}")

    def field(m):
        return g @ m - m @ g

    h, k = times[1], 1  # t_end / steps; an error forming the step matrix is named at t = h
    out = np.empty((len(times), start.size), dtype=complex)
    out[0] = start.reshape(-1)
    with np.errstate(over="raise", invalid="raise"):
        try:
            m = np.eye(start.size).reshape(start.size, *start.shape)
            k1 = field(m)
            k2 = field(m + 0.5 * h * k1)
            k3 = field(m + 0.5 * h * k2)
            k4 = field(m + h * k3)
            step = (m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(start.size, -1)
            for k in range(1, len(times)):
                np.matmul(out[k - 1], step, out=out[k])
        except FloatingPointError as exc:
            raise ArithmeticError(f"integrate_flow at t = {times[k]!r}: {exc}") from exc
    # Where a numpy does not report FP flags from matmul, inf still stops here.
    ok = np.isfinite(out).all(axis=1)
    if not ok.all():
        raise ArithmeticError(f"integrate_flow at t = {times[int(np.argmin(ok))]}: non-finite result")
    return Trajectory(tuple(times), (start, *out[1:].reshape(-1, *start.shape)), r.name, x, y)


def sample_flow(r: Realization, x, y, t_end: float, steps: int) -> Trajectory:
    """Closed-form trajectory: the realization's own op on a grid, in one call."""
    if not r.family:
        raise ValueError(f"{r.name} has no time parameter to flow along")
    times = _grid(t_end, steps)
    try:
        flow = _finite(f"sample_flow at t in [{times[1]!r}, {float(t_end)!r}]",
                       lambda: r.op(x, np.array(times[1:]), y))
    except ArithmeticError:
        for t in times[1:]:  # one bad t fails the whole batch; name the first one
            _finite(f"sample_flow at t = {t!r}", lambda: r.op(x, t, y))
        raise
    return Trajectory(tuple(times), (y, *flow), r.name, x, y)


def write_trajectory_csv(traj: Trajectory, r: Realization, stream) -> None:
    """Emit a trajectory as CSV: header ``t,<columns>``.  A matrix point gives the real
    and imaginary part of each entry, row-major, as columns ``re_ij, im_ij``; a vector
    point gives its entries, as columns ``r.flat_labels`` or else ``v0, v1, ...``."""
    if not r.vector_carrier:
        raise ValueError(f"{r.name} elements have no flat CSV form")
    first = np.asarray(traj.points[0])
    if first.ndim == 2:  # complex128 viewed as float64 is the (re, im) pair of each entry
        n = range(first.shape[0])
        labels = [f"{part}_{i}{j}" for i in n for j in n for part in ("re", "im")]
        dtype = np.complex128
    else:
        labels = list(r.flat_labels or (f"v{i}" for i in range(first.size)))
        dtype = np.float64
    flat = np.ascontiguousarray(traj.points, dtype=dtype).view(np.float64)
    writer = csv.writer(stream)
    writer.writerow(["t"] + labels)
    for t, row in zip(traj.times, flat.reshape(len(flat), -1).tolist()):
        writer.writerow([repr(float(t))] + [repr(v) for v in row])


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
            width = max(1, BLOCK_NUMBERS // u[0].size)  # grid slices keep memory flat
            return functools.reduce(np.maximum, (np.max(
                r.metric(r.op(u[:, None], grid[i:i + width], v[:, None]), v[:, None]), axis=-1)
                for i in range(0, grid.size, width)))
    elif mode == "bracket":
        if r.analytic_bracket is None:
            raise ValueError(f"{r.name} has no analytic bracket")
        method, size = "bracket-criterion", 1

        def residual(u, v):
            return r.metric(r.analytic_bracket(u, v), 0.0)
    else:
        raise ValueError(f"mode must be 'sampled' or 'bracket', got {mode!r}")

    def verdicts(xs, ys, names=None) -> list:  # a verdict names its pair as names do, else xs, ys
        sx, sy = np.asarray(xs), np.asarray(ys)
        res_xy = _scores(lambda k: residual(sx[k], sy[k]), len(xs), size * sx[0].size).tolist()
        res_yx = _scores(lambda k: residual(sy[k], sx[k]), len(xs), size * sx[0].size).tolist()
        return [NoetherVerdict(x, y, a <= tol, b <= tol, (a <= tol) == (b <= tol), method,
                               {"x_fixes_y": a, "y_fixes_x": b})
                for x, y, a, b in zip(*(names or (xs, ys)), res_xy, res_yx)]

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
    pairs: int = DEFAULT_PAIRS,
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
    seed = _check_int(seed, "seed", 0)
    sampled = _noether_scorer(r, "sampled", t_samples, t_max, tol)
    rng = np.random.default_rng(seed)
    # The x = x control, then the pairs (x, y), in the order they are drawn; a scan's rows
    # are named in the verdicts by the elements they stand for.
    draws = np.concatenate([column for _, (column,) in _draw(r, rng, 2 * pairs + 1, 1, 0)])
    xs, ys = np.concatenate([draws[:1], draws[1::2]]), draws[::2]
    named = r.units[1][1](draws) if r.units and r.units[0] is None else list(draws)
    control, *verdicts = sampled(xs, ys, (named[:1] + named[1::2], named[::2]))

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
