"""The array-of-t op protocol against its scalar oracle.

``op(x, t, y)`` with a 1-d array t evaluates the whole flow in one call.
The scalar op, called once per t, is the reference it must reproduce: every
member within 1e-12, the t = 0 member of a matrix flow exactly, and the
Noether verdicts and residuals that the per-t loop used to compute.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlekit as qk
from quandlekit.verify import NOETHER_GRID, NOETHER_TOL, PARAM_RANGE

GRID = np.linspace(-PARAM_RANGE, PARAM_RANGE, NOETHER_GRID)
PARITY_TOL = 1e-12

FAMILIES = [
    qk.matrix_hermitian(3),
    qk.matrix_general(3),
    qk.bloch(),
    qk.convex_flow(3),
    qk.fixed_spectrum([1.0, 2.0, 3.0]),
    qk.union_lie(),
    qk.corrupted_flow(3),
]
MATRIX_FAMILIES = [r for r in FAMILIES if r.name in
                   ("matrix-hermitian", "matrix-general", "fixed-spectrum")]


def by_name(r):
    return r.name


def per_t(r, x, grid, y):
    """The scalar oracle: one op call per t."""
    return [r.op(x, float(t), y) for t in grid]


def per_t_residual(r, a, b, grid=GRID) -> float:
    """The sampled Noether residual as the per-t loop computed it."""
    worst = -math.inf
    for t in grid:
        try:
            value = float(r.metric(r.op(a, float(t), b), b))
        except ArithmeticError:
            value = math.inf
        worst = max(worst, value if math.isfinite(value) else math.inf)
    return worst


@pytest.mark.parametrize("r", FAMILIES, ids=by_name)
def test_batched_op_matches_scalar_oracle(r):
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = r.sample(rng), r.sample(rng)
        flow = r.op(x, GRID, y)
        assert len(flow) == len(GRID)
        for got, want in zip(flow, per_t(r, x, GRID, y)):
            assert r.metric(got, want) <= PARITY_TOL


@pytest.mark.parametrize("r", MATRIX_FAMILIES, ids=by_name)
def test_batched_matrix_op_is_exact_at_zero(r):
    rng = np.random.default_rng(6)
    assert GRID[NOETHER_GRID // 2] == 0.0
    for _ in range(5):
        x, y = r.sample(rng), r.sample(rng)
        flow = r.op(x, GRID, y)
        assert flow.shape == (len(GRID),) + y.shape
        assert np.array_equal(flow[NOETHER_GRID // 2], y)


def test_batched_shapes_per_carrier():
    rng = np.random.default_rng(7)
    assert qk.convex_flow(4).op(np.zeros(4), GRID, np.ones(4)).shape == (len(GRID), 4)
    assert qk.bloch().op(qk.bloch().sample(rng), GRID, qk.bloch().sample(rng)).shape == (
        len(GRID), 3)
    u = qk.union_lie()
    a, p = qk.UnionElement("algebra", 0.5), qk.UnionElement("space", [1.0, 0.0])
    for x, y in ((a, p), (p, a), (a, a), (p, p)):
        flow = u.op(x, GRID, y)
        assert isinstance(flow, tuple) and len(flow) == len(GRID)
        assert all(e.part == y.part for e in flow)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_stacked_expm_matches_per_matrix(dim):
    rng = np.random.default_rng(dim)
    x = qk.random_complex(rng, dim)
    stack = np.multiply.outer(GRID, x)
    got = qk.expm(stack)
    assert got.shape == stack.shape
    for member, m in zip(got, stack):
        want = qk.expm(m)
        assert qk.max_abs(member - want) <= PARITY_TOL * max(1.0, qk.max_abs(want))
    assert np.array_equal(got[NOETHER_GRID // 2], np.eye(dim))


def test_conjugate_by_exp_stacks_over_t():
    rng = np.random.default_rng(8)
    x, y = qk.random_complex(rng, 3), qk.random_complex(rng, 3)
    t = np.array([-0.5, 0.0, 0.25, 1.0])
    got = qk.conjugate_by_exp(x, t, y)
    assert got.shape == (4, 3, 3)
    for member, tk in zip(got, t):
        assert qk.max_abs(member - qk.conjugate_by_exp(x, float(tk), y)) <= PARITY_TOL


def test_hermiticity_gates_on_stacks():
    rng = np.random.default_rng(9)
    stack = np.stack([qk.random_complex(rng, 3) for _ in range(4)])
    herm = qk.hermitize(stack)
    for member, raw in zip(herm, stack):
        assert np.array_equal(member, qk.hermitize(raw))
    assert qk.is_hermitian(herm)
    assert qk.require_hermitian(herm).shape == (4, 3, 3)
    assert not qk.is_hermitian(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        qk.require_hermitian(stack)
    assert np.allclose(qk.spectrum(herm), [qk.spectrum(m) for m in herm], atol=1e-14)
    with pytest.raises(ValueError, match="non-finite"):
        qk.as_matrix(np.full((2, 3, 3), np.nan))


@pytest.mark.parametrize("r", FAMILIES, ids=by_name)
def test_noether_check_matches_per_t_oracle(r):
    rng = np.random.default_rng(10)
    pairs = [(r.sample(rng), r.sample(rng)) for _ in range(4)]
    pairs.append((pairs[0][0], pairs[0][0]))
    for x, y in pairs:
        v = qk.noether_check(r, x, y)
        want = {"x_fixes_y": per_t_residual(r, x, y), "y_fixes_x": per_t_residual(r, y, x)}
        for key, res in v.residuals.items():
            if math.isinf(want[key]):
                assert res == want[key]
            else:
                assert abs(res - want[key]) <= PARITY_TOL
        assert v.x_fixes_y == (want["x_fixes_y"] <= NOETHER_TOL)
        assert v.y_fixes_x == (want["y_fixes_x"] <= NOETHER_TOL)


def test_noether_check_breakdown_scores_inf_like_per_t():
    base = qk.convex_flow(2)

    def raising(x, t, y):
        if np.max(t) > 2.0:
            raise OverflowError("too far")
        return base.op(x, t, y)

    def nan_tail(x, t, y):
        out = base.op(x, t, y)
        return np.where(np.reshape(t, np.shape(t) + (1,)) > 2.0, np.nan, out)

    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for op in (raising, nan_tail):
        r = qk.Realization(name="broken", carrier=base.carrier, op=op,
                           metric=base.metric, sample=base.sample,
                           default_tolerance=1e-12)
        v = qk.noether_check(r, x, y)
        assert per_t_residual(r, x, y) == math.inf
        assert v.residuals == {"x_fixes_y": math.inf, "y_fixes_x": math.inf}
        assert not v.x_fixes_y and not v.y_fixes_x


def test_overflowing_grid_scores_inf_like_per_t():
    # e^{800} overflows: math.exp raises for one t, the batched op must too,
    # rather than warn and score through nan.
    r = qk.convex_flow(2)
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    grid = np.linspace(-800.0, 800.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = qk.noether_check(r, x, y, t_samples=5, t_max=800.0)
    with np.errstate(over="ignore"):
        assert per_t_residual(r, x, y, grid) == math.inf
    assert v.residuals == {"x_fixes_y": math.inf, "y_fixes_x": math.inf}


def test_sample_flow_matches_per_t_oracle():
    for r in FAMILIES:
        rng = np.random.default_rng(11)
        x, y = r.sample(rng), r.sample(rng)
        traj = qk.sample_flow(r, x, y, t_end=2.0, steps=16)
        assert traj.points[0] is y
        for t, p in zip(traj.times[1:], traj.points[1:]):
            assert r.metric(p, r.op(x, t, y)) <= PARITY_TOL


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["matrix-hermitian", "matrix-general", "bloch", "convex-flow"]),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    grid=st.lists(st.floats(min_value=-PARAM_RANGE, max_value=PARAM_RANGE,
                            allow_nan=False), min_size=1, max_size=12),
)
def test_batched_op_property(kind, dim, seed, grid):
    r = qk.make_realization(kind, dim=dim)
    rng = np.random.default_rng(seed)
    x, y = r.sample(rng), r.sample(rng)
    t = np.array(grid)
    flow = r.op(x, t, y)
    assert len(flow) == len(t)
    for got, want in zip(flow, per_t(r, x, t, y)):
        assert r.metric(got, want) <= PARITY_TOL
    for got, tk in zip(flow, t):
        if tk == 0.0 and kind.startswith("matrix"):
            assert np.array_equal(got, y)
