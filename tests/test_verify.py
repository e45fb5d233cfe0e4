"""Verification-engine tests: report plumbing, bracket recovery order,
RK4 convergence, trajectory output, and the fixes-each-other verdicts."""

import copy
import dataclasses
import io
import math
import pickle
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quandlekit as qk
from quandlekit import realizations, verify
from test_linalg import oracle_skew


def test_verify_axioms_report_shape():
    r = qk.matrix_hermitian(2)
    reports = qk.verify_axioms(r, samples=20, seed=1)
    assert [rep.axiom for rep in reports] == [
        "self-action", "self-distributivity", "idempotency", "inverse-law",
    ]
    for rep in reports:
        assert rep.realization == "matrix-hermitian"
        assert rep.samples == 20
        assert rep.passed == (rep.max_residual <= rep.tolerance)
        assert 0 <= rep.worst_case["sample"] < 20
        payload = rep.to_json()
        assert payload["pass"] is True


def test_verify_axioms_fixed_op_gets_two_reports():
    reports = qk.verify_axioms(qk.convex_spindle(0.4), samples=15, seed=2)
    assert [rep.axiom for rep in reports] == ["self-distributivity", "idempotency"]
    assert all(rep.passed for rep in reports)


def test_verify_axioms_deterministic():
    r = qk.bloch()
    a = qk.verify_axioms(r, samples=30, seed=7)
    b = qk.verify_axioms(r, samples=30, seed=7)
    assert [x.max_residual for x in a] == [y.max_residual for y in b]
    assert [x.worst_case for x in a] == [y.worst_case for y in b]


def test_verify_axioms_tolerance_override():
    r = qk.matrix_hermitian(2)
    strict = qk.verify_axioms(r, samples=10, seed=3, tol=1e-20)
    assert not any(rep.passed for rep in strict)
    assert all(rep.tolerance == 1e-20 for rep in strict)


def test_verify_axioms_validates_samples():
    with pytest.raises(ValueError):
        qk.verify_axioms(qk.bloch(), samples=0)
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=f"samples must be an integer, got {bad}"):
            qk.verify_axioms(qk.bloch(), samples=bad)


@pytest.mark.parametrize("tol, error", [
    (math.nan, "tol must be >= 0"),
    (-1.0, "tol must be >= 0"),
    (math.inf, "tol must be finite, got inf"),
    ("1e-8", "tol must be a number"),
])
def test_tolerances_must_be_finite_and_non_negative(tol, error):
    r = qk.matrix_hermitian(2)
    with pytest.raises(ValueError, match=error):
        qk.verify_axioms(r, samples=5, tol=tol)
    with pytest.raises(ValueError, match=error):
        qk.noether_check(r, qk.PAULI_X, qk.PAULI_Z, tol=tol)
    with pytest.raises(ValueError, match=error):
        qk.noether_suite(r, pairs=2, tol=tol)


def test_corrupted_realization_fails_self_distributivity():
    reports = {rep.axiom: rep for rep in qk.verify_axioms(qk.corrupted_flow(), samples=50)}
    assert not reports["self-distributivity"].passed
    assert reports["self-distributivity"].max_residual > 1e-8


def test_overflowing_op_scores_infinite_residual():
    base = qk.convex_flow(2)
    broken = qk.Realization(
        name="overflowing",
        carrier=base.carrier,
        op=lambda x, t, y: y * math.inf,
        metric=base.metric,
        sample=base.sample,
        default_tolerance=1e-8,
    )
    with np.errstate(invalid="ignore"):
        reports = qk.verify_axioms(broken, samples=3, seed=4)
    assert all(rep.max_residual == math.inf for rep in reports)
    assert not any(rep.passed for rep in reports)


# ---------------------------------------------------------------------------
# bracket recovery


def test_numeric_bracket_validation():
    r = qk.matrix_general(2)
    rng = np.random.default_rng(5)
    x, y = r.sample(rng), r.sample(rng)
    with pytest.raises(ValueError):
        qk.numeric_bracket(r, x, y, h=0.0)
    with pytest.raises(ValueError):
        qk.numeric_bracket(r, x, y, h=-1e-4)
    with pytest.raises(ValueError, match="step h must be finite, got inf"):
        qk.numeric_bracket(r, x, y, h=math.inf)
    with pytest.raises(ValueError):
        qk.numeric_bracket(qk.convex_spindle(0.5), x, y)
    u = qk.union_lie()
    a = qk.UnionElement("algebra", 1.0)
    with pytest.raises(ValueError):
        qk.numeric_bracket(u, a, a)
    largest = sys.float_info.max / 2  # 2h must fit, or the quotient would read 0
    for h in (9e307, 1e308):
        error = f"step h must be at most {largest!r}, got {h!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            qk.numeric_bracket(r, x, y, h)
    ez, e = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.8, 0.0])
    assert np.isfinite(qk.numeric_bracket(qk.bloch(), ez, e, largest)).all()


@pytest.mark.parametrize("factory,analytic", [
    (qk.matrix_general, lambda x, y: qk.commutator(x, y)),
    (qk.matrix_hermitian, lambda x, y: 1j * qk.commutator(x, y)),
])
def test_bracket_quadratic_decay(factory, analytic):
    r = factory(3)
    rng = np.random.default_rng(6)
    x, y = r.sample(rng), r.sample(rng)
    errors = [
        qk.max_abs(qk.numeric_bracket(r, x, y, h) - analytic(x, y))
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    for big, small in zip(errors, errors[1:]):
        assert 3.5 <= big / small <= 4.5


def test_bracket_convex_flow_is_difference():
    r = qk.convex_flow(4)
    rng = np.random.default_rng(7)
    x, y = r.sample(rng), r.sample(rng)
    nb = qk.numeric_bracket(r, x, y, 1e-4)
    assert np.linalg.norm(nb - (x - y)) <= 1e-6


def test_bracket_bloch_is_cross_product():
    r = qk.bloch()
    rng = np.random.default_rng(8)
    x, y = r.sample(rng), r.sample(rng)
    nb = qk.numeric_bracket(r, x, y, 1e-4)
    assert np.linalg.norm(nb - np.cross(x, y)) <= 1e-6


def test_bracket_of_element_with_itself_vanishes():
    for r in (qk.matrix_general(3), qk.matrix_hermitian(2), qk.convex_flow(3)):
        rng = np.random.default_rng(9)
        x = r.sample(rng)
        nb = qk.numeric_bracket(r, x, x, 1e-4)
        assert float(np.max(np.abs(nb))) <= 1e-10, r.name


def test_bracket_antisymmetry():
    h = 1e-3
    for r in (qk.matrix_general(3), qk.matrix_hermitian(3), qk.convex_flow(3)):
        rng = np.random.default_rng(10)
        x, y = r.sample(rng), r.sample(rng)
        total = qk.numeric_bracket(r, x, y, h) + qk.numeric_bracket(r, y, x, h)
        assert float(np.max(np.abs(total))) <= 1e-5, r.name


@settings(max_examples=40)
@given(
    name=st.sampled_from(["matrix-hermitian", "matrix-general"]),
    dim=st.integers(min_value=1, max_value=4),
    h=st.floats(min_value=1e-4, max_value=1e-2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_numeric_bracket_is_a_lie_bracket_to_second_order(name, dim, h, seed):
    # The derivative at t = 0 of a Lie quandle's flow is a Lie bracket.  Its
    # central difference errs from it by the Taylor remainder h²/6 times the
    # third derivative, at most (4/3) h² |A|³ |B| in spectral norm, since
    # |ad_A| <= 2|A| and the flow is near-isometric for |t| <= h.  Summed
    # over the terms, with N the largest norm of x, y, z: antisymmetry holds
    # within (8/3) h² N⁴, and Jacobi within 16 h² N⁵ (the inner error times
    # |ad| <= 2N, plus the outer error on a bracket of norm <= 2N²).
    # Rounding, about eps / h, is far below both for h >= 1e-4.
    # Fixed-spectrum is left out: a bracket there is no element of its
    # carrier, so its op would refuse it.
    r = qk.make_realization(name, dim=dim)
    rng = np.random.default_rng(seed)
    x, y, z = (r.sample(rng) for _ in range(3))
    n = max(np.linalg.norm(m, 2) for m in (x, y, z))

    def b(u, v):
        return qk.numeric_bracket(r, u, v, h)

    assert qk.max_abs(b(x, y) + b(y, x)) <= 8 / 3 * h**2 * n**4
    assert qk.max_abs(b(x, b(y, z)) + b(y, b(z, x)) + b(z, b(x, y))) <= 16 * h**2 * n**5


# ---------------------------------------------------------------------------
# flow integration


def oracle_integrate_flow(r, x, y, t_end, steps):
    """Classical RK4 stepping the matrices themselves: times and points."""
    g, cur = qk.as_matrix(r.generator(x)), qk.as_matrix(y)

    def field(m):
        return g @ m - m @ g

    h = t_end / steps
    times, points = [0.0], [cur]
    for k in range(1, steps + 1):
        k1 = field(cur)
        k2 = field(cur + 0.5 * h * k1)
        k3 = field(cur + 0.5 * h * k2)
        k4 = field(cur + h * k3)
        cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append(k * h)
        points.append(cur)
    return tuple(times), points


@settings(max_examples=20)
@given(
    name=st.sampled_from(["matrix-hermitian", "matrix-general", "fixed-spectrum"]),
    dim=st.sampled_from([1, 2, 3, 4, 6, 16]),
    steps=st.sampled_from([1, 7, 40, 300, 3000]),
    norm=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
# This step lands 1.4 times beyond 2e-15 · max(1, max|p|): a bound without max|S| fails.
@example(name="fixed-spectrum", dim=4, steps=1, norm=10.0, seed=0)
def test_integrate_flow_matches_stepping_the_matrices(name, dim, steps, norm, seed):
    # The step matrix S reorders the sums of each step, so points may differ by
    # rounding only: about an ulp of max|S| · max|p| per step, as documented.
    rng = np.random.default_rng(seed)
    if name == "fixed-spectrum":  # elements of max-abs norm at most `norm`
        r = qk.fixed_spectrum(norm * np.arange(1, dim + 1) / dim)
        x = r.sample(rng)
    else:
        r = qk.make_realization(name, dim=dim)
        x = r.sample(rng)
        x = x * (norm / qk.max_abs(x))
    y = r.sample(rng)
    traj = qk.integrate_flow(r, x, y, t_end=1.0, steps=steps)
    _, points = oracle_integrate_flow(r, x, y, 1.0, steps)
    assert traj.times == qk.sample_flow(r, x, y, t_end=1.0, steps=steps).times
    assert traj.points[0] is y
    points = np.array(points)
    # S row by row: one oracle step from each basis matrix.
    basis = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    s = np.array([oracle_integrate_flow(r, x, b, 1.0 / steps, 1)[1][1] for b in basis])
    bound = 1.1e-15 * steps * max(1.0, qk.max_abs(s)) * qk.max_abs(points)
    assert qk.max_abs(np.array(traj.points) - points) <= bound


def test_integrate_flow_zero_generator_is_constant():
    r = qk.matrix_general(2)
    zero = np.zeros((2, 2), dtype=complex)
    traj = qk.integrate_flow(r, zero, qk.PAULI_X, t_end=1.0, steps=8)
    assert all(qk.max_abs(p - qk.PAULI_X) == 0.0 for p in traj.points)


def test_integrate_flow_validation():
    r = qk.matrix_general(2)
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        qk.integrate_flow(r, x, x, t_end=1.0, steps=0)
    with pytest.raises(ValueError):
        qk.integrate_flow(r, x, x, t_end=-1.0, steps=10)
    with pytest.raises(ValueError):
        qk.integrate_flow(qk.bloch(), EZ3, EZ3, t_end=1.0, steps=10)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        qk.integrate_flow(r, x, np.eye(3), t_end=1.0, steps=10)
    # A stack of four 2x2 matrices is refused as a stack, not as "2 vs 4".
    with pytest.raises(ValueError, match=r"^integrate_flow takes one x and one y, not a stack"):
        qk.integrate_flow(r, x, np.zeros((4, 2, 2)), t_end=1.0, steps=10)
    with pytest.raises(ValueError, match=r"not a stack: shapes \(4, 2, 2\) and \(2, 2\)$"):
        qk.integrate_flow(r, np.zeros((4, 2, 2)), x, t_end=1.0, steps=10)
    with pytest.raises(ValueError, match="non-finite"):
        qk.integrate_flow(r, x, np.full((2, 2), np.nan), t_end=1.0, steps=10)


EZ3 = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("changes, error", [
    ({"steps": 2.7}, "steps must be an integer, got 2.7"),
    ({"steps": True}, "steps must be an integer, got True"),
    ({"t_end": math.inf}, "t_end must be finite, got inf"),
    ({"t_end": "1"}, "t_end must be a number, got '1'"),
    ({"t_end": 1e308, "steps": 2}, "t_end * steps overflows: t_end 1e+308, steps 2"),
])
@pytest.mark.parametrize("flow", [qk.integrate_flow, qk.sample_flow])
def test_flows_refuse_coerced_parameters(flow, changes, error):
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match=re.escape(error)):
        flow(qk.matrix_general(2), x, x, **{"t_end": 1.0, "steps": 10, **changes})


@pytest.mark.parametrize("flow", [qk.integrate_flow, qk.sample_flow])
def test_flows_refuse_a_grid_whose_times_coincide(flow):
    # A subnormal t_end / steps rounds two grid times together (5e-324 / 2 is
    # 0): the flows used to pass such a grid on, and Trajectory refused it as
    # "times must be strictly increasing", naming neither t_end nor steps.
    r, x = qk.matrix_general(2), np.eye(2, dtype=complex)
    with pytest.raises(ValueError,
                       match=r"^t_end 5e-324 is too small for 2 steps: grid times coincide$"):
        flow(r, x, x, t_end=5e-324, steps=2)
    assert flow(r, x, x, t_end=5e-324, steps=1).times == (0.0, 5e-324)
    assert flow(r, x, x, t_end=2e-323, steps=4).times == (0.0, 5e-324, 1e-323, 1.5e-323, 2e-323)


def test_rk4_fourth_order_decay_and_endpoint():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        r = qk.matrix_hermitian(dim)
        x, y = r.sample(rng), r.sample(rng)  # max-abs norm 1 generators
        closed = r.op(x, 1.0, y)
        errors = []
        for steps in (50, 100, 200):
            traj = qk.integrate_flow(r, x, y, t_end=1.0, steps=steps)
            errors.append(qk.max_abs(traj.points[-1] - closed))
        for big, small in zip(errors, errors[1:]):
            assert 3.5 <= math.log2(big / small) <= 4.5
    traj400 = qk.integrate_flow(r, x, y, t_end=1.0, steps=400)
    assert qk.max_abs(traj400.points[-1] - r.op(x, 1.0, y)) <= 1e-9


def test_rk4_matches_closed_form_plain_convention():
    r = qk.matrix_general(2)
    rng = np.random.default_rng(12)
    x, y = r.sample(rng), r.sample(rng)
    traj = qk.integrate_flow(r, x, y, t_end=1.0, steps=400)
    assert qk.max_abs(traj.points[-1] - r.op(x, 1.0, y)) <= 1e-9


def test_sample_flow_grid_and_endpoint():
    r = qk.bloch()
    rng = np.random.default_rng(13)
    x, y = r.sample(rng), r.sample(rng)
    traj = qk.sample_flow(r, x, y, t_end=2.0, steps=4)
    assert traj.times == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert np.allclose(traj.points[0], y)
    assert np.allclose(traj.points[-1], r.op(x, 2.0, y))
    with pytest.raises(ValueError):
        qk.sample_flow(qk.convex_spindle(0.5), y, y, 1.0, 4)


@pytest.mark.parametrize("r", [qk.convex_flow(3), qk.bloch()], ids=lambda r: r.name)
def test_sample_flow_refuses_a_grid_that_overflows(r):
    # The grid forms k * t_end up to k = steps: 2e308 is inf, which convex-flow
    # used to print as a point under exit 0, and bloch blamed on t = inf.
    with pytest.raises(ValueError, match=r"^t_end \* steps overflows: t_end 1e\+308, steps 2$"):
        qk.sample_flow(r, EZ3, EZ3, t_end=1e308, steps=2)
    assert qk.sample_flow(r, EZ3, EZ3, t_end=1e308, steps=1).times == (0.0, 1e308)


@pytest.mark.parametrize("t_end, steps", [(1.0, 100), (1.5, 4), (3.0, 7), (0.3, 1000)])
def test_both_flows_report_the_same_times(t_end, steps):
    # Both report k * t_end / steps; k * (t_end / steps) reads 0.35000000000000003
    # for 0.35 at (1.0, 100).
    r = qk.matrix_hermitian(2)
    rng = np.random.default_rng(14)
    x, y = r.sample(rng), r.sample(rng)
    rk4 = qk.integrate_flow(r, x, y, t_end, steps).times
    assert rk4 == qk.sample_flow(r, x, y, t_end, steps).times
    assert rk4 == tuple(k * t_end / steps for k in range(steps + 1))


# Where an op or a numpy reports no FP flag, a non-finite result is still
# refused after the fact, with the time it first shows at.
X2, Y2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def infinite_from(cutoff: float) -> qk.Realization:
    """convex-flow, but inf at every t >= cutoff, without raising."""
    base = qk.convex_flow(2)

    def op(x, t, y):
        return np.where(np.asarray(t)[..., None] >= cutoff, math.inf, base.op(x, t, y))

    return dataclasses.replace(base, op=op)


def test_sample_flow_names_the_first_non_finite_time():
    with pytest.raises(ArithmeticError, match=r"^sample_flow at t = 0\.5: non-finite result$"):
        qk.sample_flow(infinite_from(0.5), X2, Y2, t_end=1.0, steps=4)


def test_numeric_bracket_refuses_a_non_finite_quotient():
    # inf at +h only: inf minus a finite point raises no flag.
    error = r"^numeric_bracket at t = \+/-0\.001: non-finite result$"
    with pytest.raises(ArithmeticError, match=error):
        qk.numeric_bracket(infinite_from(0.0), X2, Y2, h=1e-3)


@pytest.mark.parametrize("steps, t", [(100, 2.22), (1000, 0.927)])
def test_integrate_flow_refuses_overflow_without_fp_flags(monkeypatch, steps, t):
    # As on a numpy whose matmul reports no FP flags: the backstop names the
    # time that the overflow flag names where matmul does report it.
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **_: errstate(all="ignore"))
    error = re.escape(f"integrate_flow at t = {t!r}: non-finite result")
    with pytest.raises(ArithmeticError, match=f"^{error}$"):
        qk.integrate_flow(qk.matrix_general(2), 400 * qk.PAULI_Z, qk.PAULI_X, 3.0, steps)


def test_sample_flow_names_the_grid_when_only_the_batch_fails():
    base = qk.convex_flow(2)

    def op(x, t, y):
        if np.ndim(t):
            raise ArithmeticError("batch failed")
        return base.op(x, t, y)

    r = dataclasses.replace(base, op=op)
    with pytest.raises(ArithmeticError, match=r"^sample_flow at t in \[0\.25, 1\.0\]: batch failed$"):
        qk.sample_flow(r, X2, Y2, t_end=1.0, steps=4)


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        qk.Trajectory(times=(0.0, 0.0), points=(1, 2), realization="r", x=0, y=0)
    with pytest.raises(ValueError):
        qk.Trajectory(times=(0.0, 1.0), points=(1,), realization="r", x=0, y=0)
    with pytest.raises(ValueError):
        qk.Trajectory(times=(), points=(), realization="r", x=0, y=0)


def test_fixed_spectrum_trajectories_keep_spectrum():
    r = qk.fixed_spectrum([1.0, 2.0, 3.0])
    rng = np.random.default_rng(14)
    x, y = r.sample(rng), r.sample(rng)
    closed = qk.sample_flow(r, x, y, t_end=2.0, steps=20)
    rk = qk.integrate_flow(r, x, y, t_end=2.0, steps=200)
    for traj in (closed, rk):
        for p in traj.points:
            drift = np.max(np.abs(np.linalg.eigvalsh(p) - [1.0, 2.0, 3.0]))
            assert drift <= 1e-8


def test_write_trajectory_csv():
    r = qk.bloch()
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 0.0, 0.0])
    traj = qk.sample_flow(r, x, y, t_end=1.0, steps=2)
    buf = io.StringIO()
    qk.write_trajectory_csv(traj, r, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        qk.write_trajectory_csv(traj, qk.union_lie(), io.StringIO())


@pytest.mark.parametrize("r", [qk.convex_flow(3), qk.convex_spindle(0.5, 3)], ids=lambda r: r.name)
def test_vector_csv_columns_default_to_v(r):
    traj = qk.Trajectory((0.0, 1.0), (np.array([1, 2, 3]), np.array([0.5, -0.0, 1e-300])), r.name,
                         None, None)
    buf = io.StringIO()
    qk.write_trajectory_csv(traj, r, buf)
    assert buf.getvalue().splitlines() == ["t,v0,v1,v2", "0.0,1.0,2.0,3.0", "1.0,0.5,-0.0,1e-300"]


def test_csv_of_a_vector_realization_without_labels():
    # A hand-built vector carrier names no columns; it gets v0, v1, ...
    r = qk.Realization(
        name="shift",
        carrier="reals under translation",
        op=lambda x, t, y: y + np.asarray(t)[..., None] * x,
        metric=lambda a, b: np.abs(a - b)[..., 0],
        sample=lambda rng: rng.random(1),
        default_tolerance=1e-12,
    )
    buf = io.StringIO()
    qk.write_trajectory_csv(qk.sample_flow(r, np.array([2.0]), np.array([1]), 1.0, 2), r, buf)
    assert buf.getvalue().splitlines() == ["t,v0", "0.0,1.0", "0.5,2.0", "1.0,3.0"]


def test_matrix_csv_of_a_real_valued_point():
    # A real y is written with zero imaginary parts, the flow's points as complex.
    r = qk.matrix_general(2)
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    traj = qk.sample_flow(r, np.zeros((2, 2)), y, t_end=1.0, steps=1)
    buf = io.StringIO()
    qk.write_trajectory_csv(traj, r, buf)
    assert buf.getvalue().splitlines() == [
        "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11",
        "0.0,1.0,0.0,2.0,0.0,3.0,0.0,4.0,0.0",
        "1.0,1.0,0.0,2.0,0.0,3.0,0.0,4.0,0.0",
    ]


def test_matrix_csv_labels_row_major():
    r = qk.matrix_general(2)
    x = np.zeros((2, 2), dtype=complex)
    traj = qk.sample_flow(r, x, qk.PAULI_Y, t_end=1.0, steps=1)
    buf = io.StringIO()
    qk.write_trajectory_csv(traj, r, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"
    row = [float(v) for v in lines[1].split(",")]
    assert row == [0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# fixes-each-other checks


def test_noether_check_commuting_pair():
    r = qk.matrix_hermitian(2)
    diag = np.diag([1.0, 2.0]).astype(complex)
    v = qk.noether_check(r, qk.PAULI_Z, diag, mode="sampled")
    assert v.x_fixes_y and v.y_fixes_x and v.consistent
    assert v.method == "sampled"
    b = qk.noether_check(r, qk.PAULI_Z, diag, mode="bracket")
    assert b.x_fixes_y and b.y_fixes_x and b.consistent
    assert b.method == "bracket-criterion"


def test_noether_check_noncommuting_pair():
    r = qk.matrix_hermitian(2)
    for mode in ("sampled", "bracket"):
        v = qk.noether_check(r, qk.PAULI_Z, qk.PAULI_X, mode=mode)
        assert not v.x_fixes_y and not v.y_fixes_x and v.consistent
        assert v.residuals["x_fixes_y"] > 1e-3


def test_noether_check_union_counterexample():
    r = qk.union_lie()
    a = qk.UnionElement("algebra", 1.0)
    p = qk.UnionElement("space", [1.0, 0.0])
    v = qk.noether_check(r, a, p, mode="sampled")
    assert not v.x_fixes_y          # the rotation moves the point
    assert v.y_fixes_x              # the point acts trivially
    assert not v.consistent
    assert v.residuals["y_fixes_x"] == 0.0


def test_noether_to_json_default_encoder_is_repr():
    # Without an encoder, a verdict writes each element as its repr.
    a = qk.UnionElement("algebra", 1.0)
    p = qk.UnionElement("space", [1.0, 0.0])
    assert qk.noether_check(qk.union_lie(), a, p).to_json() == {
        "x": "UnionElement('algebra', 1.0)",
        "y": "UnionElement('space', array([1., 0.]))",
        "x_fixes_y": False,
        "y_fixes_x": True,
        "consistent": False,
        "method": "sampled",
        # the farthest grid time, t = 3, moves p by 2 sin(3/2)
        "residuals": {"x_fixes_y": pytest.approx(2 * math.sin(1.5), rel=1e-14), "y_fixes_x": 0.0},
    }
    v = qk.noether_check(qk.matrix_hermitian(2), qk.PAULI_Z, qk.PAULI_X, mode="bracket")
    assert v.to_json() == {
        "x": "array([[ 1.+0.j,  0.+0.j],\n       [ 0.+0.j, -1.+0.j]])",
        "y": "array([[0.+0.j, 1.+0.j],\n       [1.+0.j, 0.+0.j]])",
        "x_fixes_y": False,
        "y_fixes_x": False,
        "consistent": True,
        "method": "bracket-criterion",
        "residuals": {"x_fixes_y": 2.0, "y_fixes_x": 2.0},  # max|i[Z, X]| = max|2Y|
    }
    assert qk.noether_suite(qk.union_lie(), pairs=5, seed=3).to_json() == {
        "realization": "union",
        "pairs": 5,
        "inconsistent_count": 1,
        "all_consistent": False,
        "first_inconsistent": {
            "x": "UnionElement('space', array([ 0.16432407, -0.81174272]))",
            "y": "UnionElement('algebra', -0.6805221707258429)",
            "x_fixes_y": True,
            "y_fixes_x": False,
            "consistent": False,
            "method": "sampled",
            "residuals": {"x_fixes_y": 0.0, "y_fixes_x": pytest.approx(1.4121240920468268, rel=1e-14)},
        },
        "modes_agree": None,
        "control_consistent": True,
    }


def test_noether_suite_union_result_pickles_and_copies():
    s = qk.noether_suite(qk.union_lie(), pairs=3)
    for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert twin == s and twin.to_json() == s.to_json()
        assert all(type(v.x) is type(v.y) is qk.UnionElement for v in twin.verdicts)


def test_noether_check_memory_stays_flat_in_t_samples():
    # The grid is scored in slices and reduced by an exact max, so a long grid
    # costs little more than the grid itself and changes no residual.
    r = qk.bloch()
    rng = np.random.default_rng(15)
    x, y = r.sample(rng), r.sample(rng)
    grid = np.linspace(-3.0, 3.0, 10**6)  # the default t_max
    whole = [float(np.max(r.metric(r.op(u, grid, v), v))) for u, v in ((x, y), (y, x))]
    tracemalloc.start()
    try:
        v = qk.noether_check(r, x, y, t_samples=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert [v.residuals["x_fixes_y"], v.residuals["y_fixes_x"]] == whole


def test_verify_axioms_memory_stays_flat_in_samples():
    # 2e5 samples take 19 blocks.  Drawing every sample before scoring any
    # peaked at about 138 MiB here.
    tracemalloc.start()
    try:
        reports = qk.verify_axioms(qk.convex_flow(3), samples=2 * 10**5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert all(rep.passed and rep.samples == 2 * 10**5 for rep in reports)
    assert all(0 <= rep.worst_case["sample"] < 2 * 10**5 for rep in reports)


def test_noether_check_validation():
    r = qk.matrix_hermitian(2)
    with pytest.raises(ValueError):
        qk.noether_check(r, qk.PAULI_X, qk.PAULI_Z, mode="exhaustive")
    with pytest.raises(ValueError):
        qk.noether_check(qk.union_lie(), qk.UnionElement("algebra", 1.0),
                         qk.UnionElement("algebra", 1.0), mode="bracket")
    with pytest.raises(ValueError):
        qk.noether_check(qk.convex_spindle(0.5), None, None)
    with pytest.raises(ValueError):
        qk.noether_check(r, qk.PAULI_X, qk.PAULI_Z, t_samples=1)
    for bad in (0.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="t_max must be positive"):
            qk.noether_check(r, qk.PAULI_X, qk.PAULI_Z, t_max=bad)
    with pytest.raises(ValueError, match="t_max must be finite"):
        qk.noether_check(r, qk.PAULI_X, qk.PAULI_Z, t_max=math.inf)
    with pytest.raises(ValueError, match="t_samples must be an integer, got 41.0"):
        qk.noether_check(r, qk.PAULI_X, qk.PAULI_Z, t_samples=41.0)


@pytest.mark.parametrize("bad, error", [
    ({"t_max": math.nan}, "t_max must be positive"),
    ({"t_max": math.inf}, "t_max must be finite"),
    ({"tol": math.nan}, "tol must be >= 0"),
    ({"t_samples": 1}, "t_samples must be >= 2"),
])
def test_noether_suite_checks_its_arguments_before_drawing(monkeypatch, bad, error):
    # A billion pairs could not be drawn in time: the arguments are refused first.
    def draw(*args):
        raise AssertionError("an element was drawn before the arguments were checked")

    monkeypatch.setattr(verify, "_draw", draw)
    with pytest.raises(ValueError, match=error):
        qk.noether_suite(qk.bloch(), pairs=10**9, **bad)


@pytest.mark.parametrize("engine", [qk.verify_axioms, qk.noether_suite])
@pytest.mark.parametrize("seed, error", [
    (-1, "seed must be >= 0"),
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
])
def test_engines_check_the_seed_before_drawing(monkeypatch, engine, seed, error):
    def draw(*args):
        raise AssertionError("an element was drawn before the seed was checked")

    monkeypatch.setattr(verify, "_draw", draw)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        engine(qk.bloch(), 10, seed=seed)


def test_noether_suite_consistent_realization():
    s = qk.noether_suite(qk.matrix_hermitian(2), pairs=12, seed=15)
    assert s.pairs == 12 and len(s.verdicts) == 12
    assert s.all_consistent and s.inconsistent_count == 0
    assert s.first_inconsistent is None
    assert s.modes_agree is True
    assert s.control_consistent is True
    payload = s.to_json()
    assert payload["all_consistent"] and payload["first_inconsistent"] is None


def test_noether_suite_union_finds_counterexample():
    s = qk.noether_suite(qk.union_lie(), pairs=25, seed=16)
    assert s.inconsistent_count >= 1
    assert s.first_inconsistent is not None
    assert s.modes_agree is None           # no analytic bracket on the union
    assert s.control_consistent is True    # x = x control still passes
    bad = s.first_inconsistent
    assert {bad.x.part, bad.y.part} == {"algebra", "space"}


def test_noether_suite_deterministic():
    a = qk.noether_suite(qk.bloch(), pairs=10, seed=17)
    b = qk.noether_suite(qk.bloch(), pairs=10, seed=17)
    assert a.inconsistent_count == b.inconsistent_count
    assert [v.residuals for v in a.verdicts] == [v.residuals for v in b.verdicts]


HERMITIAN_FLOWS = {
    "matrix-hermitian(2)": lambda: qk.matrix_hermitian(2),
    "matrix-hermitian(3)": lambda: qk.matrix_hermitian(3),
    "matrix-hermitian(6)": lambda: qk.matrix_hermitian(6),
    "fixed-spectrum(1,2,3)": lambda: qk.fixed_spectrum([1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("factory", HERMITIAN_FLOWS.values(), ids=HERMITIAN_FLOWS)
def test_skew_op_keeps_the_verdicts_of_the_expm_oracle(monkeypatch, factory):
    # The old realization is built with the expm oracle in place of
    # op_matrix_skew, so fixed-spectrum's sampler and spectrum-checked op run
    # on it too.  Residuals sit at rounding level and move by about 3e-14.
    r = factory()
    with monkeypatch.context() as m:
        m.setattr(realizations, "op_matrix_skew", oracle_skew)
        old = factory()
    for seed in range(6):
        new_suite, old_suite = (qk.noether_suite(q, pairs=10, seed=seed) for q in (r, old))
        assert ([(v.x_fixes_y, v.y_fixes_x) for v in new_suite.verdicts]
                == [(v.x_fixes_y, v.y_fixes_x) for v in old_suite.verdicts])
        assert new_suite.modes_agree == old_suite.modes_agree
        assert new_suite.control_consistent == old_suite.control_consistent
        new_reports, old_reports = (qk.verify_axioms(q, samples=30, seed=seed) for q in (r, old))
        assert [a.passed for a in new_reports] == [a.passed for a in old_reports]
        for a, b in zip(new_reports, old_reports):
            assert abs(a.max_residual - b.max_residual) <= 1e-12


def test_fixed_spectrum_scores_a_non_finite_op_output_inf(monkeypatch):
    # The closure check refuses a non-finite output with an ArithmeticError, so
    # the members that break down score inf, as any other op's breakdown does.
    skew = realizations.op_matrix_skew

    def breaks_late(x, t, y):
        return np.where((np.asarray(t) > 2.5)[..., None, None], np.nan, skew(x, t, y))

    monkeypatch.setattr(realizations, "op_matrix_skew", breaks_late)
    reports = qk.verify_axioms(qk.fixed_spectrum([1, 2, 3]), 40, seed=1)
    assert [(rep.max_residual, rep.passed) for rep in reports] == [(math.inf, False)] * 4


@pytest.mark.parametrize("name", ["matrix-hermitian(3)", "fixed-spectrum(1,2,3)"])
@pytest.mark.parametrize("t_max", [1e9, 1e12])
def test_noether_control_holds_at_huge_t_max(name, t_max):
    # The expm form failed this control from t_max 3e8 (matrix-hermitian(3))
    # and 5e6 (fixed-spectrum(1,2,3)): about 30 squarings amplified rounding
    # past NOETHER_TOL.  The eigenvector form is unitary at every t.
    assert qk.noether_suite(HERMITIAN_FLOWS[name](), pairs=1, t_max=t_max).control_consistent
