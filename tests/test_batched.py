"""The batched op protocol against its scalar oracles.

``op(x, t, y)`` with a 1-d array t evaluates the whole flow in one call, and
with stacks of elements x and/or y (and a matching t) a whole batch of
samples.  The scalar op, called once per t or per sample, is the reference
it must reproduce: every member within 1e-12, the t = 0 member of a matrix
flow exactly, the Noether verdicts and residuals that the per-t loop used to
compute, and the axiom reports of the per-sample loop, bit for bit on the
matrix realizations.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlekit as qk
from quandlekit import verify
from quandlekit.verify import (DEFAULT_STEP, NOETHER_GRID, NOETHER_TOL, PARAM_RANGE, AxiomReport,
                               _axiom_terms, _scores, verify_axioms)

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


@pytest.mark.parametrize("r", MATRIX_FAMILIES, ids=by_name)
def test_batched_matrix_op_is_bitwise_per_t(r):
    # Each member of the stack takes the squaring count its own t needs.
    rng = np.random.default_rng(14)
    x, y = r.sample(rng), r.sample(rng)
    for got, want in zip(r.op(x, GRID, y), per_t(r, x, GRID, y)):
        assert np.array_equal(got, want)


def test_batched_shapes_per_carrier():
    rng = np.random.default_rng(7)
    assert qk.convex_flow(4).op(np.zeros(4), GRID, np.ones(4)).shape == (len(GRID), 4)
    assert qk.bloch().op(qk.bloch().sample(rng), GRID, qk.bloch().sample(rng)).shape == (
        len(GRID), 3)
    u = qk.union_lie()
    a, p = qk.UnionElement("algebra", 0.5), qk.UnionElement("space", [1.0, 0.0])
    for x, y in ((a, p), (p, a), (a, a), (p, p)):
        flow = u.op(x, GRID, y)
        assert flow.shape == (len(GRID), 3)
        assert np.all(flow[:, 0] == np.asarray(y)[0])   # each row keeps y's tag


def union_act(x, t, y):
    """The scalar oracle of the union op: one UnionElement acting on another."""
    if x.part == "space" or y.part == "algebra":
        return y
    c, s = math.cos(t * x.value), math.sin(t * x.value)
    return qk.UnionElement("space", np.array([[c, -s], [s, c]]) @ y.value)


def union_distance(a, b) -> float:
    """The scalar oracle of the union metric."""
    if a.part != b.part:
        return math.inf
    if a.part == "algebra":
        return abs(a.value - b.value)
    return float(np.linalg.norm(a.value - b.value))


UNION_COORD = st.floats(min_value=-10.0, max_value=10.0)
UNION_ELEMENTS = st.one_of(
    UNION_COORD.map(lambda a: qk.UnionElement("algebra", a)),
    st.tuples(UNION_COORD, UNION_COORD).map(lambda p: qk.UnionElement("space", p)),
)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40)
@given(data=st.data(), n=st.integers(min_value=1, max_value=20))
def test_union_rows_match_element_oracle_bitwise(data, n):
    xs, ys, zs = (data.draw(st.lists(UNION_ELEMENTS, min_size=n, max_size=n)) for _ in "xyz")
    t = np.array(data.draw(st.lists(st.floats(min_value=-PARAM_RANGE, max_value=PARAM_RANGE),
                                    min_size=n, max_size=n)))
    want = [union_act(x, tk, y) for x, tk, y in zip(xs, t.tolist(), ys)]
    assert same_bits(qk.op_union(np.stack(xs), t, np.stack(ys)), np.stack(want))
    assert same_bits(qk.op_union(xs[0], t[0], ys[0]), want[0])
    r = qk.union_lie()
    assert same_bits(r.metric(np.stack(want), np.stack(zs)),
                     [union_distance(w, z) for w, z in zip(want, zs)])
    assert same_bits(r.metric(zs[0], want[0]), union_distance(zs[0], want[0]))


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


@settings(max_examples=40)
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


# ---------------------------------------------------------------------------
# stacks of elements and verify_axioms


ALL_REALIZATIONS = [qk.make_realization(name, dim=3) for name in qk.REALIZATION_NAMES] + [
    qk.corrupted_flow(3)]
VECTOR_LIKE = [qk.bloch(), qk.convex_flow(3), qk.convex_spindle(0.5, 3, "box"),
               qk.convex_spindle(0.3, 4, "simplex"), qk.union_lie(), qk.corrupted_flow(3)]


# The samplers as they were written before they read blocks of unit doubles:
# one rng.uniform call per part of an element, each element built on its own.
# They are the oracle of the unit-double samplers and of the draws of
# verify_axioms and noether_suite.


def _old_complex(rng, dim):
    re = rng.uniform(-1.0, 1.0, size=(dim, dim))
    im = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return re + 1j * im


def _old_hermitian(rng, dim):  # random_hermitian(rng, dim, unit_norm=True)
    h = qk.hermitize(_old_complex(rng, dim))
    return h / qk.max_abs(h)


def _sample_general_matrix(rng, dim):
    m = _old_complex(rng, dim)
    return 0.5 * m / max(qk.max_abs(m), 1e-9)


def _sample_box(rng, dim):
    return rng.uniform(0.0, 1.0, size=dim)


def _sample_simplex(rng, dim):
    w = -np.log(rng.uniform(1e-12, 1.0, size=dim))
    return w / float(np.sum(w))


def _sample_union(rng):
    if rng.random() < 0.5:
        while True:
            a = rng.uniform(-1.0, 1.0)
            if abs(a) >= 0.05:
                return qk.UnionElement("algebra", a)
    while True:
        p = rng.uniform(-1.0, 1.0, size=2)
        if float(np.linalg.norm(p)) >= 0.05:
            return qk.UnionElement("space", p)


def old_sampler(r):
    """The per-element sampler r had before its unit-double form."""
    if r.name in ("matrix-hermitian", "matrix-general"):
        dim = r.params["dim"]
        return (lambda rng: _old_hermitian(rng, dim)) if r.name == "matrix-hermitian" else (
            lambda rng: _sample_general_matrix(rng, dim))
    if r.name == "fixed-spectrum":
        spec = r.params["spectrum"]
        base = np.diag(np.array(spec, dtype=np.complex128))
        return lambda rng: qk.hermitize(qk.op_matrix_skew(_old_hermitian(rng, len(spec)), 1.0, base))
    if r.name in ("convex-flow", "corrupted"):
        return lambda rng: rng.uniform(-1.0, 1.0, size=r.params["dim"])
    if r.name == "convex-spindle":
        body = _sample_box if r.params["body"] == "box" else _sample_simplex
        return lambda rng: body(rng, r.params["dim"])
    if r.name == "union":
        return _sample_union
    assert r.units is None  # bloch's normals, or a sampler given only as sample
    return r.sample


SAMPLER_CASES = ALL_REALIZATIONS + [qk.matrix_hermitian(1), qk.matrix_general(5),
                                    qk.convex_spindle(0.3, 12, "simplex"),
                                    qk.fixed_spectrum([-2.0, -1.0, 0.5, 1.5, 3.0])]


@pytest.mark.parametrize("r", SAMPLER_CASES, ids=lambda r: f"{r.name}{r.params}")
def test_sample_is_bitwise_the_old_sampler(r):
    old = old_sampler(r)
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = r.sample(a), old(b)
            assert type(got) is type(want) and repr(got) == repr(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert a.random() == b.random()  # the same stream was read


@pytest.mark.parametrize("r", [r for r in SAMPLER_CASES if r.units and r.units[0]],
                         ids=lambda r: f"{r.name}{r.params}")
def test_units_finish_a_stack_as_each_row_alone(r):
    w, finish = r.units
    for shape in ((7,), (7, 3)):  # rows, and a block of 7 records of 3 elements as _draw reads it
        u = np.random.default_rng(3).random((*shape, w))
        stack = finish(u)
        for i in np.ndindex(shape):
            assert np.asarray(finish(u[i])).tobytes() == np.asarray(stack[i]).tobytes()


@pytest.mark.parametrize("r", [r for r in SAMPLER_CASES if r.units and r.units[0]],
                         ids=lambda r: f"{r.name}{r.params}")
def test_draw_finishes_a_block_in_one_call_as_per_column_calls_would(r):
    w, finish = r.units
    lo, span = -PARAM_RANGE, 2 * PARAM_RANGE
    for n in (1, 7, 300):
        shapes = []
        counted = dataclasses.replace(r, units=(w, lambda u: shapes.append(u.shape) or finish(u)))
        rng, oracle = np.random.default_rng(n), np.random.default_rng(n)
        [(start, block)] = verify._draw(counted, rng, n, 3, 2)  # one block of n records
        u = oracle.random((n, 3 * w + 2))  # the read as it was: k finish calls, one per column
        want = [finish(u[:, j * w:(j + 1) * w]) for j in range(3)]
        want += list(lo + span * u[:, 3 * w:].T)
        assert start == 0 and shapes == [(3, n, w)]
        assert [(c.shape, c.dtype, c.tobytes()) for c in block] == [
            (c.shape, c.dtype, c.tobytes()) for c in want]
        assert rng.random() == oracle.random()  # the same stream was read


def draws(r, samples, seed):
    """The per-sample draws of verify_axioms: x, y, z, s, t in that order."""
    rng = np.random.default_rng(seed)
    sample = old_sampler(r)
    out = []
    for _ in range(samples):
        x, y, z = sample(rng), sample(rng), sample(rng)
        s = float(rng.uniform(-PARAM_RANGE, PARAM_RANGE))
        t = float(rng.uniform(-PARAM_RANGE, PARAM_RANGE))
        out.append((x, y, z, s, t))
    return out


def guarded(fn) -> float:
    try:
        value = float(fn())
    except ArithmeticError:
        return math.inf
    return value if math.isfinite(value) else math.inf


def oracle_verify_axioms(r, samples, seed):
    """The per-sample loop: eleven scalar op calls per sample.

    Returns {axiom: (max_residual, worst_case, passed)}."""
    worst = {}
    op, metric = r.op, r.metric
    for i, (x, y, z, s, t) in enumerate(draws(r, samples, seed)):
        if r.family:
            checks = {
                "self-action": (lambda: metric(op(x, s, op(x, t, y)), op(x, s + t, y)),
                                {"sample": i, "s": s, "t": t}),
                "self-distributivity": (
                    lambda: metric(op(x, s, op(y, t, z)), op(op(x, s, y), t, op(x, s, z))),
                    {"sample": i, "s": s, "t": t}),
                "idempotency": (lambda: metric(op(x, s, x), x), {"sample": i, "s": s}),
                "inverse-law": (lambda: metric(op(x, -t, op(x, t, y)), y), {"sample": i, "t": t}),
            }
        else:
            checks = {
                "self-distributivity": (
                    lambda: metric(op(x, 0.0, op(y, 0.0, z)),
                                   op(op(x, 0.0, y), 0.0, op(x, 0.0, z))),
                    {"sample": i}),
                "idempotency": (lambda: metric(op(x, 0.0, x), x), {"sample": i}),
            }
        for name, (fn, case) in checks.items():
            res = guarded(fn)
            if res > worst.get(name, (-math.inf,))[0]:
                worst[name] = (res, case)
    return {name: (res, case, res <= r.default_tolerance) for name, (res, case) in worst.items()}


def per_record_verify_axioms(r, samples, seed):
    """verify_axioms as it drew before blocks: every record by the old samplers and
    rng.uniform, stacked, then each axiom scored over all samples."""
    rng, sample = np.random.default_rng(seed), old_sampler(r)
    draws = [(sample(rng), sample(rng), sample(rng),
              *rng.uniform(-PARAM_RANGE, PARAM_RANGE, 2)) for _ in range(samples)]
    batch = [np.array(column) for column in zip(*draws)]
    params = {"s": batch[3].tolist(), "t": batch[4].tolist()}
    if not r.family:
        batch[3] = batch[4] = np.zeros(samples)
    reports = []
    for name, (term, keys) in _axiom_terms(r).items():
        res = _scores(lambda k: term(*(a[k] for a in batch)), samples, batch[0][0].size)
        i = int(np.argmax(res))
        worst = float(res[i])
        reports.append(AxiomReport(r.name, name, samples, worst,
                                   {"sample": i, **{k: params[k][i] for k in keys}},
                                   r.default_tolerance, worst <= r.default_tolerance))
    return reports


# The sample counts of the axiom-sampling benchmark jobs, by realization.
BENCH_SAMPLES = {"matrix-hermitian": 12, "matrix-general": 12, "bloch": 40, "convex-flow": 300,
                 "convex-spindle": 300, "fixed-spectrum": 12, "union": 300, "corrupted": 100}


def report_json(reports) -> str:
    return json.dumps([rep.to_json() for rep in reports])


@pytest.mark.parametrize("r", ALL_REALIZATIONS, ids=by_name)
@pytest.mark.parametrize("seed", range(6))
def test_verify_axioms_is_byte_equal_to_per_record_oracle(r, seed):
    for samples in (1, BENCH_SAMPLES[r.name], 200):
        assert (report_json(verify_axioms(r, samples=samples, seed=seed))
                == report_json(per_record_verify_axioms(r, samples, seed)))


@pytest.mark.parametrize("r", ALL_REALIZATIONS + [qk.convex_spindle(0.3, 4, "simplex")],
                         ids=lambda r: f"{r.name}{r.params}")
def test_verify_axioms_across_blocks_is_byte_equal_to_per_record_oracle(r, monkeypatch):
    # With blocks of 96 numbers, 45 samples take several blocks on every carrier.
    monkeypatch.setattr(verify, "BLOCK_NUMBERS", 96)
    for seed in range(3):
        assert (report_json(verify_axioms(r, samples=45, seed=seed))
                == report_json(per_record_verify_axioms(r, 45, seed)))


@pytest.mark.parametrize("r", [qk.convex_flow(3), qk.union_lie()], ids=by_name)
def test_verify_axioms_across_full_blocks_is_byte_equal_to_per_record_oracle(r):
    samples = verify.BLOCK_NUMBERS // 3 + 7  # three numbers per element: two blocks
    assert (report_json(verify_axioms(r, samples=samples, seed=5))
            == report_json(per_record_verify_axioms(r, samples, 5)))


def union_records(samples, k, p, seed):
    """The columns of n records of k `_sample_union` calls then p rng.uniform parameters,
    drawn one record at a time: `draws` for k = 3, p = 2."""
    if (k, p) == (3, 2):
        return [np.array(column) for column in zip(*draws(qk.union_lie(), samples, seed))]
    rng = np.random.default_rng(seed)
    rows = [[_sample_union(rng) for _ in range(k)]
            + [float(rng.uniform(-PARAM_RANGE, PARAM_RANGE)) for _ in range(p)]
            for _ in range(samples)]
    return [np.array(column) for column in zip(*rows)]


def drawn_columns(r, rng, samples, k, p):
    """`verify._draw`'s columns joined across its blocks, with the blocks' first indices."""
    blocks = list(verify._draw(r, rng, samples, k, p))
    return [np.concatenate(c) for c in zip(*(cols for _, cols in blocks))], [i for i, _ in blocks]


@pytest.mark.parametrize("k, p", [(3, 2), (1, 0)])
def test_union_draw_is_bitwise_the_per_record_oracle(k, p):
    for seed in range(100):
        for samples in (1, 2, 7, 300):
            got, starts = drawn_columns(qk.union_lie(), np.random.default_rng(seed), samples, k, p)
            want = union_records(samples, k, p, seed)
            assert starts == [0] and len(got) == len(want) == k + p
            for column, expected in zip(got, want):
                assert column.shape == expected.shape
                assert column.tobytes() == expected.tobytes()


def test_union_draw_across_blocks_is_bitwise_the_per_record_oracle():
    samples = 11_000  # three numbers per element: two blocks of rows
    for seed in (0, 1):
        got, starts = drawn_columns(qk.union_lie(), np.random.default_rng(seed), samples, 3, 2)
        assert starts == [0, verify.BLOCK_NUMBERS // 3]
        for column, expected in zip(got, union_records(samples, 3, 2, seed)):
            assert column.tobytes() == expected.tobytes()


class ShortReads:
    """A generator whose ``random(size)`` returns at most ``most`` units, counting its calls."""

    def __init__(self, seed, most):
        self.rng, self.most, self.calls = np.random.default_rng(seed), most, 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(min(size, self.most))


@pytest.mark.parametrize("k, p", [(3, 2), (1, 0)])
def test_union_draw_whose_reads_run_short_is_unchanged(k, p):
    r = qk.union_lie()
    for seed in range(10):
        for samples, most in ((1, 1), (7, 5), (300, 97)):
            short = ShortReads(seed, most)
            got, _ = drawn_columns(r, short, samples, k, p)
            want, _ = drawn_columns(r, np.random.default_rng(seed), samples, k, p)
            assert short.calls > 1
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def test_union_draw_reads_more_where_its_first_read_runs_short():
    # One element from three units runs short wherever it redraws a plane pair or an algebra
    # scale twice; such seeds must still draw what one element at a time draws.
    short = []
    for seed in range(3000):
        counted = ShortReads(seed, 10**6)
        got, _ = drawn_columns(qk.union_lie(), counted, 1, 1, 0)
        if counted.calls > 1:
            short.append(seed)
            assert got[0].tobytes() == union_records(1, 1, 0, seed)[0].tobytes()
    assert short


@pytest.mark.parametrize("seed", range(10))
def test_noether_suite_names_union_pairs_by_their_elements(seed):
    rng = np.random.default_rng(seed)
    drawn = [_sample_union(rng) for _ in range(17)]  # the control, then eight pairs
    summary = qk.noether_suite(qk.union_lie(), 8, seed)
    for v, x, y in zip(summary.verdicts, drawn[1::2], drawn[2::2]):
        assert type(v.x) is qk.UnionElement and type(v.y) is qk.UnionElement
        assert (repr(v.x), repr(v.y)) == (repr(x), repr(y))


def batched_reports(r, samples, seed):
    return {rep.axiom: (rep.max_residual, rep.worst_case, rep.passed)
            for rep in verify_axioms(r, samples=samples, seed=seed)}


@pytest.mark.parametrize("r", MATRIX_FAMILIES, ids=by_name)
@pytest.mark.parametrize("seed", range(6))
def test_verify_axioms_matches_per_sample_oracle_bitwise(r, seed):
    got, want = batched_reports(r, 9, seed), oracle_verify_axioms(r, 9, seed)
    assert list(got) == list(want)
    for name in want:
        assert repr(got[name][0]) == repr(want[name][0])
        assert got[name][1:] == want[name][1:]


@pytest.mark.parametrize("r", VECTOR_LIKE, ids=lambda r: f"{r.name}{r.params}")
@pytest.mark.parametrize("seed", range(6))
def test_verify_axioms_matches_per_sample_oracle_on_vectors(r, seed):
    got, want = batched_reports(r, 60, seed), oracle_verify_axioms(r, 60, seed)
    assert list(got) == list(want)
    for name in want:
        assert got[name][2] == want[name][2]
        if got[name][0] == want[name][0]:  # ties go to the earliest sample in both
            assert got[name][1] == want[name][1]
        if math.isinf(want[name][0]):
            assert got[name][0] == want[name][0]
        else:
            assert abs(got[name][0] - want[name][0]) <= 1e-15


@pytest.mark.parametrize("r", ALL_REALIZATIONS, ids=by_name)
def test_op_on_stacks_matches_per_element_loop(r):
    rows = draws(r, 7, 12)
    xs, ys, _, ss, ts = map(list, zip(*rows))
    t = np.array(ts)
    cases = [
        (np.stack(xs), np.stack(ys), [(x, y) for x, y in zip(xs, ys)]),  # stack acts on stack
        (xs[0], np.stack(ys), [(xs[0], y) for y in ys]),                  # one x acts on a stack
        (np.stack(xs), ys[0], [(x, ys[0]) for x in xs]),                  # a stack acts on one y
    ]
    for x, y, pairs in cases:
        got = r.op(x, t, y)
        assert len(got) == len(t)
        want = [r.op(a, float(tk), b) for (a, b), tk in zip(pairs, t)]
        dist = np.asarray(r.metric(got, np.stack(want)))
        assert dist.shape == (len(t),)
        for k, (member, w) in enumerate(zip(got, want)):
            assert r.metric(member, w) <= PARITY_TOL
            assert dist[k] == r.metric(member, w)


@settings(max_examples=40)
@given(
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_norms=st.lists(st.one_of(st.none(), st.floats(min_value=-3.0, max_value=3.0)),
                       min_size=1, max_size=10),
)
def test_stacked_expm_is_bitwise_per_matrix(dim, seed, log_norms):
    # Skew-Hermitian members of Frobenius norm 0 (None) or 10**-3 .. 10**3:
    # their exponentials are unitary, so none overflows, and each member
    # takes a squaring count of its own.
    rng = np.random.default_rng(seed)
    members = []
    for log_norm in log_norms:
        h = 1j * qk.random_hermitian(rng, dim)
        scale = 0.0 if log_norm is None else 10.0**log_norm / np.linalg.norm(h)
        members.append(scale * h)
    got = qk.expm(np.stack(members))
    for member, m, log_norm in zip(got, members, log_norms):
        assert np.array_equal(member, qk.expm(m))
        if log_norm is None:
            assert np.array_equal(member, np.eye(dim))


def counting(r):
    """``r`` with an op that counts its calls in ``calls[0]``."""
    calls = [0]

    def op(x, t, y):
        calls[0] += 1
        return r.op(x, t, y)

    return qk.Realization(name=r.name, carrier=r.carrier, op=op, metric=r.metric,
                          sample=r.sample, default_tolerance=r.default_tolerance,
                          family=r.family), calls


@pytest.mark.parametrize("r", ALL_REALIZATIONS, ids=by_name)
def test_verify_axioms_makes_a_fixed_number_of_op_calls(r):
    for samples in (1, 40):  # one slice: x acts twice, y and x ▷ y act together once
        counted, calls = counting(r)
        verify_axioms(counted, samples=samples, seed=1)
        assert calls[0] == 3


@pytest.mark.parametrize("dim", [2, 6])
def test_verify_axioms_decomposes_four_stacks_per_hermitian_slice(monkeypatch, dim):
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
    step = verify.BLOCK_NUMBERS // (5 * dim * dim)  # samples per slice; one block holds 2.5 slices
    for samples, slices in ((1, [1]), (step, [step]), (step + 1, [step, 1])):
        shapes.clear()
        verify_axioms(qk.matrix_hermitian(dim), samples=samples, seed=2)
        # Three calls per slice: x, then y and x ▷ y stacked, then x again.
        assert shapes == [(n, m, dim, dim) for m in slices for n in (1, 2, 1)]


@pytest.mark.parametrize("r", ALL_REALIZATIONS + [qk.matrix_hermitian(5)], ids=by_name)
def test_verify_axioms_op_outputs_stay_within_block_numbers(monkeypatch, r):
    monkeypatch.setattr(verify, "BLOCK_NUMBERS", 96)
    sizes = []

    def op(x, t, y):
        out = r.op(x, t, y)
        sizes.append(np.size(out))
        return out

    verify_axioms(qk.Realization(name=r.name, carrier=r.carrier, op=op, metric=r.metric,
                                 sample=r.sample, default_tolerance=r.default_tolerance,
                                 family=r.family), samples=45, seed=0)
    size = np.size(r.sample(np.random.default_rng(0)))
    assert max(sizes) <= max(96, 5 * size)  # a slice is one sample if five outputs exceed it


def test_breakdown_in_one_sample_scores_only_that_term_inf():
    base = qk.convex_flow(2)
    bad_t = draws(base, 8, 3)[5][4]

    def op(x, t, y):
        # Only the inverse law acts for time -t; it breaks down at sample 5.
        if np.any(np.asarray(t) == -bad_t):
            raise OverflowError("breakdown")
        return base.op(x, t, y)

    broken = qk.Realization(name="broken", carrier=base.carrier, op=op, metric=base.metric,
                            sample=base.sample, default_tolerance=base.default_tolerance)
    got, want = batched_reports(broken, 8, 3), oracle_verify_axioms(broken, 8, 3)
    assert got == want
    assert got["inverse-law"] == (math.inf, {"sample": 5, "t": bad_t}, False)
    healthy = batched_reports(base, 8, 3)
    for name in ("self-action", "self-distributivity", "idempotency"):
        assert got[name] == healthy[name] and got[name][2]


def test_breakdown_in_a_later_slice_scores_like_the_per_record_oracle(monkeypatch):
    monkeypatch.setattr(verify, "BLOCK_NUMBERS", 96)  # slices of 9 samples of 2-vectors
    base = qk.convex_flow(2)
    bad_t = draws(base, 45, 3)[30][4]

    def op(x, t, y):
        # Only the inverse law acts for time -t; it breaks down at sample 30, in the 4th slice.
        if np.any(np.asarray(t) == -bad_t):
            raise OverflowError("breakdown")
        return base.op(x, t, y)

    broken = qk.Realization(name="broken", carrier=base.carrier, op=op, metric=base.metric,
                            sample=base.sample, default_tolerance=base.default_tolerance)
    got = verify_axioms(broken, samples=45, seed=3)
    assert report_json(got) == report_json(per_record_verify_axioms(broken, 45, 3))
    reports = {rep.axiom: rep for rep in got}
    assert reports["inverse-law"].max_residual == math.inf
    assert reports["inverse-law"].worst_case == {"sample": 30, "t": bad_t}
    for healthy in verify_axioms(base, samples=45, seed=3):
        if healthy.axiom != "inverse-law":
            assert healthy.to_json() == {**reports[healthy.axiom].to_json(),
                                         "realization": "convex-flow"}


@settings(max_examples=60)
@given(
    name=st.sampled_from(qk.REALIZATION_NAMES),
    dim=st.integers(min_value=1, max_value=4),
    levels=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_stack_acts_on_every_level_as_each_member_alone(name, dim, levels, n, seed):
    # The contract verify_axioms relies on: op(x[None], T, Y) with T of shape (levels, n)
    # is, bit for bit, x[j] acting on Y[i, j] for time T[i, j], each computed alone.
    r = qk.make_realization(name, dim=dim)
    rng = np.random.default_rng(seed)
    x = np.array([r.sample(rng) for _ in range(n)])
    ys = np.array([[r.sample(rng) for _ in range(n)] for _ in range(levels)])
    ts = rng.uniform(-PARAM_RANGE, PARAM_RANGE, (levels, n))
    ts[0, 0] = 0.0
    got = r.op(x[None], ts, ys)
    assert got.shape == ys.shape
    for i in range(levels):
        for j in range(n):
            assert got[i, j].tobytes() == np.asarray(r.op(x[j], ts[i, j], ys[i, j])).tobytes()


@pytest.mark.parametrize("r", [r for r in FAMILIES if r.vector_carrier], ids=by_name)
def test_numeric_bracket_is_one_op_call(r):
    rng = np.random.default_rng(13)
    x, y = r.sample(rng), r.sample(rng)
    counted, calls = counting(r)
    got = qk.numeric_bracket(counted, x, y)
    assert calls[0] == 1
    h = DEFAULT_STEP
    assert np.array_equal(got, (r.op(x, h, y) - r.op(x, -h, y)) / (2.0 * h))


# ---------------------------------------------------------------------------
# noether_suite against the per-pair loop


def oracle_noether_check(r, x, y, mode):
    """The per-pair check: one op (or bracket) call per direction, each
    scored alone.  Returns (x_fixes_y residual, y_fixes_x residual)."""
    if mode == "sampled":
        def direction(a, b):
            return guarded(lambda: np.max(r.metric(r.op(a, GRID, b), b)))
    else:
        def direction(a, b):
            return guarded(lambda: r.metric(r.analytic_bracket(a, b), 0.0))
    return direction(x, y), direction(y, x)


def oracle_noether_suite(r, pairs, seed):
    """The per-pair loop: the x = x control, then each pair drawn, checked
    and, where a bracket exists, checked again by the bracket criterion."""
    rng, sample = np.random.default_rng(seed), old_sampler(r)
    control = sample(rng)
    cxy, cyx = oracle_noether_check(r, control, control, "sampled")
    rows, modes_agree = [], True if r.analytic_bracket is not None else None
    for _ in range(pairs):
        x, y = sample(rng), sample(rng)
        res = oracle_noether_check(r, x, y, "sampled")
        rows.append((x, y, res))
        if modes_agree is not None:
            bracket = oracle_noether_check(r, x, y, "bracket")
            if [v <= NOETHER_TOL for v in bracket] != [v <= NOETHER_TOL for v in res]:
                modes_agree = False
    return {"control_consistent": cxy <= NOETHER_TOL and cyx <= NOETHER_TOL,
            "modes_agree": modes_agree, "rows": rows}


NOETHER_CARRIERS = [qk.matrix_hermitian(2), qk.matrix_hermitian(3), qk.matrix_hermitian(6),
                    qk.matrix_general(3), qk.fixed_spectrum([1.0, 2.0, 3.0]),
                    qk.fixed_spectrum([-2.0, -1.0, 0.5, 1.5, 3.0]), qk.bloch(),
                    qk.convex_flow(3), qk.union_lie(), qk.corrupted_flow(3)]


def assert_suite_matches_oracle(r, pairs, seed):
    got, want = qk.noether_suite(r, pairs=pairs, seed=seed), oracle_noether_suite(r, pairs, seed)
    assert (got.control_consistent, got.modes_agree) == (want["control_consistent"],
                                                         want["modes_agree"])
    assert got.pairs == len(got.verdicts) == pairs
    for v, (x, y, res) in zip(got.verdicts, want["rows"]):
        assert repr(list(v.residuals.values())) == repr(list(res))
        assert (v.x_fixes_y, v.y_fixes_x) == tuple(value <= NOETHER_TOL for value in res)
        assert v.consistent == (v.x_fixes_y == v.y_fixes_x) and v.method == "sampled"
        # The verdicts keep the drawn elements themselves, union elements too,
        # whose repr is the default encoder.
        assert type(v.x) is type(x) and type(v.y) is type(y)
        assert (v.to_json()["x"], v.to_json()["y"]) == (repr(x), repr(y))
        assert np.asarray(v.x).tobytes() == np.asarray(x).tobytes()
        assert np.asarray(v.y).tobytes() == np.asarray(y).tobytes()
    bad = [v for v in got.verdicts if not v.consistent]
    assert got.inconsistent_count == len(bad)
    assert got.first_inconsistent is (bad[0] if bad else None)


@pytest.mark.parametrize("r", NOETHER_CARRIERS, ids=lambda r: f"{r.name}{r.params}")
@pytest.mark.parametrize("seed", range(6))
def test_noether_suite_matches_per_pair_oracle_bitwise(r, seed):
    assert_suite_matches_oracle(r, 6, seed)


def test_noether_suite_matches_per_pair_oracle_across_blocks():
    # 41 × 256 numbers per pair: 21 pairs take several blocks.
    r = qk.matrix_hermitian(16)
    counted, calls = counting(r)
    qk.noether_suite(counted, pairs=20, seed=0)
    assert calls[0] > 2
    assert_suite_matches_oracle(r, 20, 0)


@pytest.mark.parametrize("r", [qk.convex_flow(3), qk.matrix_hermitian(3), qk.bloch(),
                               qk.union_lie()], ids=by_name)
@pytest.mark.parametrize("step", [3, 7])
def test_noether_stack_split_by_a_block_boundary_matches_the_oracle(monkeypatch, r, step):
    # The control and 6 pairs stack 7 members per direction, 14 in all.  Blocks of 3 split
    # the first direction and straddle both; blocks of 7 split the stack between them.
    size = NOETHER_GRID * np.size(r.sample(np.random.default_rng(0)))
    monkeypatch.setattr(verify, "BLOCK_NUMBERS", step * size)
    counted, calls = counting(r)
    qk.noether_suite(counted, pairs=6, seed=0)
    assert calls[0] == -(-14 // step)
    for seed in range(3):
        assert_suite_matches_oracle(r, 6, seed)


def test_breakdown_in_one_pair_scores_only_that_direction_inf():
    base, pairs, seed, k = qk.convex_flow(2), 6, 4, 3
    rng = np.random.default_rng(seed)
    draws = [base.sample(rng) for _ in range(2 * pairs + 1)]
    bad_x = draws[1 + 2 * k]   # the control, then x and y of each pair

    def op(x, t, y):
        if np.any(np.all(np.asarray(x) == bad_x, axis=-1)):
            raise OverflowError("breakdown")
        return base.op(x, t, y)

    broken, calls = counting(qk.Realization(name="broken", carrier=base.carrier, op=op,
                                            metric=base.metric, sample=base.sample,
                                            default_tolerance=base.default_tolerance))
    got = qk.noether_suite(broken, pairs=pairs, seed=seed).verdicts
    healthy = qk.noether_suite(base, pairs=pairs, seed=seed).verdicts
    assert got[k].residuals == {"x_fixes_y": math.inf,
                                "y_fixes_x": healthy[k].residuals["y_fixes_x"]}
    for i, (v, w) in enumerate(zip(got, healthy)):
        if i != k:
            assert v.residuals == w.residuals
    # The block of both directions, then each of its members again.
    assert calls[0] == 1 + 2 * (pairs + 1)


@pytest.mark.parametrize("r", [qk.bloch(), qk.matrix_hermitian(3), qk.union_lie()], ids=by_name)
def test_noether_suite_op_calls_do_not_grow_with_pairs(r):
    size = NOETHER_GRID * np.size(r.sample(np.random.default_rng(0)))
    for pairs in (1, 10, 50):
        counted, calls = counting(r)
        qk.noether_suite(counted, pairs=pairs, seed=2)
        # Both directions stacked, one call per block of BLOCK_NUMBERS // size members:
        # only matrix-hermitian(3)'s 2 × 51 members at 50 pairs take two blocks (of 88).
        assert calls[0] == -(-2 * (pairs + 1) // (verify.BLOCK_NUMBERS // size))
