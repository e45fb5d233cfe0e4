"""Realization-level tests: pinned operation values, carrier closure,
convex identities, and the sphere-to-projection embedding."""

import copy
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlekit as qk
from quandlekit.verify import PARAM_RANGE, _axiom_terms

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def family_realizations():
    return [
        qk.matrix_hermitian(2),
        qk.matrix_hermitian(3),
        qk.matrix_general(2),
        qk.matrix_general(4),
        qk.bloch(),
        qk.convex_flow(3),
        qk.fixed_spectrum([1.0, 2.0, 3.0]),
        qk.union_lie(),
    ]


# ---------------------------------------------------------------------------
# matrix realizations


def test_skew_op_at_zero_and_idempotency():
    rng = np.random.default_rng(42)
    r = qk.matrix_hermitian(3)
    x, y = r.sample(rng), r.sample(rng)
    assert r.metric(r.op(x, 0.0, y), y) == 0.0
    assert r.metric(r.op(x, 1.9, x), x) < 1e-12


def test_skew_quarter_turn_pin():
    out = qk.op_matrix_skew(qk.PAULI_Z, math.pi / 2, qk.PAULI_X)
    assert qk.max_abs(out + qk.PAULI_X) < 1e-12


def test_skew_outputs_stay_hermitian():
    rng = np.random.default_rng(1)
    r = qk.matrix_hermitian(4)
    for _ in range(25):
        x, y = r.sample(rng), r.sample(rng)
        t = float(rng.uniform(-3, 3))
        assert qk.is_hermitian(r.op(x, t, y), tol=1e-10)


def test_plain_op_matches_direct_exponentials():
    rng = np.random.default_rng(2)
    r = qk.matrix_general(3)
    x, y = r.sample(rng), r.sample(rng)
    t = 1.3
    want = qk.expm(t * x) @ y @ qk.expm(-t * x)
    assert qk.max_abs(r.op(x, t, y) - want) == 0.0


def test_inverse_law_within_1e9():
    rng = np.random.default_rng(3)
    for r in family_realizations():
        worst = 0.0
        for _ in range(50):
            x, y = r.sample(rng), r.sample(rng)
            t = float(rng.uniform(-3, 3))
            worst = max(worst, r.metric(r.op(x, -t, r.op(x, t, y)), y))
        assert worst <= 1e-9, r.name


# ---------------------------------------------------------------------------
# sphere realization


def test_bloch_rotation_pins():
    assert np.linalg.norm(qk.bloch_rotate(EZ, 2 * math.pi, EX) - EX) < 1e-12
    assert np.linalg.norm(qk.bloch_rotate(EZ, math.pi, EX) - (-EX)) < 1e-12
    # right-hand rule: a quarter turn about +z sends +x to +y
    assert np.linalg.norm(qk.bloch_rotate(EZ, math.pi / 2, EX) - EY) < 1e-12


def test_bloch_fixes_own_axis():
    rng = np.random.default_rng(4)
    r = qk.bloch()
    for _ in range(20):
        x = r.sample(rng)
        t = float(rng.uniform(-3, 3))
        assert np.linalg.norm(qk.bloch_rotate(x, t, x) - x) < 1e-12


def test_bloch_outputs_are_unit():
    rng = np.random.default_rng(5)
    r = qk.bloch()
    for _ in range(50):
        out = r.op(r.sample(rng), float(rng.uniform(-3, 3)), r.sample(rng))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_sphere_draws_divide_by_the_norm_numpy_computes():
    def reference(rng):  # the sampler as written with np.linalg.norm
        while True:
            v = rng.normal(size=3)
            n = float(np.linalg.norm(v))
            if n > 1e-3:
                return v / n

    a, b = np.random.default_rng(9), np.random.default_rng(9)
    sample = qk.bloch().sample
    for _ in range(10**4):
        assert sample(a).tobytes() == reference(b).tobytes()
    assert a.random() == b.random()


def test_bloch_small_time_moves_along_cross_product():
    rng = np.random.default_rng(6)
    r = qk.bloch()
    x, y = r.sample(rng), r.sample(rng)
    h = 1e-6
    drift = (r.op(x, h, y) - y) / h
    assert np.linalg.norm(drift - np.cross(x, y)) < 1e-5


def test_bloch_decode_requires_unit_vector():
    r = qk.bloch()
    assert np.allclose(r.decode([0.0, 0.0, 1.0]), EZ)
    with pytest.raises(ValueError):
        r.decode([0.0, 0.0, 1.1])
    with pytest.raises(ValueError):
        r.decode([1.0, 0.0])


@pytest.mark.parametrize("r", [qk.bloch(), qk.convex_flow(3), qk.convex_spindle(0.5, 3)],
                         ids=lambda r: r.name)
@pytest.mark.parametrize("bad", [
    [1, True, "2"],
    [0, 0, True],
    [0.0, "1", 0.0],
    [0.0, None, 1.0],
    [0.0, [1.0], 0.0],
])
def test_vector_decode_refuses_non_numbers(r, bad):
    with pytest.raises(ValueError, match="vector JSON entry must be a number"):
        r.decode(bad)


# ---------------------------------------------------------------------------
# embedding


def test_embedding_pins():
    np.testing.assert_allclose(qk.bloch_embedding(EZ), np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(qk.bloch_embedding(-EZ), np.diag([0.0, 1.0]), atol=1e-15)


def test_embedding_is_rank_one_projection():
    rng = np.random.default_rng(7)
    r = qk.bloch()
    for _ in range(20):
        p = qk.bloch_embedding(r.sample(rng))
        assert qk.max_abs(p @ p - p) <= 1e-12
        assert abs(float(np.trace(p).real) - 1.0) <= 1e-12
        assert qk.is_hermitian(p)


def test_embedding_intertwines_rotation_and_conjugation():
    # embed(x >t y) = e^{it h(x)} embed(y) e^{-it h(x)} with h = bloch_generator
    rng = np.random.default_rng(8)
    r = qk.bloch()
    worst = 0.0
    for _ in range(100):
        x, y = r.sample(rng), r.sample(rng)
        t = float(rng.uniform(-3, 3))
        lhs = qk.bloch_embedding(r.op(x, t, y))
        rhs = qk.op_matrix_skew(qk.bloch_generator(x), t, qk.bloch_embedding(y))
        worst = max(worst, qk.max_abs(lhs - rhs))
    assert worst <= 1e-8


def test_generator_map_matches_rotation_derivative():
    # d/dt embed(x >t y) at 0 equals i[h(x), embed(y)]
    rng = np.random.default_rng(9)
    r = qk.bloch()
    x, y = r.sample(rng), r.sample(rng)
    h = 1e-6
    lhs = (qk.bloch_embedding(r.op(x, h, y)) - qk.bloch_embedding(r.op(x, -h, y))) / (2 * h)
    rhs = 1j * qk.commutator(qk.bloch_generator(x), qk.bloch_embedding(y))
    assert qk.max_abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# convex realizations


def test_convex_flow_pins():
    rng = np.random.default_rng(10)
    x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    assert np.allclose(qk.op_convex_flow(x, 0.0, y), y)
    assert np.allclose(qk.op_convex_flow(x, 2.2, x), x)
    np.testing.assert_allclose(
        qk.op_convex_flow(np.zeros(3), math.log(2.0), y), y / 2, atol=1e-15
    )


def test_convex_flow_identities_to_1e12():
    rng = np.random.default_rng(11)
    r = qk.convex_flow(4)
    worst = {"additive": 0.0, "left-sd": 0.0, "right-sd": 0.0}
    for _ in range(300):
        x, y, z = (r.sample(rng) for _ in range(3))
        s, t = rng.uniform(-3, 3, size=2)
        op = r.op
        worst["additive"] = max(
            worst["additive"], r.metric(op(x, t + s, y), op(x, t, op(x, s, y)))
        )
        worst["left-sd"] = max(
            worst["left-sd"],
            r.metric(op(x, s, op(y, t, z)), op(op(x, s, y), t, op(x, s, z))),
        )
        # corrected mixed right self-distributivity
        worst["right-sd"] = max(
            worst["right-sd"],
            r.metric(op(op(x, t, y), s, z), op(op(x, s, z), t, op(y, s, z))),
        )
    for name, value in worst.items():
        assert value <= 1e-12, (name, value)


def test_convex_flow_uncorrected_right_sd_fails_at_s_zero():
    # the uncorrected parameter placement (x*t y)*s z = (x*t z)*s (y*t z)
    # collapses to z = y*t z at s = 0, which is false whenever y != z
    r = qk.convex_flow(3)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    z = np.array([0.0, 0.0, 1.0])
    s, t = 0.0, 1.0
    lhs = r.op(r.op(x, t, y), s, z)
    rhs = r.op(r.op(x, t, z), s, r.op(y, t, z))
    assert r.metric(lhs, rhs) > 0.5


def test_convex_spindle_axioms_and_right_sd():
    rng = np.random.default_rng(12)
    for body in ("box", "simplex"):
        r = qk.convex_spindle(0.3, 4, body)
        for _ in range(100):
            x, y, z = (r.sample(rng) for _ in range(3))
            op = r.op
            assert r.metric(op(x, 0.0, x), x) <= 1e-15
            assert r.metric(op(x, 0.0, op(y, 0.0, z)),
                            op(op(x, 0.0, y), 0.0, op(x, 0.0, z))) <= 1e-15
            assert r.metric(op(op(x, 0.0, y), 0.0, z),
                            op(op(x, 0.0, z), 0.0, op(y, 0.0, z))) <= 1e-15


def test_convex_spindle_stays_in_body():
    rng = np.random.default_rng(13)
    box = qk.convex_spindle(0.7, 3, "box")
    for _ in range(50):
        out = box.op(box.sample(rng), 0.0, box.sample(rng))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
    simplex = qk.convex_spindle(0.7, 3, "simplex")
    for _ in range(50):
        out = simplex.op(simplex.sample(rng), 0.0, simplex.sample(rng))
        assert np.all(out >= 0.0) and abs(float(np.sum(out)) - 1.0) <= 1e-12


def test_convex_spindle_validation():
    with pytest.raises(ValueError):
        qk.convex_spindle(bias=1.5)
    with pytest.raises(ValueError):
        qk.convex_spindle(bias=-0.1)
    with pytest.raises(ValueError):
        qk.convex_spindle(body="ball")
    assert qk.convex_spindle(0.0).family is False
    for bad in ("0.5", True):  # refused, not parsed or read as 1.0
        with pytest.raises(ValueError, match=f"bias must be a number, got {bad!r}"):
            qk.convex_spindle(bias=bad)
    with pytest.raises(ValueError, match=r"bias must lie in \[0, 1\], got nan"):
        qk.convex_spindle(bias=float("nan"))


# ---------------------------------------------------------------------------
# fixed spectrum


def test_fixed_spectrum_sampler_has_the_spectrum():
    r = qk.fixed_spectrum([1.0, 2.0, 3.0])
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = r.sample(rng)
        assert qk.is_hermitian(a)
        np.testing.assert_allclose(np.linalg.eigvalsh(a), [1.0, 2.0, 3.0], atol=1e-10)


def test_fixed_spectrum_op_preserves_spectrum():
    r = qk.fixed_spectrum([-1.0, 0.5, 2.0])
    rng = np.random.default_rng(15)
    for _ in range(15):
        x, y = r.sample(rng), r.sample(rng)
        t = float(rng.uniform(-3, 3))
        out = r.op(x, t, y)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [-1.0, 0.5, 2.0], atol=1e-8)
    assert r.metric(r.op(x, 0.0, y), y) < 1e-12
    assert r.metric(r.op(x, 1.1, x), x) < 1e-12


def test_fixed_spectrum_rejects_drift():
    r = qk.fixed_spectrum([1.0, 2.0])
    wrong = np.diag([1.0, 2.5]).astype(complex)
    with pytest.raises(ArithmeticError):
        r.op(wrong, 0.3, wrong)


def test_fixed_spectrum_decode_names_both_spectra_and_op_names_the_drift():
    r = qk.fixed_spectrum([1.0, 2.0])
    wrong = np.diag([1.0, 2.5]).astype(complex)
    with pytest.raises(ValueError, match=re.escape(
            "matrix has spectrum [1.0, 2.5], not the carrier's [1.0, 2.0]")):
        r.decode(qk.matrix_to_json(wrong))
    with pytest.raises(ArithmeticError, match=r"^spectrum drifted by 5\.000e-01 "):
        r.op(wrong, 0.3, wrong)


def test_fixed_spectrum_factory_validation():
    with pytest.raises(ValueError):
        qk.fixed_spectrum([1.0, 1.0 + 1e-9])  # gap below threshold
    with pytest.raises(ValueError):
        qk.fixed_spectrum([])
    with pytest.raises(ValueError):
        qk.fixed_spectrum([np.nan, 1.0])


@pytest.mark.parametrize("eigenvalues,bad", [
    ([True, 2.0], True),
    (["1", 2.0], "1"),
    (np.array([True, False]), True),
    ([1.0, None], None),
])
def test_fixed_spectrum_refuses_non_numbers(eigenvalues, bad):
    with pytest.raises(ValueError, match=re.escape(f"eigenvalue must be a number, got {bad!r}")):
        qk.fixed_spectrum(eigenvalues)


def test_fixed_spectrum_takes_ints_floats_tuples_and_arrays():
    for eigenvalues in ([2, 1.0], (1, 2), np.array([2, 1]), np.array([1.0, 2.0]), [np.int64(1), 2.0]):
        assert qk.fixed_spectrum(eigenvalues).params == {"spectrum": [1.0, 2.0]}


@pytest.mark.parametrize("eigenvalues", [3.0, np.float64(2.0), [[1.0, 2.0]], np.ones((2, 2))])
def test_fixed_spectrum_refuses_non_sequences(eigenvalues):
    with pytest.raises(ValueError, match="eigenvalues must be a nonempty 1-d sequence"):
        qk.fixed_spectrum(eigenvalues)


@pytest.mark.parametrize("spectrum,dim", [([1, 2], 3), ([1.0, 2.0, 3.0], 2)])
def test_fixed_spectrum_names_a_size_mismatch(spectrum, dim):
    r = qk.fixed_spectrum(spectrum)
    a = np.diag(np.arange(1.0, dim + 1)).astype(complex)
    message = f"a {dim}x{dim} matrix cannot carry {len(spectrum)} eigenvalues"
    with pytest.raises(ValueError, match=message):
        r.decode(qk.matrix_to_json(a))
    with pytest.raises(ValueError, match=message):
        r.op(a, 0.5, a)


def test_fixed_spectrum_decode_checks_spectrum():
    r = qk.fixed_spectrum([1.0, 2.0])
    good = qk.matrix_to_json(np.diag([2.0, 1.0]).astype(complex))
    assert r.decode(good) is not None
    with pytest.raises((ValueError, ArithmeticError)):
        r.decode(qk.matrix_to_json(np.diag([1.0, 3.0]).astype(complex)))


# ---------------------------------------------------------------------------
# union realization


def test_union_op_cases():
    a = qk.UnionElement("algebra", 1.0)
    b = qk.UnionElement("algebra", -0.4)
    p = qk.UnionElement("space", [1.0, 0.0])
    assert np.array_equal(a, [0.0, 1.0, 0.0]) and np.array_equal(p, [1.0, 1.0, 0.0])
    # space fixes everything
    assert np.array_equal(qk.op_union(p, 2.0, a), a)
    assert np.array_equal(qk.op_union(p, 2.0, p), p)
    # abelian algebra: a fixes b
    assert np.array_equal(qk.op_union(a, 2.0, b), b)
    # algebra rotates the plane: angle t*a
    out = qk.op_union(a, math.pi / 2, p)
    assert out.shape == (3,) and out[0] == 1.0
    np.testing.assert_allclose(out[1:], [0.0, 1.0], atol=1e-12)
    # rows in, rows out
    assert np.array_equal(qk.op_union(np.asarray(a), math.pi / 2, np.asarray(p)), out)


def test_union_element_validation():
    with pytest.raises(ValueError):
        qk.UnionElement("vector", 1.0)
    with pytest.raises(ValueError):
        qk.UnionElement("space", [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="algebra value must be finite"):
        qk.UnionElement("algebra", float("inf"))
    for bad in ("0.5", True):
        with pytest.raises(ValueError, match=f"algebra value must be a number, got {bad!r}"):
            qk.UnionElement("algebra", bad)
    for value, bad in (([0.5, True], True), (["0.5", 1.0], "0.5"), (np.array([True, False]), True)):
        with pytest.raises(ValueError, match=f"space value entry must be a number, got {bad!r}"):
            qk.UnionElement("space", value)
    e = qk.UnionElement("algebra", 2)
    with pytest.raises(AttributeError):
        e.part = "space"
    with pytest.raises(AttributeError):
        e.tag = 0.0


def test_union_space_value_keeps_numbers():
    for value in ([1, 0.5], (0.5, 2), np.array([1, 2]), np.float32([0.5, 1.5])):
        e = qk.UnionElement("space", value)
        assert e.value.dtype == np.float64 and np.array_equal(e.value, np.asarray(value, float))
    # A float64 array, as the sampler draws it, becomes the row's floats unchanged.
    v = np.array([0.1, -0.0])
    e = qk.UnionElement("space", v)
    assert np.array(e[1:]).tobytes() == e.value.tobytes() == v.tobytes()


def test_union_element_is_its_row():
    a = qk.UnionElement("algebra", 0.5)
    p = qk.UnionElement("space", np.array([0.25, -0.5]))
    assert isinstance(a, tuple) and a == (0.0, 0.5, 0.0) and p == (1.0, 0.25, -0.5)
    assert all(type(c) is float for c in (*a, *p))
    assert "__array__" not in dir(qk.UnionElement)
    assert "__setattr__" not in vars(qk.UnionElement)
    stack = np.array([a, p, qk.UnionElement("algebra", -2)])
    assert stack.dtype == np.float64
    assert np.array_equal(stack, [[0.0, 0.5, 0.0], [1.0, 0.25, -0.5], [0.0, -2.0, 0.0]])


def test_union_element_pickles_and_copies():
    for e in (qk.UnionElement("algebra", -0.75), qk.UnionElement("space", [0.5, 2.0])):
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert type(twin) is qk.UnionElement and twin == e and repr(twin) == repr(e)


def test_union_encode_takes_op_rows():
    r = qk.union_lie()
    a, p = qk.UnionElement("algebra", 0.5), qk.UnionElement("space", [1.0, 0.0])
    for x, y in ((a, p), (p, a), (a, a), (p, p)):
        row = r.op(x, 1.0, y)
        assert isinstance(row, np.ndarray)
        back = r.decode(r.encode(row))
        assert type(back) is qk.UnionElement and np.array_equal(back, row)
    traj = qk.sample_flow(r, a, p, t_end=1.0, steps=4)
    assert [r.encode(q)["part"] for q in traj.points] == ["space"] * 5


def test_union_metric_and_codec():
    r = qk.union_lie()
    a = qk.UnionElement("algebra", 0.5)
    p = qk.UnionElement("space", [0.0, 1.0])
    assert r.metric(a, p) == math.inf
    assert r.metric(a, qk.UnionElement("algebra", 0.75)) == 0.25
    round_a = r.decode(r.encode(a))
    assert round_a.part == "algebra" and round_a.value == 0.5
    round_p = r.decode(r.encode(p))
    assert round_p.part == "space" and np.allclose(round_p.value, p.value)
    with pytest.raises(ValueError):
        r.decode({"part": "algebra"})


@pytest.mark.parametrize("bad", [
    {"part": "algebra", "value": True},
    {"part": "algebra", "value": "0.5"},
    {"part": "algebra", "value": [0.5]},
    {"part": "space", "value": [1.0, "2"]},
    {"part": "space", "value": [False, 1.0]},
    {"part": "space", "value": [1.0, None]},
])
def test_union_decode_refuses_non_numbers(bad):
    with pytest.raises(ValueError, match="union element JSON 'value'"):
        qk.union_lie().decode(bad)


@pytest.mark.parametrize("part", ["bogus", ["space"], None])
def test_union_decode_names_a_bad_part_first(part):
    for value in (1.0, [1.0, 2.0], {}):
        with pytest.raises(ValueError) as exc:
            qk.union_lie().decode({"part": part, "value": value})
        assert str(exc.value) == f"part must be 'algebra' or 'space', got {part!r}"


def test_union_sampler_produces_both_parts():
    r = qk.union_lie()
    rng = np.random.default_rng(16)
    parts = {r.sample(rng).part for _ in range(50)}
    assert parts == {"algebra", "space"}


def test_union_redraws_as_the_numpy_norm_did():
    def reference(unit):  # the reader as written with np.linalg.norm
        if unit() < 0.5:
            while abs(a := -1.0 + 2.0 * unit()) < 0.05:
                pass
            return (0.0, a, 0.0)
        while float(np.linalg.norm(p := (-1.0 + 2.0 * unit(), -1.0 + 2.0 * unit()))) < 0.05:
            pass
        return (1.0, *p)

    units = np.random.default_rng(11).random(400_000)
    b = iter(units.tolist()).__next__
    end, rows = qk.union_lie().units[1][0](units)  # the scan redraws by np.hypot
    i = 0
    for _ in range(10**5):
        assert tuple(rows[i].tolist()) == reference(b)
        i = int(end[i])
    assert units[i] == b()  # both read as many units


def test_union_scan_reports_an_element_cut_off_by_the_end():
    scan = qk.union_lie().units[1][0]
    # A plane point missing a coordinate, an algebra scale redrawn (u = 0.5 gives 0) past the
    # end, a plane pair redrawn past the end, and a bare part.
    for u in ([0.9, 0.3], [0.1, 0.5], [0.9, 0.5, 0.5], [0.2], [0.7]):
        end, rows = scan(np.array(u))
        assert end[0] > len(u) and rows.shape == (len(u), 3)
    u = np.array([0.125, 0.5, 0.75, 0.875, 0.5, 0.5, 0.25, 0.0])
    end, rows = scan(u)
    assert end[:4].tolist() == [3, 4, 5, 8]
    assert rows[:4].tolist() == [[0.0, 0.5, 0.0], [1.0, 0.5, 0.75], [1.0, 0.75, 0.0],
                                 [1.0, -0.5, -1.0]]
    assert scan(u[:7])[0][3] > 7  # its second pair is cut off


def test_union_scan_of_a_prefix_agrees_on_every_element_it_completes():
    scan = qk.union_lie().units[1][0]
    rng = np.random.default_rng(5)
    # Units near 0.5 draw coordinates near 0, so that redraws are common.
    u = np.where(rng.random(300) < 0.5, 0.5 + (rng.random(300) - 0.5) / 10, rng.random(300))
    full_end, full_rows = scan(u)
    for n in range(len(u) + 1):
        end, rows = scan(u[:n])
        done = full_end[:n] <= n
        assert np.array_equal(end[done], full_end[:n][done])
        assert rows[done].tobytes() == full_rows[:n][done].tobytes()
        assert (end[~done] > n).all()


# ---------------------------------------------------------------------------
# axioms at random parameters


@settings(max_examples=100)
@given(
    name=st.sampled_from(["matrix-hermitian", "matrix-general", "fixed-spectrum"]),
    dim=st.integers(min_value=1, max_value=6),
    s=st.floats(min_value=-PARAM_RANGE, max_value=PARAM_RANGE),
    t=st.floats(min_value=-PARAM_RANGE, max_value=PARAM_RANGE),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matrix_realizations_meet_every_axiom(name, dim, s, t, seed):
    r = qk.make_realization(name, dim=dim)
    rng = np.random.default_rng(seed)
    x, y, z = (r.sample(rng) for _ in range(3))
    for axiom, (term, _) in _axiom_terms(r).items():
        assert term(x, y, z, s, t) <= r.default_tolerance, axiom


@settings(max_examples=100)
@given(
    name=st.sampled_from(["bloch", "convex-flow", "union", "convex-spindle"]),
    dim=st.integers(min_value=1, max_value=6),
    bias=st.floats(min_value=0.0, max_value=1.0),
    body=st.sampled_from(["box", "simplex"]),
    s=st.floats(min_value=-PARAM_RANGE, max_value=PARAM_RANGE),
    t=st.floats(min_value=-PARAM_RANGE, max_value=PARAM_RANGE),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vector_realizations_meet_every_axiom(name, dim, bias, body, s, t, seed):
    r = qk.make_realization(name, dim=dim, bias=bias, body=body)
    rng = np.random.default_rng(seed)
    x, y, z = (r.sample(rng) for _ in range(3))
    for axiom, (term, _) in _axiom_terms(r).items():
        assert term(x, y, z, s, t) <= r.default_tolerance, axiom


# ---------------------------------------------------------------------------
# registry and plumbing


def test_make_realization_names():
    for name in qk.REALIZATION_NAMES:
        r = qk.make_realization(name, dim=3)
        assert r.name == name
    with pytest.raises(ValueError):
        qk.make_realization("octonion")


@pytest.mark.parametrize("name", ["matrix-hermitian", "matrix-general", "convex-flow",
                                  "convex-spindle", "fixed-spectrum"])
@pytest.mark.parametrize("dim", [2.7, True, "2"])
def test_make_realization_refuses_non_integer_dim(name, dim):
    with pytest.raises(ValueError, match=f"dim must be an integer, got {dim!r}"):
        qk.make_realization(name, dim=dim)


@pytest.mark.parametrize("dim", [0, -2, 17, 10**15])
def test_fixed_spectrum_default_spectrum_bounds_dim(dim):
    with pytest.raises(ValueError, match=rf"dim must be in \[1, 16\], got {dim}$"):
        qk.make_realization("fixed-spectrum", dim=dim)


@settings(max_examples=40)
@given(st.sampled_from(qk.REALIZATION_NAMES), st.integers(min_value=0, max_value=2**32 - 1))
def test_decode_inverts_encode_on_samples(name, seed):
    r = qk.make_realization(name, dim=3)
    x = r.sample(np.random.default_rng(seed))
    back = r.decode(json.loads(json.dumps(r.encode(x))))
    assert type(back) is type(x)
    assert np.array_equal(np.asarray(back), np.asarray(x))


def test_make_realization_fixed_spectrum_default():
    r = qk.make_realization("fixed-spectrum", dim=3)
    assert r.params["spectrum"] == [1.0, 2.0, 3.0]


def test_sampler_normalizations():
    rng = np.random.default_rng(17)
    h = qk.matrix_hermitian(4).sample(rng)
    assert qk.is_hermitian(h) and abs(qk.max_abs(h) - 1.0) < 1e-14
    g = qk.matrix_general(4).sample(rng)
    assert qk.max_abs(g) <= 0.5 + 1e-12
    b = qk.bloch().sample(rng)
    assert abs(np.linalg.norm(b) - 1.0) < 1e-12


def test_realizations_are_frozen():
    r = qk.bloch()
    with pytest.raises(Exception):
        r.name = "other"
