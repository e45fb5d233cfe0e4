"""Matrix-core tests.

The hand-rolled expm, a [13/13] Pade core, is checked against independent
oracles: a straight truncated power series, eigendecomposition-based
reconstruction, and the two Taylor-18 kernels it replaced, the Horner core
and the Paterson-Stockmeyer core after it.  The LAPACK-backed eigh/spectrum
wrappers are checked for ordering, eigenpair residuals and the Hermiticity
gate.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlekit as qk
from quandlekit.linalg import _THETA13, HERMITICITY_TOL, _operands, eigh

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def series_expm(x, terms=60):
    """Independent oracle: plain truncated power series (small norms only)."""
    x = np.asarray(x, dtype=complex)
    acc = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ x / k
        acc = acc + term
    return acc


def oracle_expm_horner(x):
    """The retired expm kernel: the same scaling to Frobenius norm 1/2 and
    per-member squarings around an 18-step Horner Taylor loop."""
    x = np.asarray(x, dtype=complex)
    norm = np.linalg.norm(x, axis=(-2, -1))
    mantissa, exponent = np.frexp(norm)
    squarings = np.maximum(exponent + (mantissa > 0.5), 0)
    scaled = x * np.ldexp(1.0, -squarings)[..., None, None]
    eye = np.eye(x.shape[-1], dtype=complex)
    acc = eye
    for k in range(18, 0, -1):
        acc = eye + (scaled @ acc) / k
    for i in range(int(squarings.max())):
        acc = np.where((squarings > i)[..., None, None], acc @ acc, acc)
    return acc


def oracle_expm_taylor(x):
    """The retired expm kernel after Horner: the same scaling to Frobenius norm
    1/2 and masked squarings around the degree-18 Taylor polynomial by
    Paterson-Stockmeyer, B_0 + X⁴(B_1 + X⁴(B_2 + X⁴(B_3 + X⁴ B_4))) with
    B_j = c_{4j} I + c_{4j+1} X + c_{4j+2} X² + c_{4j+3} X³ and c_k = 1/k!."""
    x = np.asarray(x, dtype=complex)
    norm = np.linalg.norm(x, axis=(-2, -1))
    mantissa, exponent = np.frexp(norm)
    squarings = np.maximum(exponent + (mantissa > 0.5), 0)
    scaled = x * np.ldexp(1.0, -squarings)[..., None, None]
    eye = np.eye(x.shape[-1], dtype=complex)
    x2 = scaled @ scaled
    x3, x4 = x2 @ scaled, x2 @ x2
    c = [1.0 / math.factorial(k) for k in range(19)]
    acc = c[18] * x2 + c[17] * scaled + c[16] * eye
    for j in (12, 8, 4, 0):
        acc = c[j + 3] * x3 + c[j + 2] * x2 + c[j + 1] * scaled + x4 @ acc + c[j] * eye
    for i in range(int(squarings.max())):
        acc = np.where((squarings > i)[..., None, None], acc @ acc, acc)
    return acc


def seeded_generators(seed, dim, count=500):
    """``count`` generators of Frobenius norm log-uniform in [1e-3, 30]:
    Hermitian H, skew-Hermitian iH and general complex in about equal
    shares.  Returns the stack and, per member, the factor c (1 or i) with
    X = cH for the first two kinds, or 0 for a general X."""
    rng = np.random.default_rng([seed, dim])
    gens, factors = [], []
    for kind in rng.integers(0, 3, size=count):
        if kind == 2:
            g, c = qk.random_complex(rng, dim), 0
        else:
            c = 1j if kind else 1.0
            g = c * qk.random_hermitian(rng, dim)
        gens.append(g * (10.0 ** rng.uniform(-3, math.log10(30)) / np.linalg.norm(g)))
        factors.append(c)
    return np.stack(gens), np.array(factors)


def max_abs_rows(a):
    """max_abs of every member of a stack."""
    return np.max(np.abs(a), axis=(-2, -1))


# ---------------------------------------------------------------------------
# validation


def test_as_matrix_accepts_lists():
    a = qk.as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.complex128
    assert a.shape == (2, 2)


@pytest.mark.parametrize("bad", [
    [[1, 2, 3], [4, 5, 6]],          # non-square
    [1, 2, 3],                        # not 2-d
    [[float("nan")]],                 # non-finite
    np.zeros((17, 17)),               # beyond desk scale
    np.zeros((0, 0)),                 # empty
])
def test_as_matrix_rejects(bad):
    with pytest.raises(ValueError):
        qk.as_matrix(bad)


def test_hermitian_helpers():
    a = np.array([[1.0, 2 + 1j], [2 - 1j, 3.0]])
    assert qk.is_hermitian(a)
    assert qk.require_hermitian(a) is not None
    b = a.copy()
    b[0, 1] += 1e-6
    assert not qk.is_hermitian(b)
    with pytest.raises(ValueError):
        qk.require_hermitian(b)
    assert qk.is_hermitian(qk.hermitize(b))


def test_max_abs():
    assert qk.max_abs(np.array([[1, -3j], [2, 0]])) == 3.0


# ---------------------------------------------------------------------------
# commutator


def test_commutator_identity_and_self():
    rng = np.random.default_rng(42)
    y = qk.random_complex(rng, 3)
    assert qk.max_abs(qk.commutator(np.eye(3), y)) == 0.0
    assert qk.max_abs(qk.commutator(y, y)) == 0.0


def test_commutator_pauli():
    assert qk.max_abs(qk.commutator(SZ, SX) - 2j * SY) == 0.0


def test_commutator_antisymmetric_exactly():
    rng = np.random.default_rng(7)
    x, y = qk.random_complex(rng, 4), qk.random_complex(rng, 4)
    assert qk.max_abs(qk.commutator(x, y) + qk.commutator(y, x)) == 0.0


def test_commutator_bilinear():
    rng = np.random.default_rng(11)
    x, y, z = (qk.random_complex(rng, 3) for _ in range(3))
    lhs = qk.commutator(x, 2.5 * y + z)
    rhs = 2.5 * qk.commutator(x, y) + qk.commutator(x, z)
    assert qk.max_abs(lhs - rhs) < 1e-13


def test_commutator_dim_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        qk.commutator(np.eye(2), np.eye(3))


def test_commutator_stack_mismatch_names_the_matrix_dimensions():
    # Stacks of four: the member dimensions differ, not the stack lengths.
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        qk.commutator(np.zeros((4, 2, 2)), np.zeros((4, 3, 3)))


def test_commutator_broadcasts_one_matrix_against_a_stack():
    rng = np.random.default_rng(12)
    x = qk.random_complex(rng, 3)
    ys = np.stack([qk.random_complex(rng, 3) for _ in range(5)])
    got = qk.commutator(x, ys)
    assert got.shape == (5, 3, 3)
    for k in range(5):
        assert np.array_equal(got[k], qk.commutator(x, ys[k]))


# ---------------------------------------------------------------------------
# expm


def test_expm_zero_is_identity():
    assert qk.max_abs(qk.expm(np.zeros((3, 3))) - np.eye(3)) == 0.0


def test_expm_diagonal():
    out = qk.expm(np.diag([1.0 + 0j, -2.0 + 0j]))
    want = np.diag([math.e, math.exp(-2.0)])
    assert qk.max_abs(out - want) < 1e-14


def test_expm_rotation_generator():
    theta = 0.7
    gen = np.array([[0.0, -theta], [theta, 0.0]])
    want = np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])
    assert qk.max_abs(qk.expm(gen) - want) < 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
def test_expm_matches_series_oracle(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(8):
        x = qk.random_complex(rng, dim)
        x = x / max(qk.max_abs(x), 1.0)  # keep max-abs norm <= 1
        assert qk.max_abs(qk.expm(x) - series_expm(x)) <= 1e-10


def test_expm_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = 2.0 * qk.random_complex(rng, 4)  # large enough to force squaring
        w, v = np.linalg.eig(x)
        oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        # Measured at most 5.0e-15 relative on these ten.
        assert qk.max_abs(qk.expm(x) - oracle) <= 1e-14 * qk.max_abs(oracle)


@pytest.mark.parametrize("dim", range(1, 7))
def test_expm_matches_horner_oracle(dim):
    # The two cores round differently, and the squarings amplify that: 1.59e-14
    # relative here, 1.17-1.50e-14 on seeds 1-5.
    x, _ = seeded_generators(0, dim)
    got = qk.expm(x)
    assert np.all(max_abs_rows(got - oracle_expm_horner(x)) <= 5e-14 * max_abs_rows(got))
    for single in x[::50]:
        got = qk.expm(single)
        assert qk.max_abs(got - oracle_expm_horner(single)) <= 5e-14 * qk.max_abs(got)


@pytest.mark.parametrize("dim", range(1, 7))
def test_expm_matches_taylor_oracle(dim):
    # Pade and Taylor round differently and scale differently (1-norm
    # theta_13 / 2 against Frobenius norm 1/2): at most 1.59e-14 relative on
    # seed 0, 1.17-1.44e-14 on seeds 1-3.
    x, _ = seeded_generators(0, dim)
    got = qk.expm(x)
    assert np.all(max_abs_rows(got - oracle_expm_taylor(x)) <= 5e-14 * max_abs_rows(got))
    for single in x[::50]:
        got = qk.expm(single)
        assert qk.max_abs(got - oracle_expm_taylor(single)) <= 5e-14 * qk.max_abs(got)


def test_expm_is_as_accurate_as_horner_against_eigh():
    # e^{cH} = V diag(e^{cw}) V† for H = V diag(w) V†, on the Hermitian and
    # skew-Hermitian generators of dims 1-6 (about 2000).
    errors = {"new": [], "horner": []}
    for dim in range(1, 7):
        x, c = seeded_generators(0, dim)
        x, c = x[c != 0], c[c != 0]
        w, v = np.linalg.eigh(x / c[:, None, None])
        oracle = v @ (np.exp(c[:, None] * w)[..., None] * v.conj().swapaxes(-1, -2))
        for name, kernel in (("new", qk.expm), ("horner", oracle_expm_horner)):
            errors[name].append(max_abs_rows(kernel(x) - oracle) / max_abs_rows(oracle))
    new, horner = (np.concatenate(errors[k]) for k in ("new", "horner"))
    assert np.quantile(new, 0.99) <= 1.1 * np.quantile(horner, 0.99)
    # The largest error comes from one generator, the same for both kernels
    # on every seed tried, and which kernel rounds it better is chance: the
    # ratio of the maxima ranged over 0.88-1.38 on eight seeds.
    assert new.max() <= 1.5 * horner.max()
    assert new.max() <= 5e-14


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_expm_inverse_by_negation(dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        x = qk.random_complex(rng, dim)
        x = x / max(qk.max_abs(x), 1.0)
        prod = qk.expm(x) @ qk.expm(-x)
        assert qk.max_abs(prod - np.eye(dim)) <= 1e-9


def test_expm_rejects_non_finite():
    with pytest.raises(ValueError):
        qk.expm([[np.inf, 0], [0, 0]])


OVERFLOWING = [
    (np.diag([800.0, -800.0]), "8.000e+02"),        # the result overflows
    (np.diag([1e200, -1e200]), "1.000e+200"),       # its 663 squarings overflow
    (np.stack([np.zeros((2, 2)), np.diag([800.0, 0.0])]), "8.000e+02"),
]


@pytest.mark.parametrize("x, norm", OVERFLOWING)
def test_expm_overflow_names_input_norm(x, norm):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match=re.escape(f"input norm {norm}")):
            qk.expm(x)


@pytest.mark.parametrize("x, norm", OVERFLOWING)
def test_expm_overflow_names_input_norm_when_numpy_raises(x, norm):
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(OverflowError, match=re.escape(f"input norm {norm}")):
            qk.expm(x)


# ---------------------------------------------------------------------------
# conjugate_by_exp


EDGES = (_THETA13 / 2, np.nextafter(_THETA13 / 2, np.inf))


@settings(max_examples=40)
@given(
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    norms=st.lists(st.one_of(st.sampled_from(EDGES),
                             st.floats(min_value=-3.0, max_value=2.5).map(lambda e: 10.0**e)),
                   min_size=1, max_size=8),
    ts=st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=3),
)
def test_conjugate_by_exp_is_the_two_exponentials_bitwise(dim, seed, norms, ts):
    # Generators of 1-norm log-uniform in [1e-3, 10**2.5], or exactly at the
    # scaling edge theta_13 / 2 or one double above it, where the squaring
    # count steps from 0 to 1; t = 1 keeps the edge on every example.  Below
    # 1-norm 709 after scaling by |t| <= 2, no exponential can overflow.
    rng = np.random.default_rng(seed)
    xs = []
    for norm in norms:
        g = qk.random_complex(rng, dim)
        if norm in EDGES:
            g = g / (4 * np.linalg.norm(g, 1))  # columns of 1-norm about 1/4
            g[:, 0], g[0, 0] = 0.0, norm        # and one column of exactly norm
        else:
            g = g * (norm / np.linalg.norm(g, 1))
        xs.append(g)
    x, t = np.stack(xs)[:, None], np.array([1.0, *ts])  # (N, 1) x (T,) broadcast
    y = np.stack([qk.random_complex(rng, dim) for _ in norms])[:, None]
    edges = [k for k, norm in enumerate(norms) if norm in EDGES]
    assert np.array_equal(np.linalg.norm(x[edges, 0], 1, axis=(-2, -1)), np.take(norms, edges))
    tx = t[..., None, None] * x
    try:
        got = qk.conjugate_by_exp(x, t, y)
        want = qk.expm(tx) @ y @ qk.expm(-tx)
        members = [qk.conjugate_by_exp(x[k, 0], t, y[k, 0]) for k in range(len(norms))]
    except np.linalg.LinAlgError as exc:
        pytest.fail(f"LinAlgError escaped: {exc}")
    assert got.shape == (len(norms), len(t), dim, dim)
    assert np.array_equal(got, want)
    assert np.array_equal(got, np.stack(members))


def test_conjugate_overflow_where_only_e_minus_t_x_overflows(capfd):
    x, y = np.diag([-800.0, 0.0]), np.eye(2)
    assert np.isfinite(qk.expm(x)).all()  # e^{tX} alone fits; e^{-tX} does not
    for mode in ("warn", "raise", "ignore"):
        with warnings.catch_warnings(record=True) as caught, np.errstate(over=mode, invalid=mode):
            warnings.simplefilter("always")
            with pytest.raises(OverflowError, match=re.escape("input norm 8.000e+02")):
                qk.conjugate_by_exp(x, 1.0, y)
            with pytest.raises(OverflowError, match=re.escape("input norm 8.000e+02")):
                qk.conjugate_by_exp(np.stack([np.zeros((2, 2)), x]), 1.0, y)
        assert caught == []
    assert capfd.readouterr().err == ""


def test_conjugate_at_zero_is_identity():
    rng = np.random.default_rng(5)
    x, y = qk.random_complex(rng, 3), qk.random_complex(rng, 3)
    assert qk.max_abs(qk.conjugate_by_exp(x, 0.0, y) - y) == 0.0


def test_conjugate_fixes_own_generator():
    rng = np.random.default_rng(6)
    x = qk.random_complex(rng, 3)
    assert qk.max_abs(qk.conjugate_by_exp(x, 1.37, x) - x) < 1e-12


def test_conjugate_pauli_quarter_turn():
    # e^{i(pi/2)sz} sx e^{-i(pi/2)sz} = -sx: conjugation by diag(i, -i)
    out = qk.conjugate_by_exp(1j * SZ, math.pi / 2, SX)
    assert qk.max_abs(out + SX) < 1e-12


def test_conjugation_preserves_exponentials():
    # expm(t * A Y A^-1) = A expm(t Y) A^-1 for unitary A = expm(isX)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = qk.random_hermitian(rng, 3, unit_norm=True)
        y = qk.random_complex(rng, 3)
        y = y / max(qk.max_abs(y), 1.0)
        s, t = rng.uniform(-1, 1, size=2)
        a = qk.expm(1j * s * x)
        a_inv = qk.expm(-1j * s * x)
        lhs = qk.expm(t * (a @ y @ a_inv))
        rhs = a @ qk.expm(t * y) @ a_inv
        assert qk.max_abs(lhs - rhs) <= 1e-9


def oracle_skew(x, t, y):
    """The retired skew op: U Y U† with U = e^{itX} from `expm`, with the
    checks of `op_matrix_skew`."""
    x, y = _operands(x, y)
    with np.errstate(over="raise"):
        u = qk.expm(np.asarray(t)[..., None, None] * (1j * x))
    return u @ y @ u.conj().swapaxes(-1, -2)


def test_skew_op_is_the_plain_conjugation_by_i_x():
    # The eigenvector form against e^{itX} Y e^{-itX} by two exponentials:
    # measured 4.8e-15 relative here.
    rng = np.random.default_rng(9)
    t = np.linspace(-3.0, 3.0, 41)
    for dim in range(1, 7):
        x = qk.random_hermitian(rng, dim, unit_norm=True)
        y = qk.random_hermitian(rng, dim)
        got = qk.op_matrix_skew(x, t, y)
        assert qk.max_abs(got - qk.conjugate_by_exp(1j * x, t, y)) <= 1e-14 * qk.max_abs(y)
        assert np.array_equal(got[20], y)  # t = 0 exactly
        assert np.array_equal(qk.op_matrix_skew(x, 0.0, y), y)


@pytest.mark.parametrize("dim", range(1, 17))
def test_skew_op_matches_the_expm_oracle(dim):
    # Unit-norm generators scaled by up to 3, as fixed-spectrum(1, 2, 3)
    # elements are, on stacks and on noether's (P, 1) x (G,) broadcast.
    # Measured here at most 2.5e-14 · max(1, max|y|) (dim 8).
    rng = np.random.default_rng(dim)
    scale = rng.uniform(0.1, 3.0, (4, 1, 1))
    xs = np.stack([qk.random_hermitian(rng, dim, unit_norm=True) for _ in range(4)]) * scale
    ys = np.stack([qk.random_complex(rng, dim) * 10.0 ** rng.uniform(-3, 3) for _ in range(4)])
    t, grid = rng.uniform(-3.0, 3.0, 4), np.linspace(-3.0, 3.0, 9)
    for got, want in [(qk.op_matrix_skew(xs, t, ys), oracle_skew(xs, t, ys)),
                      (qk.op_matrix_skew(xs[:, None], grid, ys[:, None]),
                       oracle_skew(xs[:, None], grid, ys[:, None]))]:
        assert got.shape == want.shape
        for k in range(4):
            assert qk.max_abs(got[k] - want[k]) <= 1e-13 * max(1.0, qk.max_abs(ys[k]))
    assert np.array_equal(qk.op_matrix_skew(xs, 0.0, ys), ys)
    assert np.array_equal(qk.op_matrix_skew(xs[:, None], grid, ys[:, None])[:, 4], ys)


def test_skew_op_takes_one_eigh(monkeypatch):
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
    qk.op_matrix_skew(SZ, np.linspace(0.0, 1.0, 5), SX)
    assert shapes == [(2, 2)]
    shapes.clear()
    qk.noether_suite(qk.matrix_hermitian(3), pairs=4)
    assert shapes == [(5, 1, 3, 3)] * 2  # the control and 4 pairs, once per direction


def test_skew_op_raises_where_theta_overflows():
    # t·X fits, but t·(λ_j − λ_k) = 2t does not.
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
        qk.op_matrix_skew(SZ, 1e308, SX)


def test_skew_op_raises_where_t_x_overflows():
    # θ = 0 for a multiple of the identity, but an entry of t·X overflows, as
    # it does in conjugate_by_exp; the largest part of X may be imaginary.
    for x in (1e300 * np.eye(2), 1e300 * SY):
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
            qk.op_matrix_skew(x, 1e10, SX)
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
            qk.conjugate_by_exp(1j * x, 1e10, SX)
    assert np.array_equal(qk.op_matrix_skew(1e300 * np.eye(2), 1.0, SX), SX)


def test_skew_op_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        qk.op_matrix_skew(np.eye(2), 1.0, np.eye(3))


# ---------------------------------------------------------------------------
# eigensolver


def test_spectrum_diagonal():
    np.testing.assert_allclose(qk.spectrum(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])


def test_spectrum_pauli_x():
    np.testing.assert_allclose(qk.spectrum(SX), [-1.0, 1.0], atol=1e-12)


def test_spectrum_identity_degenerate():
    np.testing.assert_allclose(qk.spectrum(np.eye(2)), [1.0, 1.0])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
def test_eigh_matches_lapack(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(6):
        a = qk.random_hermitian(rng, dim)
        np.testing.assert_allclose(qk.spectrum(a), np.linalg.eigvalsh(a), atol=1e-10)


def test_eigh_eigenpair_residuals_and_orthonormality():
    rng = np.random.default_rng(9)
    a = qk.random_hermitian(rng, 6)
    values, vectors = eigh(a)
    for k in range(6):
        residual = a @ vectors[:, k] - values[k] * vectors[:, k]
        assert float(np.max(np.abs(residual))) <= 1e-8
    gram = vectors.conj().T @ vectors
    assert qk.max_abs(gram - np.eye(6)) < 1e-10


def test_eigh_unitary_conjugation_invariance():
    rng = np.random.default_rng(10)
    d = np.diag([0.25, 1.0, 2.5, -3.0])
    h = qk.random_hermitian(rng, 4, unit_norm=True)
    u = qk.expm(1j * h)
    a = u @ d @ u.conj().T
    np.testing.assert_allclose(qk.spectrum(a), [-3.0, 0.25, 1.0, 2.5], atol=1e-8)


def test_eigh_on_hermitian_input_is_lapack_on_its_hermitian_part():
    rng = np.random.default_rng(13)
    for dim in range(1, 7):
        a = qk.random_hermitian(rng, dim)
        values, vectors = eigh(a)
        want_values, want_vectors = np.linalg.eigh(qk.hermitize(a))
        assert values.tobytes() == want_values.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()
        assert qk.spectrum(a).tobytes() == np.linalg.eigvalsh(qk.hermitize(a)).tobytes()


def test_spectrum_within_tolerance_moves_by_at_most_the_deviation():
    # LAPACK reads one triangle, so an input within HERMITICITY_TOL of
    # Hermitian differs from its Hermitian part by at most the deviation
    # per entry; Weyl's inequality then bounds the move by n times that.
    rng = np.random.default_rng(14)
    for dim in range(1, 7):
        a = qk.random_hermitian(rng, dim, unit_norm=True)
        a = a + 4e-13 * qk.random_complex(rng, dim)
        dev = qk.max_abs(a - a.conj().T)
        assert dev <= HERMITICITY_TOL
        move = np.max(np.abs(qk.spectrum(a) - np.linalg.eigvalsh(qk.hermitize(a))))
        assert move <= dim * dev + 1e-15


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectrum_sorted_ascending():
    rng = np.random.default_rng(12)
    for _ in range(5):
        vals = qk.spectrum(qk.random_hermitian(rng, 5))
        assert np.all(np.diff(vals) >= 0)


# ---------------------------------------------------------------------------
# random samplers and JSON


def test_random_hermitian_properties():
    rng = np.random.default_rng(13)
    h = qk.random_hermitian(rng, 4)
    assert qk.is_hermitian(h)
    hu = qk.random_hermitian(rng, 4, unit_norm=True)
    assert abs(qk.max_abs(hu) - 1.0) < 1e-14


def test_random_complex_bounds():
    rng = np.random.default_rng(14)
    m = qk.random_complex(rng, 5)
    assert np.max(np.abs(m.real)) <= 1.0
    assert np.max(np.abs(m.imag)) <= 1.0


def test_matrix_json_round_trip():
    rng = np.random.default_rng(15)
    a = qk.random_complex(rng, 3)
    b = qk.matrix_from_json(qk.matrix_to_json(a))
    assert qk.max_abs(a - b) == 0.0


@pytest.mark.parametrize("obj", [
    42,
    {"re": [[1.0]]},
    {"dim": 2, "re": [[1.0]], "im": [[0.0]]},
    {"dim": 1, "re": [[1.0]], "im": "oops"},
    {"dim": 1.7, "re": [[1.0]], "im": [[0.0]]},      # non-integer dim
    {"dim": 1.0, "re": [[1.0]], "im": [[0.0]]},
    {"dim": "1", "re": [[1.0]], "im": [[0.0]]},
    {"dim": True, "re": [[1.0]], "im": [[0.0]]},
    {"dim": 1, "re": [["1.5"]], "im": [[0.0]]},      # string entry
    {"dim": 1, "re": [[1.0]], "im": [[False]]},      # bool entry
    {"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
])
def test_matrix_from_json_rejects(obj):
    with pytest.raises(ValueError):
        qk.matrix_from_json(obj)
