"""Dense complex linear algebra at desk scale (square matrices up to 16x16).

Matrices are plain numpy arrays of dtype complex128.  Where a function says
so it also takes a stack ``(..., n, n)`` of matrices and works on each
member.  All functions are pure and never mutate their arguments.
Tolerances throughout are stated in the max-abs entry norm ``max_abs``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

MAX_DIM = 16
HERMITICITY_TOL = 1e-12

# The [13/13] Pade numerator's b_k / b_0 = C(13, k) (26-k)! / 26!, so that V(0) = I
# exactly, and its theta_13 (Higham 2005, SIMAX 26(4)); `expm` scales to theta_13 / 2.
_PADE13 = [math.comb(13, k) / math.perm(26, k) for k in range(14)]
_THETA13 = 5.371920351148152
# Every entry of e^X or e^{-X} is at most e^{||X||_1}, so below this 1-norm (log
# of the largest double is 709.78) neither can overflow.
_EXPM_SAFE_NORM = 709.0


def as_matrix(data) -> np.ndarray:
    """Coerce to a validated square complex matrix (finite, dim 1..16), or a
    stack ``(..., n, n)`` of them."""
    a = np.asarray(data, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    if n < 1 or n > MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the norm used for all tolerances here."""
    return float(np.max(np.abs(a)))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a†)/2 of a matrix or of every member of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Whether a matrix, or every member of a stack, is Hermitian within tol."""
    a = np.asarray(a, dtype=complex)
    return max_abs(a - a.conj().swapaxes(-1, -2)) <= tol


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """``as_matrix(a)``, refused unless it (every member of a stack) is Hermitian."""
    a = as_matrix(a)
    dev = max_abs(a - a.conj().swapaxes(-1, -2))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {tol:.3e}")
    return a


def _operands(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``as_matrix`` of x and of y, refused unless their members share a dimension."""
    x, y = as_matrix(x), as_matrix(y)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return x, y


def commutator(x, y) -> np.ndarray:
    """[X, Y] = XY - YX; stacks of matrices broadcast numpy-style."""
    x, y = _operands(x, y)
    return x @ y - y @ x


def _expm_pair(x, halves: int = 2) -> np.ndarray:
    """The first ``halves`` of ``[e^X, e^{-X}]`` for `expm`; ``OverflowError`` if one overflows."""
    x = as_matrix(x)
    # Overflow is read off the result, so numpy need not warn or raise.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(x, 1, axis=(-2, -1))
        if np.isfinite(norm).all():
            # The least s >= 0 with norm <= 2**s * theta_13 / 2, read off frexp exactly.
            mantissa, exponent = np.frexp(norm)
            squarings = np.maximum(exponent - 2 + (mantissa > _THETA13 / 8), 0)
            a = x * np.ldexp(1.0, -squarings)[..., None, None]
            a2, b = a @ a, _PADE13
            a4 = a2 @ a2
            a6, eye = a4 @ a2, np.eye(x.shape[-1], dtype=complex)
            u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                     + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
            v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye
            pair = np.linalg.solve(np.stack([v - u, v + u][:halves]),
                                   np.stack([v + u, v - u][:halves]))
            # Only members still owed a squaring are squared: none overflows needlessly.
            for i in range(int(squarings.max())):
                if norm.max() > _EXPM_SAFE_NORM and not np.isfinite(pair).all():
                    break  # squaring keeps an entry non-finite: refuse at once
                owed = squarings > i
                sub = pair[:, owed]
                pair[:, owed] = sub @ sub
            if norm.max() <= _EXPM_SAFE_NORM or np.isfinite(pair).all():
                return pair
    raise OverflowError(f"matrix exponential overflows: input norm {max_abs(x):.3e}")


def expm(x) -> np.ndarray:
    """Matrix exponential by scaling and squaring around Higham's [13/13] Pade approximant.

    Each member is scaled by 2**-s to 1-norm theta_13 / 2 or less; from a², a⁴, a⁶
    the odd part U and even part V of the numerator take six products in all, and
    r(a) = (V - U)⁻¹(V + U) is one LAPACK solve, squared back s times.  Each member
    of a stack ``(..., n, n)`` gets its own s, so it comes out exactly as it would
    alone.  Raises ``OverflowError``, naming the input's max-abs norm, when the
    result does not fit in double precision, whatever ``np.errstate`` says."""
    return _expm_pair(x, 1)[0]


def conjugate_by_exp(x, t, y) -> np.ndarray:
    """e^{tX} Y e^{-tX} from one `expm` evaluation: r(-a) = (V + U)⁻¹(V - U) is solved
    in the same call, and as negation is exact, e^{-tX} is bitwise ``expm(-t * x)``.
    Leading axes of x, t and y broadcast numpy-style, as in a `Realization` op.
    Raises ``FloatingPointError`` where t·X or the product e^{tX} Y e^{-tX}
    overflows, and ``OverflowError`` where e^{±tX} does."""
    x, y = _operands(x, y)
    with np.errstate(over="raise"):
        tx = np.asarray(t)[..., None, None] * x
    pair = _expm_pair(tx)
    with np.errstate(over="raise", invalid="raise"):
        return pair[0] @ y @ pair[1]


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Returns ``(values, vectors)`` with real eigenvalues ascending and the
    matching eigenvectors as columns.
    """
    return np.linalg.eigh(require_hermitian(a))


def spectrum(a) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted ascending."""
    return np.linalg.eigvalsh(require_hermitian(a))


def random_complex(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Matrix with real and imaginary parts drawn uniformly from [-1, 1]."""
    return _complex_from_units(rng.random(2 * dim * dim), dim)


def _complex_from_units(u: np.ndarray, dim: int) -> np.ndarray:
    """`random_complex` of the 2·dim² doubles u that ``rng.random`` gave it, real
    parts first; a ``(..., 2·dim²)`` stack of rows u gives a stack of matrices."""
    m = -1.0 + 2.0 * u.reshape(*u.shape[:-1], 2, dim, dim)
    return m[..., 0, :, :] + 1j * m[..., 1, :, :]


def random_hermitian(
    rng: np.random.Generator, dim: int, unit_norm: bool = False
) -> np.ndarray:
    """Hermitized uniform random matrix, optionally scaled to max_abs 1."""
    h = hermitize(random_complex(rng, dim))
    if unit_norm:
        h = h / max_abs(h)
    return h


def matrix_to_json(a) -> dict:
    """Serialize to ``{"dim": n, "re": [[...]], "im": [[...]]}``."""
    a = as_matrix(a)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def _check_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int if it is a Python or numpy integer within [low,
    high], either bound optional; bools, floats and strings are refused."""
    # int first: the numbers-ABC check alone costs about 0.6 µs a call.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        raise ValueError(f"{what} must be >= {low}" if high is None
                         else f"{what} must be in [{low}, {high}], got {value}")
    return int(value)


def _check_number(v, what: str):
    """``v`` if it is a real number (Python or numpy); bools, strings and the rest are refused."""
    # int and float first, as in _check_int.
    if isinstance(v, bool) or not isinstance(v, (int, float, numbers.Real)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    return v


def _check_real(value, what: str, allow_zero: bool = False) -> float:
    """``value`` as a float if it is a finite real number above 0, or equal
    to 0 with ``allow_zero``; bools and strings are refused.  The sign is
    tested first, so nan and -inf get the sign message."""
    value = float(_check_number(value, what))
    if not (value >= 0 if allow_zero else value > 0):
        raise ValueError(f"{what} must be >= 0" if allow_zero else f"{what} must be positive")
    if not np.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _json_vector(obj, what: str) -> list:
    """``obj`` unchanged if it is a list of JSON numbers; anything else is refused."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list of numbers, got {obj!r}")
    for c in obj:
        _check_number(c, f"{what} entry")
    return obj


def _json_reals(rows, key: str) -> np.ndarray:
    """A JSON list of rows of numbers as a float array; bools and strings are refused."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"matrix JSON {key!r} must be a list of rows")
    for row in rows:
        _json_vector(row, f"matrix JSON {key!r}")
    try:
        return np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed matrix JSON {key!r}: {exc}") from exc


def matrix_from_json(obj) -> np.ndarray:
    """Parse the wire format produced by :func:`matrix_to_json`."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object with dim/re/im")
    try:
        dim, re, im = obj["dim"], obj["re"], obj["im"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    dim = _check_int(dim, "matrix JSON 'dim'")
    re, im = _json_reals(re, "re"), _json_reals(im, "im")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix JSON shape mismatch: dim={dim}, re {re.shape}, im {im.shape}"
        )
    return as_matrix(re + 1j * im)
