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

# Taylor coefficients 1/k! up to degree 18, used after scaling the argument to
# Frobenius norm <= 1/2: the tail sum_{k>18} X^k/k! is then below
# 1.03 * 0.5**19/19! ~ 1.6e-23 in norm, far under double rounding.
_EXPM_COEFFS = [1.0 / math.factorial(k) for k in range(19)]
# Every entry of e^X is at most e^{||X||}, so below this Frobenius norm
# (log of the largest double is 709.78) the result cannot overflow.
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


def commutator(x, y) -> np.ndarray:
    """[X, Y] = XY - YX."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x @ y - y @ x


def expm(x) -> np.ndarray:
    """Matrix exponential by scaling and squaring around a Taylor core.

    The argument is scaled by 2**-s until its Frobenius norm is at most 1/2.
    Its degree-18 Taylor polynomial is evaluated by Paterson-Stockmeyer, in
    seven matrix products where term-by-term Horner takes eighteen: with the
    blocks B_j = c_{4j} I + c_{4j+1} X + c_{4j+2} X² + c_{4j+3} X³ (c_k = 1/k!),
    it is B_0 + X⁴(B_1 + X⁴(B_2 + X⁴(B_3 + X⁴ B_4))).  The result is then
    squared s times.  A stack ``(..., n, n)`` is exponentiated in one pass
    with an s of its own for every member, so each member comes out exactly
    as it would alone.  Raises ``OverflowError``, naming the input's max-abs
    norm, when the result does not fit in double precision, whatever
    ``np.errstate`` says.
    """
    x = as_matrix(x)
    # Overflow is read off the result, so numpy need not warn or raise.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(x, axis=(-2, -1))
        if np.isfinite(norm).all():
            # s = ceil(log2(norm)) + 1 above norm 1/2, else 0, read off the
            # binary exponent exactly.
            mantissa, exponent = np.frexp(norm)
            squarings = np.maximum(exponent + (mantissa > 0.5), 0)
            scaled = x * np.ldexp(1.0, -squarings)[..., None, None]
            eye = np.eye(x.shape[-1], dtype=complex)
            x2 = scaled @ scaled
            x3, x4 = x2 @ scaled, x2 @ x2
            c = _EXPM_COEFFS
            # Each block is summed smallest term first and the identity last,
            # as in Horner: largest first measured less accurate.
            acc = c[18] * x2 + c[17] * scaled + c[16] * eye
            for j in (12, 8, 4, 0):
                acc = c[j + 3] * x3 + c[j + 2] * x2 + c[j + 1] * scaled + x4 @ acc + c[j] * eye
            # Only the members still owed a squaring are squared, so none
            # can overflow on squarings it does not need.
            for i in range(int(squarings.max())):
                owed = squarings > i
                if owed.all():
                    acc = acc @ acc
                else:
                    sub = acc[owed]
                    acc[owed] = sub @ sub
            if norm.max() <= _EXPM_SAFE_NORM or np.isfinite(acc).all():
                return acc
    raise OverflowError(f"matrix exponential overflows: input norm {max_abs(x):.3e}")


def _scaled_pair(x, t, y) -> tuple[np.ndarray, np.ndarray]:
    """(tX, Y), t broadcast against the stack shape of x; x and y must share a dimension."""
    x, y = as_matrix(x), as_matrix(y)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    with np.errstate(over="raise"):
        return np.asarray(t)[..., None, None] * x, y


def conjugate_by_exp(x, t, y) -> np.ndarray:
    """e^{tX} Y e^{-tX}, the inverse taken by negating the exponent.

    No explicit matrix inverse is ever formed.  Leading axes of x, t and y
    broadcast numpy-style, as in the op of a `Realization`.
    """
    tx, y = _scaled_pair(x, t, y)
    return expm(tx) @ y @ expm(-tx)


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
    re = rng.uniform(-1.0, 1.0, size=(dim, dim))
    im = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return re + 1j * im


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
