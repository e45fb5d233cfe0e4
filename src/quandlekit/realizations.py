"""Concrete smooth quandle families behind one record-of-callables interface.

Every realization packages a parametrized operation ``op(x, t, y)`` together
with the sampler, metric and tolerance that the verification engine needs.
Matrix realizations conjugate by a matrix exponential (skew convention
``e^{itX}`` on Hermitian elements, plain convention ``e^{tX}`` on arbitrary
ones), the sphere realization rotates unit 3-vectors, the convex realizations
mix affinely, and the union realization glues a 1-dimensional rotation
algebra onto the plane it acts on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

from .linalg import (
    MAX_DIM,
    _check_int,
    _check_number,
    _json_vector,
    _scaled_pair,
    commutator,
    conjugate_by_exp,
    expm,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    random_hermitian,
    random_complex,
    require_hermitian,
    spectrum,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

#: Spectrum closure tolerance for the fixed-spectrum carrier.
SPECTRUM_TOL = 1e-8
#: Minimum pairwise gap between fixed-spectrum eigenvalues.
SPECTRUM_GAP = 1e-6
#: How closely a sphere point must sit on the unit sphere.
UNIT_TOL = 1e-12

@dataclass(frozen=True)
class Realization:
    """A carrier with a real-parameter operation and its verification hooks.

    ``op(x, t, y)`` is x acting on y for time t; for non-family realizations
    (``family`` false) the operation is fixed and t is ignored.  An element
    is an array whose own axes are trailing: ``(n, n)`` for a matrix,
    ``(d,)`` for a vector, ``(3,)`` for a union row.  Leading axes of x, t
    and y broadcast numpy-style, and the result has the broadcast leading
    shape: a 1-d t gives the whole flow of one x on one y, ``(T, ...)``;
    stacks of N elements with a length-N t give ``x[k]`` acting on ``y[k]``
    for time ``t[k]``; x and y of leading shape ``(P, 1)`` with a length-G
    t give the ``(P, G, ...)`` flows of P pairs.  ``metric`` is the
    distance all tolerances refer to; its arguments broadcast the same way,
    giving one distance per member.  ``metric(v, 0.0)`` is the norm of a
    tangent vector v such as a bracket, and ``encode`` writes v as it writes
    elements.  ``vector_carrier`` says whether elements subtract and divide
    by scalars (needed for difference quotients).  ``generator`` maps an
    element to the plain-convention matrix generator of its flow, when one
    exists.
    """

    name: str
    carrier: str
    op: Callable[[Any, float, Any], Any]
    metric: Callable[[Any, Any], float]
    sample: Callable[[np.random.Generator], Any]
    default_tolerance: float
    family: bool = True
    vector_carrier: bool = True
    analytic_bracket: Optional[Callable[[Any, Any], Any]] = None
    generator: Optional[Callable[[Any], np.ndarray]] = None
    decode: Optional[Callable[[Any], Any]] = None
    encode: Optional[Callable[[Any], Any]] = None
    flat_labels: Optional[Callable[[Any], list[str]]] = None
    flatten: Optional[Callable[[Any], list[float]]] = None
    params: dict = field(default_factory=dict)


class UnionElement(tuple):
    """Tagged element of the algebra-plus-plane union carrier.

    ``part`` is "algebra" (value: real scale of the planar rotation
    generator) or "space" (value: 2-vector).  The element is its own row
    ``(tag, a, b)``: tag 0 for an algebra scale a (b = 0), tag 1 for a
    plane point (a, b).  The union's op and metric work on these rows.
    """

    __slots__ = ()

    def __new__(cls, part: str, value):
        if part not in ("algebra", "space"):
            raise ValueError(f"part must be 'algebra' or 'space', got {part!r}")
        if part == "algebra":
            value = float(_check_number(value, "algebra value"))
            if not math.isfinite(value):
                raise ValueError("algebra value must be finite")
            return super().__new__(cls, (0.0, value, 0.0))
        # float64 arrays, as the sampler draws them, need no per-entry check.
        if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
            for c in np.ravel(np.asarray(value, dtype=object)):
                _check_number(c, "space value entry")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (2,) or not np.isfinite(value).all():
            raise ValueError("space value must be a finite 2-vector")
        return super().__new__(cls, (1.0, *value.tolist()))

    part = property(lambda self: "algebra" if self[0] == 0.0 else "space")
    value = property(lambda self: self[1] if self[0] == 0.0 else np.array(self[1:]))

    def __getnewargs__(self):
        return self.part, self.value

    def __repr__(self):
        return f"UnionElement({self.part!r}, {self.value!r})"


# ---------------------------------------------------------------------------
# raw operations


def _fixed_flow(t, value: np.ndarray) -> np.ndarray:
    """``value`` once per time of t: the flow of a t-independent operation."""
    return np.broadcast_to(value, np.broadcast_shapes(np.shape(t) + (1,), value.shape))


def op_matrix_skew(x: np.ndarray, t, y: np.ndarray) -> np.ndarray:
    """``e^{itX} Y e^{-itX}`` — adjoint flow of a Hermitian generator, as U Y U†
    with U = e^{itX}: for real t, itX is skew-Hermitian, so e^{-itX} = U⁻¹ = U†."""
    tx, y = _scaled_pair(1j * x, t, y)
    u = expm(tx)
    return u @ y @ u.conj().swapaxes(-1, -2)


#: ``e^{tX} Y e^{-tX}`` on the full matrix algebra.
op_matrix_plain = conjugate_by_exp


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b along the last axis, kept as a length-1 axis.  A matmul of a row
    by a column is a BLAS dot, so a row of a stack gets the same bits as
    ``a @ b`` on its own."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def bloch_rotate(x: np.ndarray, t, y: np.ndarray) -> np.ndarray:
    """Rotate unit vector y by angle t about axis x, right-handed.

    Rodrigues: y cos t + (x × y) sin t + x (x·y)(1 − cos t), renormalized so
    repeated application cannot drift off the sphere.
    """
    t = np.asarray(t)[..., None]
    c, s = np.cos(t), np.sin(t)
    r = y * c + np.cross(x, y) * s + x * _row_dot(x, y) * (1.0 - c)
    return r / np.sqrt(_row_dot(r, r))


def op_convex_flow(x: np.ndarray, t, y: np.ndarray) -> np.ndarray:
    """Exponential relaxation of y toward x: (1 − e^{−t})x + e^{−t}y."""
    # Overflow raises, as math.exp does.
    with np.errstate(over="raise"):
        w = np.exp(-np.asarray(t))[..., None]
    return (1.0 - w) * x + w * y


def planar_rotation(angle) -> np.ndarray:
    """The 2×2 rotation by ``angle``, or a stack ``(..., 2, 2)`` of them, one
    per entry of an array of angles."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def op_union(x, t, y):
    """Three cases: space elements act trivially; the abelian algebra acts
    trivially on itself; an algebra element of scale a rotates a plane point
    by angle t·a.  Elements are ``[tag, a, b]`` rows (see `UnionElement`),
    and so is the result."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    rotated = (planar_rotation(np.asarray(t) * x[..., 1]) @ y[..., 1:, None])[..., 0]
    acts = (x[..., 0] == 0.0) & (y[..., 0] == 1.0)
    return np.where(acts[..., None], np.insert(rotated, 0, 1.0, axis=-1), y)


def bloch_embedding(p: np.ndarray) -> np.ndarray:
    """Rank-1 projection (I + p·σ)/2 = I/2 − bloch_generator(p) attached to a sphere point."""
    return np.eye(2, dtype=np.complex128) / 2.0 - bloch_generator(p)


def bloch_generator(p: np.ndarray) -> np.ndarray:
    """Hermitian generator −p·σ/2 whose skew flow rotates the sphere about
    axis p with the same orientation as `bloch_rotate`."""
    p = np.asarray(p, dtype=np.float64)
    return -(p[0] * PAULI_X + p[1] * PAULI_Y + p[2] * PAULI_Z) / 2.0


# ---------------------------------------------------------------------------
# metrics, codecs, flatteners


def _matrix_metric(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), axis=(-2, -1))


def _euclidean_metric(a, b):
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return np.sqrt(_row_dot(d, d))[..., 0]


def _union_metric(a, b):
    """Distance of the scales or of the plane points; inf across the parts."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    d = np.where(a[..., 0] == 0.0, np.abs(a[..., 1] - b[..., 1]),
                 _euclidean_metric(a[..., 1:], b[..., 1:]))
    return np.where(a[..., 0] == b[..., 0], d, math.inf)


def _decode_vector(obj, dim: int) -> np.ndarray:
    v = np.asarray(_json_vector(obj, "vector JSON"), dtype=np.float64)
    if v.shape != (dim,):
        raise ValueError(f"expected a length-{dim} array of reals")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _encode_vector(v: np.ndarray) -> list:
    return [float(c) for c in v]


def _matrix_labels(a: np.ndarray) -> list[str]:
    n = range(a.shape[0])
    return [f"{part}_{i}{j}" for i in n for j in n for part in ("re", "im")]


def _matrix_flatten(a: np.ndarray) -> list[float]:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).ravel().tolist()


# The metric, JSON encoder and CSV flatteners shared by every realization on
# one kind of carrier.
_MATRIX_CODEC = dict(
    metric=_matrix_metric,
    encode=matrix_to_json,
    flat_labels=_matrix_labels,
    flatten=_matrix_flatten,
)


def _vector_codec(dim: int, labels=None, decode=None) -> dict:
    """Codec of real ``dim``-vectors; CSV columns default to v0, v1, ...,
    and decoding to a finite-entry check."""
    labels = [f"v{i}" for i in range(dim)] if labels is None else labels
    return dict(
        metric=_euclidean_metric,
        decode=decode or (lambda obj: _decode_vector(obj, dim)),
        encode=_encode_vector,
        flat_labels=lambda v: list(labels),
        flatten=_encode_vector,
    )


# ---------------------------------------------------------------------------
# samplers


def _sample_unit_sphere(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-3:
            return v / n


def _sample_general_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    # Kept small so e^{±3X} cannot amplify rounding noise anywhere near the
    # 1e-8 verification tolerance.
    m = random_complex(rng, dim)
    return 0.5 * m / max(max_abs(m), 1e-9)


def _sample_box(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=dim)


def _sample_simplex(rng: np.random.Generator, dim: int) -> np.ndarray:
    w = -np.log(rng.uniform(1e-12, 1.0, size=dim))
    return w / float(np.sum(w))


def _sample_union(rng: np.random.Generator) -> UnionElement:
    if rng.random() < 0.5:
        while True:
            a = rng.uniform(-1.0, 1.0)
            if abs(a) >= 0.05:
                return UnionElement("algebra", a)
    while True:
        p = rng.uniform(-1.0, 1.0, size=2)
        if float(np.linalg.norm(p)) >= 0.05:
            return UnionElement("space", p)


# ---------------------------------------------------------------------------
# factories


def matrix_hermitian(dim: int = 2) -> Realization:
    """Hermitian matrices under the skew flow e^{itX} Y e^{-itX}."""
    dim = _check_int(dim, "dim", 1, MAX_DIM)

    def decode(obj):
        return require_hermitian(matrix_from_json(obj))

    return Realization(
        name="matrix-hermitian",
        carrier=f"{dim}x{dim} Hermitian matrices",
        op=op_matrix_skew,
        sample=lambda rng: random_hermitian(rng, dim, unit_norm=True),
        default_tolerance=1e-8,
        analytic_bracket=lambda x, y: 1j * commutator(x, y),
        generator=lambda x: 1j * x,
        decode=decode,
        **_MATRIX_CODEC,
        params={"dim": dim},
    )


def matrix_general(dim: int = 2) -> Realization:
    """All complex matrices under the plain flow e^{tX} Y e^{-tX}."""
    dim = _check_int(dim, "dim", 1, MAX_DIM)
    return Realization(
        name="matrix-general",
        carrier=f"{dim}x{dim} complex matrices",
        op=op_matrix_plain,
        sample=lambda rng: _sample_general_matrix(rng, dim),
        default_tolerance=1e-8,
        analytic_bracket=commutator,
        generator=lambda x: x,
        decode=matrix_from_json,
        **_MATRIX_CODEC,
        params={"dim": dim},
    )


def bloch() -> Realization:
    """Unit sphere with x acting on y by rotation about axis x."""

    def decode(obj):
        v = _decode_vector(obj, 3)
        if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_TOL:
            raise ValueError("sphere point must be a unit 3-vector")
        return v

    return Realization(
        name="bloch",
        carrier="unit vectors on the 2-sphere",
        op=bloch_rotate,
        sample=_sample_unit_sphere,
        default_tolerance=1e-8,
        analytic_bracket=lambda x, y: np.cross(x, y),
        **_vector_codec(3, ["x", "y", "z"], decode),
    )


def convex_flow(dim: int = 3) -> Realization:
    """d-space with exponential relaxation toward the acting point."""
    dim = _check_int(dim, "dim", 1, MAX_DIM)
    return Realization(
        name="convex-flow",
        carrier=f"{dim}-vectors under affine relaxation",
        op=op_convex_flow,
        sample=lambda rng: rng.uniform(-1.0, 1.0, size=dim),
        default_tolerance=1e-12,
        analytic_bracket=lambda x, y: x - y,
        **_vector_codec(dim),
        params={"dim": dim},
    )


def convex_spindle(bias: float = 0.5, dim: int = 3, body: str = "box") -> Realization:
    """Fixed-bias mixing x ▷ y = (1−s)x + sy on a convex body.

    Not a t-family: the parameter passed to op is ignored.  Left translations
    are generally not bijections on the body, so this is a spindle only.
    """
    bias = float(_check_number(bias, "bias"))
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    dim = _check_int(dim, "dim", 1, MAX_DIM)
    if body not in ("box", "simplex"):
        raise ValueError(f"body must be 'box' or 'simplex', got {body!r}")
    sampler = _sample_box if body == "box" else _sample_simplex

    def op(x, t, y):
        return _fixed_flow(t, (1.0 - bias) * x + bias * y)

    return Realization(
        name="convex-spindle",
        carrier=f"{dim}-vectors in the unit {body}",
        op=op,
        sample=lambda rng: sampler(rng, dim),
        default_tolerance=1e-12,
        family=False,
        **_vector_codec(dim),
        params={"bias": bias, "dim": dim, "body": body},
    )


def fixed_spectrum(eigenvalues) -> Realization:
    """The Hermitian matrices with one spectrum: an adjoint orbit, so a
    sub-quandle of `matrix_hermitian`.  Every op output, each member of a stack
    at once by one broadcast ``eigvalsh``, is checked to still carry it."""
    for v in np.ravel(np.asarray(eigenvalues, dtype=object)):
        _check_number(v, "eigenvalue")
    spec = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    if spec.ndim != 1 or spec.size < 1:
        raise ValueError("eigenvalues must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(spec)):
        raise ValueError("eigenvalues must be finite")
    if spec.size > 1 and float(np.min(np.diff(spec))) < SPECTRUM_GAP:
        raise ValueError(f"eigenvalue gaps must be >= {SPECTRUM_GAP}")
    herm = matrix_hermitian(spec.size)
    base = np.diag(spec.astype(np.complex128))

    def check(a: np.ndarray) -> np.ndarray:
        drift = float(np.max(np.abs(spectrum(a) - spec)))
        if drift > SPECTRUM_TOL:
            raise ArithmeticError(
                f"spectrum drifted by {drift:.3e} (tolerance {SPECTRUM_TOL:.0e})"
            )
        return a

    return replace(
        herm,
        name="fixed-spectrum",
        carrier=f"Hermitian {spec.size}x{spec.size} matrices with spectrum {spec.tolist()}",
        op=lambda x, t, y: check(hermitize(herm.op(x, t, y))),
        sample=lambda rng: hermitize(herm.op(herm.sample(rng), 1.0, base)),
        decode=lambda obj: check(herm.decode(obj)),
        params={"spectrum": [float(v) for v in spec]},
    )


def union_lie() -> Realization:
    """The 1-d rotation algebra glued to the plane it rotates.

    Algebra elements act on the plane and fix each other; plane points fix
    everything.  The smallest smooth example where "x fixes y" and "y fixes
    x" come apart.
    """

    def decode(obj):
        if not isinstance(obj, dict) or "part" not in obj or "value" not in obj:
            raise ValueError('union element JSON needs "part" and "value"')
        part, value = obj["part"], obj["value"]
        if part in ("algebra", "space"):  # UnionElement names any other part
            check = _check_number if part == "algebra" else _json_vector
            value = check(value, "union element JSON 'value'")
        return UnionElement(part, value)

    def encode(e):  # a UnionElement, or a row that op returns
        tag, a, b = np.asarray(e, dtype=np.float64).tolist()
        value = a if tag == 0.0 else [a, b]
        return {"part": "algebra" if tag == 0.0 else "space", "value": value}

    return Realization(
        name="union",
        carrier="rotation-algebra scalars plus plane points",
        op=op_union,
        metric=_union_metric,
        sample=_sample_union,
        default_tolerance=1e-12,
        vector_carrier=False,
        decode=decode,
        encode=encode,
    )


def corrupted_flow(dim: int = 3) -> Realization:
    """Negative control: returns y + 1e-3·x, which is no kind of quandle.

    Exists so the verifier can be shown to fail loudly; not reachable from
    the command line.
    """
    return replace(
        convex_flow(dim),
        name="corrupted",
        carrier=f"{dim}-vectors under a deliberately broken operation",
        op=lambda x, t, y: _fixed_flow(t, y + 1e-3 * x),
        default_tolerance=1e-8,
        analytic_bracket=None,
    )


# Command-line name -> factory, in the order the CLI lists them.
_FACTORIES: dict[str, Callable[..., Realization]] = {
    "matrix-hermitian": lambda dim, **_: matrix_hermitian(dim),
    "matrix-general": lambda dim, **_: matrix_general(dim),
    "bloch": lambda **_: bloch(),
    "convex-flow": lambda dim, **_: convex_flow(dim),
    "convex-spindle": lambda dim, bias, body, **_: convex_spindle(bias, dim, body),
    "fixed-spectrum": lambda dim, eigenvalues, **_: fixed_spectrum(
        np.arange(1.0, _check_int(dim, "dim", 1, MAX_DIM) + 1) if eigenvalues is None else eigenvalues
    ),
    "union": lambda **_: union_lie(),
}

REALIZATION_NAMES = tuple(_FACTORIES)


def make_realization(
    name: str,
    *,
    dim: int = 2,
    bias: float = 0.5,
    body: str = "box",
    eigenvalues=None,
) -> Realization:
    """Build a realization from its command-line name."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown realization {name!r}; choose from {REALIZATION_NAMES}")
    return _FACTORIES[name](dim=dim, bias=bias, body=body, eigenvalues=eigenvalues)
