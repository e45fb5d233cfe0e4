"""Concrete smooth quandle families behind one record-of-callables interface.

Every realization packages a parametrized operation ``op(x, t, y)`` together
with the sampler, metric and tolerance that the verification engine needs.
Matrix realizations conjugate by a one-parameter group: ``e^{itX}`` through the
eigenvectors of a Hermitian X (skew convention), and ``e^{tX}`` by a matrix
exponential on arbitrary X (plain convention).  The sphere realization rotates
unit 3-vectors, the convex realizations mix affinely, and the union realization
glues a 1-dimensional rotation algebra onto the plane it acts on.
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
    _complex_from_units,
    _json_vector,
    _operands,
    _unit_hermitian,
    commutator,
    conjugate_by_exp,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    require_hermitian,
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
#: The convex bodies that `convex_spindle` mixes on.
CONVEX_BODIES = ("box", "simplex")

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
    by scalars (needed for difference quotients and CSV rows), and
    ``flat_labels`` names a vector point's CSV columns.  ``generator`` maps an
    element to the plain-convention matrix generator of its flow, when one
    exists.  ``units`` optionally gives ``sample`` on uniform doubles, so that engines
    can read a block of the random stream at once: ``(w, finish)`` samples
    ``finish(rng.random(w))``, finish mapping any ``(..., w)`` stack, such as a
    block's ``(k, m, w)`` units, to a stack of elements.  A scan form
    ``(None, (scan, members))`` samples elements of varying length: ``scan(u)`` gives
    each index i of a 1-d u the end of the element read from u[i] on (past ``len(u)``
    if it runs past u) and its row of three numbers, ``members`` maps a stack of rows
    to elements, and ``sample`` reads a unit at a time until the scan ends its
    element; engines size blocks for three units an element, as read without redraws.
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
    flat_labels: Optional[tuple[str, ...]] = None
    params: dict = field(default_factory=dict)
    units: Optional[tuple[Optional[int], Any]] = None


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
    """``e^{itX} Y e^{-itX}`` for Hermitian X = V Λ V† (``eigh`` reads only its lower triangle):
    Y + V((V†YV) ∘ F)V† with θ_jk = t(λ_j − λ_k) and F = e^{iθ} − 1 = −2 sin²(θ/2) + i sin θ
    (sin² loses no digits at small t).  One ``eigh`` per x serves all t; y exactly at t = 0."""
    x, y = _operands(x, y)
    lam, v = np.linalg.eigh(x)
    with np.errstate(over="raise", invalid="raise"):
        # Raises where an entry of t·X overflows, as in conjugate_by_exp: t is real.
        np.abs(t) * np.max(np.maximum(np.abs(x.real), np.abs(x.imag)), axis=(-2, -1))
        theta = np.asarray(t)[..., None, None] * (lam[..., :, None] - lam[..., None, :])
    vh = v.conj().swapaxes(-1, -2)
    return y + v @ ((vh @ y @ v) * (-2.0 * np.sin(theta / 2) ** 2 + 1j * np.sin(theta))) @ vh


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
# metrics and codecs


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


def _vector_codec(dim: int, decode=None) -> dict:
    """Codec of real ``dim``-vectors; decoding defaults to a finite-entry check."""
    return dict(
        metric=_euclidean_metric,
        decode=decode or (lambda obj: _decode_vector(obj, dim)),
        encode=_encode_vector,
    )


# ---------------------------------------------------------------------------
# samplers


def _on_units(w: Optional[int], finish) -> dict:
    """``sample`` and ``units`` on unit doubles u; rng.uniform(lo, hi) is lo + (hi - lo) * u."""
    def scanned(rng):
        u = [rng.random()]
        while (found := finish[0](np.array(u)))[0][0] > len(u):
            u.append(rng.random())
        return finish[1](found[1][:1])[0]

    sample = scanned if w is None else (lambda rng: finish(rng.random(w)))
    return dict(sample=sample, units=(w, finish))


def _sample_unit_sphere(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(v @ v)
        if n > 1e-3:
            return v / n


def _unit_general_matrix(u: np.ndarray, dim: int) -> np.ndarray:
    # Kept small so e^{±3X} cannot amplify rounding noise anywhere near the
    # 1e-8 verification tolerance.
    m = _complex_from_units(u, dim)
    return 0.5 * m / np.maximum(np.max(np.abs(m), axis=(-2, -1), keepdims=True), 1e-9)


def _unit_simplex(u: np.ndarray) -> np.ndarray:
    w = -np.log(1e-12 + (1.0 - 1e-12) * u)
    return w / np.sum(w, axis=-1, keepdims=True)


def _scan_union(u: np.ndarray):
    """The union's scan (see `Realization`): a part below 0.5 is the algebra, its scale -1 + 2u
    redrawn while |a| < 0.05; else the plane, its pair redrawn while its np.hypot is under 0.05.
    The next accepted draw at or after each index is a reverse running minimum, per parity for
    pairs."""
    n = len(u)
    v = np.zeros(n + 3 - n % 2)  # zeros keep gathers in bounds; an even count of pair starts
    v[:n] = -1.0 + 2.0 * u
    far = np.abs(v) >= 0.05
    ok = far[:-1] | far[1:]  # np.hypot is at least either coordinate, so only a pair of
    near = (~ok).nonzero()[0]  # two coordinates under 0.05 can redraw
    ok[near] = np.hypot(v[near], v[near + 1]) >= 0.05
    j = np.arange(len(v) - 1, -1, -1)
    scale = np.minimum.accumulate(np.where(far[::-1], j, n))[::-1]
    pair = np.minimum.accumulate(np.where(ok[::-1], j[1:], n - 1).reshape(-1, 2)).ravel()[::-1]
    algebra = u < 0.5
    at = np.where(algebra, scale[1:n + 1], pair[1:n + 1])
    rows = np.array([1.0 - algebra, v[at], np.where(algebra, 0.0, v[at + 1])]).T
    return at + 2 - algebra, rows


def _union_elements(rows: np.ndarray) -> list:
    """The elements scanned rows stand for, built without UnionElement's checks: finite floats."""
    return [tuple.__new__(UnionElement, row) for row in rows.tolist()]


# ---------------------------------------------------------------------------
# factories


def matrix_hermitian(dim: int = 2) -> Realization:
    """Hermitian matrices under the skew flow e^{itX} Y e^{-itX}: matrix-general's
    flow for the generator iX, on the Hermitian carrier."""
    general = matrix_general(dim)
    dim = general.params["dim"]
    return replace(
        general,
        name="matrix-hermitian",
        carrier=f"{dim}x{dim} Hermitian matrices",
        op=op_matrix_skew,
        **_on_units(2 * dim * dim, lambda u: _unit_hermitian(u, dim)),
        analytic_bracket=lambda x, y: 1j * commutator(x, y),
        generator=lambda x: 1j * x,
        decode=lambda obj: require_hermitian(matrix_from_json(obj)),
    )


def matrix_general(dim: int = 2) -> Realization:
    """All complex matrices under the plain flow e^{tX} Y e^{-tX}."""
    dim = _check_int(dim, "dim", 1, MAX_DIM)
    return Realization(
        name="matrix-general",
        carrier=f"{dim}x{dim} complex matrices",
        op=op_matrix_plain,
        **_on_units(2 * dim * dim, lambda u: _unit_general_matrix(u, dim)),
        default_tolerance=1e-8,
        analytic_bracket=commutator,
        generator=lambda x: x,
        decode=matrix_from_json,
        metric=_matrix_metric,
        encode=matrix_to_json,
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
        flat_labels=("x", "y", "z"),
        **_vector_codec(3, decode),
    )


def convex_flow(dim: int = 3) -> Realization:
    """d-space with exponential relaxation toward the acting point."""
    dim = _check_int(dim, "dim", 1, MAX_DIM)
    return Realization(
        name="convex-flow",
        carrier=f"{dim}-vectors under affine relaxation",
        op=op_convex_flow,
        **_on_units(dim, lambda u: -1.0 + 2.0 * u),
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
    if body not in CONVEX_BODIES:
        raise ValueError(f"body must be {' or '.join(map(repr, CONVEX_BODIES))}, got {body!r}")

    def op(x, t, y):
        return _fixed_flow(t, (1.0 - bias) * x + bias * y)

    return Realization(
        name="convex-spindle",
        carrier=f"{dim}-vectors in the unit {body}",
        op=op,
        **_on_units(dim, (lambda u: u) if body == "box" else _unit_simplex),
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
    if np.ndim(eigenvalues) != 1 or np.size(eigenvalues) < 1:
        raise ValueError("eigenvalues must be a nonempty 1-d sequence")
    spec = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    if not np.all(np.isfinite(spec)):
        raise ValueError("eigenvalues must be finite")
    if spec.size > 1 and float(np.min(np.diff(spec))) < SPECTRUM_GAP:
        raise ValueError(f"eigenvalue gaps must be >= {SPECTRUM_GAP}")
    herm = matrix_hermitian(spec.size)
    base = np.diag(spec.astype(np.complex128))

    def check(a: np.ndarray, decoded: bool = False) -> np.ndarray:
        n = a.shape[-1]
        if n != spec.size:
            raise ValueError(f"a {n}x{n} matrix cannot carry {spec.size} eigenvalues")
        if not np.isfinite(a).all():  # the one require_hermitian check a hermitized a can fail
            raise ArithmeticError("matrix has non-finite entries")
        found = np.linalg.eigvalsh(a)
        drift = float(np.max(np.abs(found - spec)))
        if drift > SPECTRUM_TOL and decoded:  # an input never moved, so it cannot have drifted
            raise ValueError(f"matrix has spectrum {np.round(found, 9).tolist()},"
                             f" not the carrier's {spec.tolist()}")
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
        **_on_units(herm.units[0], lambda u: hermitize(herm.op(herm.units[1](u), 1.0, base))),
        decode=lambda obj: check(herm.decode(obj), decoded=True),
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
        **_on_units(None, (_scan_union, _union_elements)),
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
