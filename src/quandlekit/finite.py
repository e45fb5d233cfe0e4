"""Finite self-distributive structures on index sets {0, ..., n-1}.

A binary operation is stored as an order-n lookup table where ``table[x][y]``
is x acting on y.  The module classifies tables against the shelf, spindle
and quandle axioms, builds the standard constructions (conjugation on a
group, the inverse operation, the group-plus-acted-set union), and
exhaustively enumerates small structures with optional isomorphism
filtering.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from itertools import chain, permutations, product
from typing import ClassVar

import numpy as np

from .linalg import _check_int

Row = tuple[int, ...]
Table = tuple[Row, ...]

KINDS = ("shelf", "spindle", "quandle")

# Exhaustive-search guards: quandle rows are permutations fixing their own
# index ((n-1)! each), anything weaker explodes as n**(n*n).
MAX_ORDER = {"shelf": 3, "spindle": 3, "quandle": 5}


def _freeze_row(i: int, row, what: str) -> Row:
    """Row i as a tuple of ints; Python and numpy integers only, so bools,
    floats and strings are refused rather than truncated or parsed.  ``what``
    names the table in the message."""
    try:
        row = tuple(row)
    except TypeError:
        raise ValueError(f"{what} row {i} must hold integers only, got {row!r}") from None
    if bool not in map(type, row):
        try:
            return tuple(map(operator.index, row))
        except TypeError:
            pass
    raise ValueError(f"{what} row {i} must hold integers only, got {list(row)!r}")


def _freeze_table(rows, order: int | None = None, what: str = "table",
                  width: int | None = None) -> Table:
    """``rows`` as a tuple of int tuples: ``order`` rows, where given, each of
    ``width`` entries in [0, width); ``width`` defaults to the row count."""
    table = tuple(_freeze_row(i, row, what) for i, row in enumerate(rows))
    n = len(table)
    if order is not None and _check_int(order, "order") != n:
        raise ValueError(f"declared order {order} but table has {n} rows")
    if n < 1:
        raise ValueError("table must have at least one row")
    width = n if width is None else width
    for i, row in enumerate(table):
        if len(row) != width:
            raise ValueError(f"row {i} has length {len(row)}, expected {width}")
        for v in row:
            if not 0 <= v < width:
                raise ValueError(f"entry {v} at row {i} outside [0, {width})")
    return table


@dataclass(frozen=True)
class MagmaTable:
    """A finite binary operation: ``table[x][y]`` is x acting on y."""

    order: int
    table: Table
    # What error messages call the table, e.g. the JSON field it was read from.
    source: InitVar[str] = "table"
    # What JSON error messages call an object of this class.
    json_name: ClassVar[str] = "table"

    @classmethod
    def from_rows(cls, rows) -> "MagmaTable":
        rows = tuple(rows)
        return cls(order=len(rows), table=rows)

    def __post_init__(self, source: str):
        table = _freeze_table(self.table, self.order, source)
        object.__setattr__(self, "order", len(table))
        object.__setattr__(self, "table", table)

    @classmethod
    def _built(cls, rows) -> "MagmaTable":
        """A table the library built itself from in-range ints, left unchecked."""
        m = object.__new__(cls)
        m.__dict__.update(order=len(rows), table=tuple(map(tuple, rows)))
        return m

    def __call__(self, x: int, y: int) -> int:
        return self.table[x][y]

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @classmethod
    def from_json(cls, obj) -> "MagmaTable":
        # The entries are left to _freeze_table, to be checked there once.
        what = f"{cls.json_name} JSON"
        if not isinstance(obj, dict) or "table" not in obj:
            raise ValueError(f"{what} must be an object with a 'table' key")
        rows = obj["table"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"{what} 'table' must be a list of rows")
        order = _check_int(obj.get("order", len(rows)), f"{what} 'order'")
        return cls(order=order, table=rows, source=f"{what} 'table'")


@dataclass(frozen=True)
class StructureReport:
    """Axiom flags plus the first lexicographic witness per violated axiom.

    Witnesses: self-distributivity -> (x, y, z); idempotency -> (x, x);
    bijectivity -> (x, y) where y is the first column repeating a value
    already seen in row x.
    """

    is_shelf: bool
    is_spindle: bool
    is_quandle: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def to_json(self) -> dict:
        return {**vars(self), "violations": [[name, list(w)] for name, w in self.violations]}


def _first_distributivity_violation(t: Table, n: int):
    """The first (x, y, z) with x(yz) != (xy)(xz), or None.

    Row x holds when σ_x = x ▷ − is an endomorphism.  A bijective one is an
    automorphism, and then σ_{σ_x(c)} = σ_x σ_c σ_x⁻¹ holds whenever σ_c does,
    so rows proven good that way are skipped.  Every row before the first
    failing one holds, so the first failing cell of that row is the witness.
    """
    identity = tuple(range(n))
    # composed(r)[y * n + z] is r[t[y][z]]: row x compares σ_x σ_y with
    # σ_{σ_x(y)} σ_x for all y at once.
    composed = operator.itemgetter(*chain.from_iterable(t))
    good = [False] * n
    automorphisms = []
    for x, tx in enumerate(t):
        # An identity row holds, and its conjugates are identity rows too.
        if good[x] or tx == identity:
            continue
        take = operator.itemgetter(*tx)
        lhs, rhs = composed(tx), tuple(chain.from_iterable(map(take, take(t))))
        if lhs != rhs:
            return (x, *divmod(list(map(operator.ne, lhs, rhs)).index(True), n))
        todo = [x]
        if len(set(tx)) == n:
            automorphisms.append(tx)
            todo += [tx[c] for c in range(n) if good[c]]
        while todo:
            c = todo.pop()
            if not good[c]:
                good[c] = True
                todo += [a[c] for a in automorphisms]
    return None


def classify(m: MagmaTable) -> StructureReport:
    """Check the shelf, spindle and quandle axioms.

    Self-distributivity is checked a row at a time, and rows that checked
    automorphism rows prove good by conjugation are skipped, so a quandle
    whose rows generate a large group costs a few rows, not n³ cells.
    """
    t, n = m.table, m.order
    sd = _first_distributivity_violation(t, n)
    idem = next(((x, x) for x in range(n) if t[x][x] != x), None)
    bij = next(((x, next(y for y, v in enumerate(row) if row.index(v) < y))
                for x, row in enumerate(t) if len(set(row)) < n), None)
    named = zip(("self-distributivity", "idempotency", "bijectivity"), (sd, idem, bij))
    is_shelf = sd is None
    is_spindle = is_shelf and idem is None
    is_quandle = is_spindle and bij is None
    return StructureReport(is_shelf, is_spindle, is_quandle,
                           tuple((name, w) for name, w in named if w is not None))


def inverse_operation(m: MagmaTable) -> MagmaTable:
    """The operation undoing each left translation of a quandle.

    Row x of the result is the inverse of the permutation row x of the
    input, so acting and un-acting by the same element cancel both ways.
    """
    t = np.array(m.table)
    broken = np.flatnonzero((np.sort(t, axis=1) != np.arange(m.order)).any(axis=1))
    if len(broken):
        raise ValueError(f"row {broken[0]} is not a bijection; table is not a quandle")
    return MagmaTable._built(np.argsort(t, axis=1).tolist())


def _first_action_failure(g: np.ndarray, act: np.ndarray):
    """Lexicographically first (x, h, p) with (xh)p != x(hp) under act, as ints, or None."""
    for x in range(len(g)):
        bad = np.argwhere(act[g[x]] != act[x][act])
        if len(bad):
            return (x, *bad[0].tolist())
    return None


@dataclass(frozen=True)
class GroupTable(MagmaTable):
    """A finite group as a Cayley table, fully validated at construction;
    ``identity`` and ``inverse`` are read off the table."""

    identity: int = field(init=False)
    inverse: tuple[int, ...] = field(init=False)
    json_name: ClassVar[str] = "group"

    def __post_init__(self, source: str):
        super().__post_init__(source)
        t = np.array(self.table, dtype=np.intp)
        labels = np.arange(self.order)
        # The e whose row and column are both the identity map; at most one is.
        ids = np.flatnonzero((t == labels).all(axis=1) & (t.T == labels).all(axis=1))
        if not len(ids):
            raise ValueError("no identity element")
        e = int(ids[0])
        two_sided = (t == e) & (t.T == e)
        missing = np.flatnonzero(~two_sided.any(axis=1))
        if len(missing):
            raise ValueError(f"element {missing[0]} has no inverse")
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inverse", tuple(two_sided.argmax(axis=1).tolist()))
        # Associativity is the law of the group acting on itself.
        bad = _first_action_failure(t, t)
        if bad is not None:
            raise ValueError("associativity fails at ({}, {}, {})".format(*bad))

    mul = MagmaTable.__call__

    def to_json(self) -> dict:
        return {**super().to_json(), "identity": self.identity}

    @classmethod
    def from_json(cls, obj) -> "GroupTable":
        g = super().from_json(obj)
        identity = _check_int(obj.get("identity", g.identity), "group JSON 'identity'")
        if identity != g.identity:
            raise ValueError(f"declared identity {identity} but table identity is {g.identity}")
        return g


def cyclic_group(n: int) -> GroupTable:
    _check_int(n, "cyclic group order n", 1)
    return GroupTable.from_rows([[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, order 2n; indices 0..n-1 are the
    rotations r**i, n..2n-1 the reflections s*r**i."""
    _check_int(n, "dihedral order parameter", 1)
    r, i = np.divmod(np.arange(2 * n), n)
    # s^ra r^ia times s^rb r^ib is s^(ra xor rb) r^(ib + ia), or r^(ib - ia) if rb = 1.
    return GroupTable.from_rows(n * (r[:, None] ^ r) + (i + (1 - 2 * r) * i[:, None]) % n)


def symmetric_group(n: int) -> GroupTable:
    """All permutations of n points in lexicographic order, composed so that
    the right factor applies first."""
    perms = _permutation_stack(_check_int(n, "symmetric group degree n", 0))
    # Base-n codes rise with the lexicographic order, so a search finds indices.
    weights = n ** np.arange(n - 1, -1, -1)
    # perms[:, perms][p, q] is p after q: the map i -> p[q[i]].
    products = np.searchsorted(perms @ weights, perms[:, perms] @ weights)
    return GroupTable.from_rows(products.tolist())


def quaternion_group() -> GroupTable:
    """The eight unit quaternions; index = 2*unit + (1 if negative) with
    units ordered 1, i, j, k."""
    # The product of two units is the unit whose index is the XOR of theirs,
    # negated for i*i, j*j, k*k, i*k, j*i and k*j.
    minus = {(1, 1), (2, 2), (3, 3), (1, 3), (2, 1), (3, 2)}
    return GroupTable.from_rows([
        [2 * (a // 2 ^ b // 2) + (a % 2 ^ b % 2 ^ ((a // 2, b // 2) in minus)) for b in range(8)]
        for a in range(8)
    ])


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Pairs (a, b), at index a * h.order + b, multiplied componentwise."""
    m, size = h.order, g.order * h.order
    a, b = np.array(g.table), np.array(h.table)
    pairs = a[:, None, :, None] * m + b[:, None, :]  # [a1, a2, b1, b2]
    return GroupTable.from_rows(pairs.reshape(size, size).tolist())


def conjugation_quandle(g: GroupTable) -> MagmaTable:
    """The group itself with x acting on y as x*y*x^-1."""
    t = np.array(g.table)
    return MagmaTable._built(t[t, np.array(g.inverse)[:, None]].tolist())


def prenoether_holds(m: MagmaTable) -> tuple[bool, tuple[int, int] | None]:
    """Whether "x fixes y" and "y fixes x" are equivalent for every pair.

    Returns (True, None) or (False, first lexicographic witness pair).
    """
    t, n = m.table, m.order
    for x in range(n):
        for y in range(n):
            if (t[x][y] == y) != (t[y][x] == x):
                return False, (x, y)
    return True, None


@dataclass(frozen=True)
class UnionQuandleSpec:
    """A group together with a validated action on an m-point set.

    ``action[g][p]`` is the image of point p under group element g; the
    identity and compatibility laws are checked exactly at construction.
    """

    group: GroupTable
    set_size: int
    action: Table

    def __post_init__(self):
        # set_size 0 is the degenerate union: just the conjugation quandle.
        n, m = self.group.order, _check_int(self.set_size, "set_size", 0)
        act = _freeze_table(self.action, n, "action", m)
        object.__setattr__(self, "action", act)
        act = np.array(act, dtype=np.intp)
        moved = np.flatnonzero(act[self.group.identity] != np.arange(m))
        if len(moved):
            raise ValueError(f"identity must act trivially; moves point {moved[0]}")
        g = np.array(self.group.table, dtype=np.intp)
        bad = _first_action_failure(g, act)
        if bad is not None:
            raise ValueError("action law fails at (g={}, h={}, p={})".format(*bad))


def union_quandle(spec: UnionQuandleSpec) -> MagmaTable:
    """Quandle on group-elements-plus-points: group elements act on the group
    by conjugation and on the points by the given action; points act
    trivially.  Indices [0, n) are the group, [n, n+m) the points.
    """
    n, m = spec.group.order, spec.set_size
    conj = conjugation_quandle(spec.group).table
    rows = [conj[x] + tuple(n + p for p in spec.action[x]) for x in range(n)]
    return MagmaTable._built(rows + [tuple(range(n + m))] * m)


def relabel_table(table: Table, perm: Row) -> Table:
    """Transport the operation along the relabeling old -> perm[old]."""
    table = _freeze_table(table)
    n = len(table)
    p = np.asarray(perm)
    if p.shape != (n,) or p.dtype.kind not in "iu" or (np.sort(p) != np.arange(n)).any():
        raise ValueError(f"perm must be a permutation of range({n}), got {perm!r}")
    return tuple(map(tuple, _relabelings(np.array(table), p[None]).reshape(n, n).tolist()))


def _relabelings(table: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The order-n int ``table``, read row-major, moved along old -> perms[k, old]:
    one flat relabeling per row of the ``(K, n)`` stack, as a ``(K, n * n)`` array."""
    k, n = perms.shape
    inv = np.argsort(perms, axis=1)
    # Entry (a, b) of row k is perms[k] of the old entry at (inv[k, a], inv[k, b]).
    old = table.take((inv * n)[:, :, None] + inv[:, None, :]).reshape(k, n * n)
    return perms.take(old + (np.arange(k) * n)[:, None])


# canonical_form gathers relabelings in blocks that fix the images of all but
# the last _FREE_LABELS labels, so no block holds more than 6! = 720 of them.
_FREE_LABELS = 6


@lru_cache(maxsize=None)
def _permutation_stack(m: int) -> np.ndarray:
    """All permutations of range(m), one per row, in lexicographic order."""
    return np.array(list(permutations(range(m))), dtype=np.intp)


def canonical_form(m: MagmaTable) -> Table:
    """Lexicographically least table among all relabelings.

    Every one of the n! relabelings is tried, block by block.  The labels are
    big-endian unsigned ints (`_relabelings` keeps the permutations' dtype), so
    a relabeled table read row-major as one byte string sorts as the table does.
    """
    n = m.order
    table = np.array(m.table, dtype=np.min_scalar_type(n))
    free = min(n, _FREE_LABELS)
    stack = _permutation_stack(free)
    perm = np.empty((len(stack), n), dtype=np.dtype(np.min_scalar_type(n - 1)).newbyteorder(">"))
    best = None
    for prefix in permutations(range(n), n - free):
        rest = sorted(set(range(n)) - set(prefix))
        perm[:, : n - free] = prefix
        perm[:, n - free :] = np.asarray(rest, dtype=np.intp)[stack]
        relabeled = _relabelings(table, perm)
        least = relabeled[relabeled.view(f"S{relabeled[0].nbytes}").argmin()]
        if best is None or least.tobytes() < best.tobytes():
            best = least
    return tuple(map(tuple, best.reshape(n, n).tolist()))


def _search(order: int, kind: str) -> list[Table]:
    """All order-n tables of the kind, in lexicographic order.

    Branches on the least unplaced row, candidates in lexicographic order, so
    tables come out sorted.  Each pair of placed rows x, y with v = σ_x(y) is
    checked once rows x, y and v are all placed; while row v is unplaced, a
    bijective σ_x forces it to σ_x σ_y σ_x⁻¹, which is a candidate for v.
    Rows without an inverse force nothing, so shelves share the search.
    """
    pool = list(permutations(range(order)) if kind == "quandle"
                else product(range(order), repeat=order))
    # Quandle and spindle rows fix their own index; shelf rows are arbitrary.
    candidates = [[r for r in pool if kind == "shelf" or r[i] == i] for i in range(order)]
    inverse = {row: tuple(sorted(range(order), key=row.__getitem__))
               if len(set(row)) == order else None
               for row in set(chain.from_iterable(candidates))}
    # take[r](s) is s∘r (a bare int at order 1).
    take = {row: operator.itemgetter(*row) for row in inverse}
    rows: list[Row | None] = [None] * order
    found: list[Table] = []

    def close(todo: list[int], done: list[int]) -> bool:
        # A pair is checked when the last of its rows x, y, v joins ``done``.
        while todo:
            r = todo.pop()
            done.append(r)
            for x in done:
                tx = rows[x]
                for y in done:
                    v = tx[y]
                    if r != x and r != y and r != v:
                        continue
                    ty, tv = rows[y], rows[v]
                    if tv is None:
                        ix = inverse[tx]
                        if ix is not None:
                            rows[v] = tuple([tx[ty[w]] for w in ix])
                            todo.append(v)
                    elif v in done and take[ty](tx) != take[tx](tv):
                        return False
        return True

    def descend() -> None:
        if None not in rows:
            found.append(tuple(rows))
            return
        i = rows.index(None)
        saved = rows[:]
        done = [r for r in range(order) if saved[r] is not None]
        for cand in candidates[i]:
            rows[i] = cand
            if close([i], done[:]):
                descend()
            rows[:] = saved

    descend()
    return found


def enumerate_tables(order: int, kind: str, up_to_iso: bool = False) -> list[MagmaTable]:
    """All order-n shelves, spindles or quandles, in lexicographic order.

    With ``up_to_iso`` the list holds one representative per isomorphism
    class: the lexicographically least table of the class.  The search
    places rows and lets every bijective left translation σ_x force the row
    of σ_x(y) to σ_x σ_y σ_x⁻¹ (each σ_x of a rack is an automorphism).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if _check_int(order, "order", 1) > MAX_ORDER[kind]:
        raise ValueError(
            f"enumeration of {kind}s is limited to order <= {MAX_ORDER[kind]}"
        )
    found = _search(order, kind)
    if up_to_iso:
        # ``found`` is sorted and closed under relabeling, so the first table
        # met of each orbit is its least; one gather marks its orbit seen.
        perms = _permutation_stack(order)
        reps: list[Table] = []
        seen: set[tuple[int, ...]] = set()
        for t in found:
            if tuple(chain.from_iterable(t)) not in seen:
                reps.append(t)
                seen.update(map(tuple, _relabelings(np.array(t), perms).tolist()))
        found = reps
    return [MagmaTable._built(t) for t in found]
