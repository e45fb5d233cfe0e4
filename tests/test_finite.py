"""Finite-structure tests.

Enumeration is validated against an independent brute-force oracle that
shares no code with the package: numpy advanced indexing filters all
candidate tables directly against the axioms, and isomorphism classes are
recomputed by explicit relabeling.  Order-5 counts were frozen from the
same oracle run offline (raw 404, classes 22) because the 24^5-candidate
sweep is too slow for a unit test.
"""

import json
from functools import cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quandlekit as qk

# the classic 3-element table: x ? y = 2x - y mod 3
CYCLIC3 = ((0, 2, 1), (2, 1, 0), (1, 0, 2))

QUANDLE5_RAW = 404
QUANDLE5_CLASSES = 22


# ---------------------------------------------------------------------------
# independent oracle


def oracle_sd_cells(tables: np.ndarray) -> np.ndarray:
    """Per table of the stack, whether self-distributivity holds at each (x, y, z)."""
    n = tables.shape[1]
    idx = np.arange(tables.shape[0])[:, None, None, None]
    x = np.arange(n)[None, :, None, None]
    y = np.arange(n)[None, None, :, None]
    z = np.arange(n)[None, None, None, :]
    lhs = tables[idx, x, tables[idx, y, z]]
    rhs = tables[idx, tables[idx, x, y], tables[idx, x, z]]
    return lhs == rhs


def oracle_sd_mask(tables: np.ndarray) -> np.ndarray:
    return oracle_sd_cells(tables).all(axis=(1, 2, 3))


def oracle_report(t: np.ndarray) -> tuple:
    """(is_shelf, is_spindle, is_quandle, violations) of one table, with the
    first lexicographic witness of each failed axiom."""
    n = len(t)
    diag = np.arange(n)
    earlier = np.tril(np.ones((n, n), dtype=bool), -1)  # [y, y'] for y' < y
    failures = {
        "self-distributivity": np.argwhere(~oracle_sd_cells(t[None])[0]),
        "idempotency": np.argwhere(t[diag, diag] != diag).repeat(2, axis=1),
        # (x, y): t[x, y] repeats an entry left of it in row x
        "bijectivity": np.argwhere(((t[:, :, None] == t[:, None, :]) & earlier).any(axis=2)),
    }
    shelf = bool(oracle_sd_mask(t[None])[0])
    spindle = shelf and not len(failures["idempotency"])
    quandle = spindle and not len(failures["bijectivity"])
    violations = tuple((name, tuple(int(v) for v in bad[0]))
                       for name, bad in failures.items() if len(bad))
    return shelf, spindle, quandle, violations


def oracle_all_tables(n: int) -> np.ndarray:
    cells = n * n
    codes = np.arange(n ** cells)
    out = np.empty((codes.size, cells), dtype=np.int8)
    for c in range(cells):
        out[:, cells - 1 - c] = (codes // (n ** c)) % n
    return out.reshape(-1, n, n)


def oracle_enumerate(n: int, kind: str) -> list[tuple]:
    if kind == "quandle" and n > 3:
        # permutation rows fixing their own index; needed to reach n = 4
        rows = [
            np.array([p for p in permutations(range(n)) if p[i] == i], dtype=np.int8)
            for i in range(n)
        ]
        tables = np.array(
            [np.stack(combo) for combo in product(*rows)], dtype=np.int8
        )
    else:
        tables = oracle_all_tables(n)
    tables = tables[oracle_sd_mask(tables)]
    if kind in ("spindle", "quandle"):
        diag = np.arange(n)
        tables = tables[(tables[:, diag, diag] == diag).all(axis=1)]
    if kind == "quandle":
        tables = tables[(np.sort(tables, axis=2) == diag).all(axis=(1, 2))]
    return sorted(tuple(tuple(int(v) for v in row) for row in t) for t in tables)


def oracle_canonical(table: tuple) -> tuple:
    n = len(table)
    best = None
    for p in permutations(range(n)):
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        cand = tuple(
            tuple(p[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
        )
        if best is None or cand < best:
            best = cand
    return best


def oracle_group(rows) -> tuple:
    """("ok", identity, inverse) of a table, or ("error", message): the
    group-law checks as triple loops, in the order and wording the library
    reports them."""
    t = tuple(tuple(r) for r in rows)
    labels = tuple(range(len(t)))
    e = next((e for e in labels if t[e] == labels and all(t[y][e] == y for y in labels)), None)
    if e is None:
        return "error", "no identity element"
    inverse = tuple(next((y for y in labels if t[x][y] == e and t[y][x] == e), None)
                    for x in labels)
    if None in inverse:
        return "error", f"element {inverse.index(None)} has no inverse"
    for a, b, c in product(labels, repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return "error", f"associativity fails at ({a}, {b}, {c})"
    return "ok", e, inverse


def oracle_action(g, m: int, act) -> str | None:
    """The first failure of a group action as the library words it, or None."""
    moved = [p for p in range(m) if act[g.identity][p] != p]
    if moved:
        return f"identity must act trivially; moves point {moved[0]}"
    for x, h, p in product(range(g.order), range(g.order), range(m)):
        if act[g.table[x][h]][p] != act[x][act[h][p]]:
            return f"action law fails at (g={x}, h={h}, p={p})"
    return None


def oracle_symmetric_group(n: int) -> tuple:
    """The Cayley table of S_n over lexicographically listed permutations,
    the right factor applied first."""
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms)


# ---------------------------------------------------------------------------
# tables and classification


def test_magma_table_validation():
    with pytest.raises(ValueError):
        qk.MagmaTable.from_rows([[0, 1], [1]])
    with pytest.raises(ValueError):
        qk.MagmaTable.from_rows([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        qk.MagmaTable.from_rows([])
    with pytest.raises(ValueError):
        qk.MagmaTable(order=3, table=((0, 0), (1, 1)))


@pytest.mark.parametrize("rows", [
    [[0, 1.9], [True, "1"]],
    [[0, 1], [True, 0]],
    [[0, 1], [1, 0.0]],
    [[0, "1"], [1, 0]],
    [[0, 1], [np.True_, 0]],
    [[0, np.float64(1.0)], [1, 0]],
    [[0, 1], 10],
])
def test_from_rows_refuses_non_integers(rows):
    with pytest.raises(ValueError, match="integers only"):
        qk.MagmaTable.from_rows(rows)
    with pytest.raises(ValueError, match="integers only"):
        qk.GroupTable.from_rows(rows)


def test_from_rows_accepts_numpy_integers():
    rows = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]], dtype=np.int8)
    m = qk.MagmaTable.from_rows(rows)
    assert m == qk.MagmaTable.from_rows(CYCLIC3)
    assert all(type(v) is int for row in m.table for v in row)


def test_magma_json_round_trip():
    m = qk.MagmaTable.from_rows(CYCLIC3)
    assert qk.MagmaTable.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        qk.MagmaTable.from_json({"order": 2})
    with pytest.raises(ValueError):
        qk.MagmaTable.from_json([[0]])


@pytest.mark.parametrize("cls", [qk.MagmaTable, qk.GroupTable])
@pytest.mark.parametrize("obj, field", [
    ({"order": 2, "table": [[0, 1.9], [1, 0]]}, "'table'"),
    ({"order": 2, "table": [[0, 1], [True, 0]]}, "'table'"),
    ({"order": 2, "table": [[0, 1], ["1", 0]]}, "'table'"),
    ({"order": 2, "table": [[0, 1], [1, 0.0]]}, "'table'"),
    ({"order": 2, "table": "01"}, "'table'"),
    ({"order": 2, "table": [[0, 1], 10]}, "'table'"),
    ({"order": "2", "table": [[0, 1], [1, 0]]}, "'order'"),
    ({"order": 2.0, "table": [[0, 1], [1, 0]]}, "'order'"),
    ({"order": True, "table": [[0]]}, "'order'"),
])
def test_table_json_rejects_non_integers(cls, obj, field):
    with pytest.raises(ValueError, match=field):
        cls.from_json(obj)


def test_group_json_rejects_non_integer_identity():
    obj = qk.cyclic_group(2).to_json()
    for bad in (0.0, False, "0"):
        obj["identity"] = bad
        with pytest.raises(ValueError, match="'identity'"):
            qk.GroupTable.from_json(obj)


@st.composite
def near_quandle_tables(draw):
    """A table of order 1-7: a relabeled dihedral quandle x ▷ y = 2x - y mod n,
    a shelf x ▷ y = f(y), or arbitrary entries, with up to two cells then
    overwritten, so that each axiom fails at varied places."""
    n = draw(st.integers(min_value=1, max_value=7))
    cells = st.integers(min_value=0, max_value=n - 1)
    base = draw(st.sampled_from(["dihedral", "shelf", "random"]))
    if base == "dihedral":
        p = np.array(draw(st.permutations(range(n))))
        t = np.empty((n, n), dtype=np.intp)
        t[np.ix_(p, p)] = p[(2 * np.arange(n)[:, None] - np.arange(n)) % n]
    elif base == "shelf":
        t = np.tile(draw(st.lists(cells, min_size=n, max_size=n)), (n, 1))
    else:
        t = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                   min_size=n, max_size=n)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        t[draw(cells), draw(cells)] = draw(cells)
    return t


@settings(max_examples=150)
@given(near_quandle_tables())
# Row 0 is an endomorphism but no bijection, so it proves nothing about row
# 2 = 0 ▷ 0, which fails at (2, 1, 0).
@example(np.array([[2, 2, 2], [1, 1, 1], [0, 2, 2]]))
def test_classify_matches_brute_force_oracle(t):
    report = qk.classify(qk.MagmaTable.from_rows(t))
    got = (report.is_shelf, report.is_spindle, report.is_quandle, report.violations)
    assert got == oracle_report(t)


@settings(max_examples=40)
@given(st.data())
def test_table_json_round_trips(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    cells = st.integers(min_value=0, max_value=n - 1)
    rows = data.draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    m = qk.MagmaTable.from_rows(rows)
    assert qk.MagmaTable.from_json(json.loads(json.dumps(m.to_json()))) == m


@settings(max_examples=40)
@given(st.data())
def test_group_json_round_trips_and_rederives_identity_and_inverse(small_groups, data):
    g = data.draw(st.sampled_from(sorted(small_groups.items())))[1]
    p = data.draw(st.permutations(range(g.order)))
    # g carried along x -> p[x]: its identity and inverses carry along too
    rows = [[0] * g.order for _ in range(g.order)]
    for a, b in product(range(g.order), repeat=2):
        rows[p[a]][p[b]] = p[g.table[a][b]]
    h = qk.GroupTable.from_rows(rows)
    assert h.identity == p[g.identity]
    assert all(h.inverse[p[x]] == p[g.inverse[x]] for x in range(g.order))
    back = qk.GroupTable.from_json(json.loads(json.dumps(h.to_json())))
    assert back == h and (back.identity, back.inverse) == (h.identity, h.inverse)


@st.composite
def corrupted_large_quandles(draw):
    """Relabeled conj S3, union S3 on 3, conj S4 or an odd dihedral quandle of
    order up to 15, with up to two cells overwritten.  Their rows generate
    large groups, so classify proves most rows good without checking them."""
    name = draw(st.sampled_from(["conj S3", "union S3 on 3", "conj S4", "dihedral"]))
    if name == "dihedral":
        n = draw(st.sampled_from(range(3, 16, 2)))
        base = (2 * np.arange(n)[:, None] - np.arange(n)) % n
    elif name == "union S3 on 3":
        action = [list(p) for p in permutations(range(3))]
        spec = qk.UnionQuandleSpec(qk.symmetric_group(3), 3, action)
        base = np.array(qk.union_quandle(spec).table)
    else:
        base = np.array(qk.conjugation_quandle(qk.symmetric_group(int(name[-1]))).table)
    n = len(base)
    p = np.array(draw(st.permutations(range(n))))
    t = np.empty_like(base)
    t[np.ix_(p, p)] = p[base]
    cells = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        t[draw(cells), draw(cells)] = draw(cells)
    return t


@settings(max_examples=40)
@given(corrupted_large_quandles())
# The dihedral quandle of order 5 with only row 4 broken: rows 0 and 1 alone
# would prove rows 2-4 good, so the break must show in row 0 or 1.
@example(np.array([[0, 4, 3, 2, 1], [2, 1, 0, 4, 3], [4, 3, 2, 1, 0],
                   [1, 0, 4, 3, 2], [0, 2, 1, 0, 4]]))
def test_classify_witnesses_match_oracle_where_rows_are_skipped(t):
    report = qk.classify(qk.MagmaTable.from_rows(t))
    got = (report.is_shelf, report.is_spindle, report.is_quandle, report.violations)
    assert got == oracle_report(t)


def test_classify_cyclic3_table():
    report = qk.classify(qk.MagmaTable.from_rows(CYCLIC3))
    assert report.is_shelf and report.is_spindle and report.is_quandle
    assert report.violations == ()


def test_classify_trivial_quandle():
    m = qk.MagmaTable.from_rows([[0, 1, 2]] * 3)
    assert qk.classify(m).is_quandle


def test_classify_left_projection():
    # x ? y = x: a spindle whose rows are constant, so never a quandle
    report = qk.classify(qk.MagmaTable.from_rows([[0, 0], [1, 1]]))
    assert report.is_shelf and report.is_spindle and not report.is_quandle
    assert report.violations == (("bijectivity", (0, 1)),)


def test_classify_witnesses_are_lexicographically_first():
    # constant table x ? y = 1 - x violates everything; witnesses by hand:
    # SD at (0,0,0): 0?(0?0)=0?1=1 vs (0?0)?(0?0)=1?1=0; idempotency at 0;
    # row 0 repeats its value first at column 1.
    report = qk.classify(qk.MagmaTable.from_rows([[1, 1], [0, 0]]))
    assert not report.is_shelf and not report.is_spindle and not report.is_quandle
    assert report.violations == (
        ("self-distributivity", (0, 0, 0)),
        ("idempotency", (0, 0)),
        ("bijectivity", (0, 1)),
    )


def test_classify_idempotency_witness():
    m = qk.MagmaTable.from_rows([[1, 0], [0, 1]])
    report = qk.classify(m)
    assert ("idempotency", (0, 0)) in report.violations


# ---------------------------------------------------------------------------
# inverse operation


def test_inverse_of_trivial_is_trivial():
    m = qk.MagmaTable.from_rows([[0, 1], [0, 1]])
    assert qk.inverse_operation(m) == m


def test_inverse_of_cyclic3_is_itself():
    m = qk.MagmaTable.from_rows(CYCLIC3)
    assert qk.inverse_operation(m) == m


def test_inverse_requires_bijective_rows():
    with pytest.raises(ValueError, match="row 0"):
        qk.inverse_operation(qk.MagmaTable.from_rows([[0, 0], [1, 1]]))


def test_inverse_cancels_both_ways():
    for m in qk.enumerate_tables(3, "quandle"):
        inv = qk.inverse_operation(m)
        for x in range(3):
            for y in range(3):
                assert inv(x, m(x, y)) == y
                assert m(x, inv(x, y)) == y


def test_inverse_is_involution_order4():
    for m in qk.enumerate_tables(4, "quandle"):
        assert qk.inverse_operation(qk.inverse_operation(m)) == m


def test_inverse_of_conjugation_is_inverse_conjugation(small_groups):
    g = small_groups["S3"]
    inv = qk.inverse_operation(qk.conjugation_quandle(g))
    for x in range(6):
        for y in range(6):
            want = g.table[g.table[g.inverse[x]][y]][x]  # x^-1 y x
            assert inv(x, y) == want


def test_inverse_table_is_a_quandle():
    for m in qk.enumerate_tables(4, "quandle"):
        assert qk.classify(qk.inverse_operation(m)).is_quandle


def test_mutual_distributivity_order_le_4():
    for n in (1, 2, 3, 4):
        for m in qk.enumerate_tables(n, "quandle"):
            inv = qk.inverse_operation(m)
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert m(x, inv(y, z)) == inv(m(x, y), m(x, z))
                        assert inv(x, m(y, z)) == m(inv(x, y), inv(x, z))


# ---------------------------------------------------------------------------
# groups


@pytest.mark.parametrize("build, message", [
    (lambda: qk.MagmaTable.from_rows([[0, 2], [1, 0]]), "entry 2 at row 0 outside [0, 2)"),
    (lambda: qk.MagmaTable.from_rows([[0, 1], [1, -1]]), "entry -1 at row 1 outside [0, 2)"),
    (lambda: qk.MagmaTable.from_rows([[0, 1, 2], [1, 5, -1], [0, 0, 0]]),
     "entry 5 at row 1 outside [0, 3)"),
    (lambda: qk.UnionQuandleSpec(qk.cyclic_group(2), 2, [[0, 1], [2, 0]]),
     "entry 2 at row 1 outside [0, 2)"),
])
def test_out_of_range_entries_name_the_first_one(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_group_validation_rejects_broken_tables():
    with pytest.raises(ValueError):
        qk.GroupTable.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 2]])
    with pytest.raises(ValueError):  # no identity
        qk.GroupTable.from_rows([[1, 1], [1, 1]])


@pytest.mark.parametrize("changes, error", [
    ({}, None),                        # a list table is frozen, so the group hashes
    ({"table": [[0, 1], [1, 2]]}, "entry 2 at row 1 outside"),
])
def test_group_table_constructor_freezes_and_checks_ranges(changes, error):
    fields = {"order": 2, "table": [[0, 1], [1, 0]], **changes}
    if error is not None:
        with pytest.raises(ValueError, match=error):
            qk.GroupTable(**fields)
        return
    g = qk.GroupTable(**fields)
    assert g.table == ((0, 1), (1, 0))
    assert (g.identity, g.inverse) == (0, (0, 1))
    assert hash(g) == hash(qk.cyclic_group(2)) and g == qk.cyclic_group(2)
    with pytest.raises(TypeError):  # identity and inverse are read off the table
        qk.GroupTable(**fields, identity=0)


def test_group_json_identity_checked():
    g = qk.cyclic_group(3)
    assert qk.GroupTable.from_json(g.to_json()) == g
    bad = g.to_json()
    bad["identity"] = 1
    with pytest.raises(ValueError):
        qk.GroupTable.from_json(bad)


def test_cyclic_group_structure():
    g = qk.cyclic_group(5)
    assert g.identity == 0
    assert g.mul(2, 4) == 1
    assert g.inverse[2] == 3


def test_symmetric_group_is_nonabelian():
    g = qk.symmetric_group(3)
    assert g.order == 6
    assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))


def test_dihedral_relations():
    n = 4
    g = qk.dihedral_group(n)
    r, s = 1, n  # a generating rotation and reflection
    # s r s = r^-1
    assert g.mul(g.mul(s, r), s) == g.inverse[r]
    # reflections are involutions
    for k in range(n, 2 * n):
        assert g.mul(k, k) == g.identity


def test_quaternion_group_relations():
    g = qk.quaternion_group()
    one, minus_one, i, minus_i, j, k = 0, 1, 2, 3, 4, 6
    assert g.identity == one
    assert g.mul(i, i) == minus_one
    assert g.mul(j, j) == minus_one
    assert g.mul(i, j) == k
    assert g.mul(j, i) != k  # anticommuting units
    assert g.inverse[i] == minus_i


def test_direct_product_klein():
    v = qk.direct_product(qk.cyclic_group(2), qk.cyclic_group(2))
    assert v.order == 4
    for x in range(4):
        assert v.mul(x, x) == v.identity


def test_fixture_groups_have_expected_orders(small_groups):
    orders = {name: g.order for name, g in small_groups.items()}
    assert orders["Q8"] == 8 and orders["D4"] == 8 and orders["S3"] == 6
    assert len(small_groups) == 14  # every group of order <= 8


def test_order_is_stored_as_the_row_count():
    for cls in (qk.MagmaTable, qk.GroupTable):
        m = cls(order=np.int64(2), table=[[0, 1], [1, 0]])
        assert type(m.order) is int
        assert json.loads(json.dumps(m.to_json()))["order"] == 2


def test_group_table_is_a_magma_table():
    g = qk.cyclic_group(3)
    assert isinstance(g, qk.MagmaTable)
    assert all(g(a, b) == g.mul(a, b) for a in range(3) for b in range(3))
    report = qk.classify(g)  # x ▷ y = x + y is no shelf
    got = (report.is_shelf, report.is_spindle, report.is_quandle, report.violations)
    assert got == oracle_report(np.array(g.table)) and not report.is_shelf
    assert qk.canonical_form(g) == qk.canonical_form(qk.MagmaTable(g.order, g.table))
    assert g != qk.MagmaTable(g.order, g.table)  # a group keeps its own type


@st.composite
def near_groups(draw):
    """A relabeled group of order <= 6 (or, one time in five, an arbitrary
    table of order 1-6), maybe with a cell or two overwritten, and an action
    on 0-6 points: the table's own left multiplication, a trivial action or
    arbitrary rows, with up to two cells overwritten."""
    groups = [qk.cyclic_group(n) for n in range(1, 7)]
    groups.append(qk.direct_product(qk.cyclic_group(2), qk.cyclic_group(2)))
    # S3, the one non-abelian group here, half the time: only there does x*h differ from h*x.
    g = draw(st.just(qk.symmetric_group(3)) | st.sampled_from(groups))
    n = g.order
    if draw(st.integers(min_value=0, max_value=4)):
        p = np.array(draw(st.permutations(range(n))))
        t = np.empty((n, n), dtype=np.intp)
        t[np.ix_(p, p)] = p[np.array(g.table)]
    else:
        n = draw(st.integers(min_value=1, max_value=6))
        t = np.array(draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                                   min_size=n, max_size=n)))
    overwrites = st.sampled_from([0, 0, 0, 1, 2])
    cells = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(overwrites)):
        t[draw(cells), draw(cells)] = draw(cells)
    base = draw(st.sampled_from(["regular", "trivial", "random"]))
    m = n if base == "regular" else draw(st.integers(min_value=0, max_value=3))
    if base == "regular":
        act = t.copy()
    elif base == "trivial":
        act = np.tile(np.arange(m), (n, 1))
    else:
        act = np.array(draw(st.lists(st.lists(st.integers(0, max(m - 1, 0)), min_size=m,
                                              max_size=m), min_size=n, max_size=n)))
    act = act.reshape(n, m)
    if m:
        points = st.integers(min_value=0, max_value=m - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            act[draw(cells), draw(points)] = draw(points)
    return t.tolist(), m, act.tolist()


@settings(max_examples=150)
@given(near_groups())
# 1 * 2 = 0 but 2 * 1 = 2: a one-sided inverse is not an inverse.
@example(([[0, 1, 2], [1, 2, 0], [2, 2, 1]], 0, [[], [], []]))
def test_group_and_action_checks_match_triple_loop_oracle(case):
    rows, m, act = case
    want = oracle_group(rows)
    if want[0] == "error":
        with pytest.raises(ValueError) as err:
            qk.GroupTable.from_rows(rows)
        assert str(err.value) == want[1]
        return
    g = qk.GroupTable.from_rows(rows)
    assert (g.identity, g.inverse) == want[1:]
    assert all(type(v) is int for v in (g.identity, *g.inverse))
    want = oracle_action(g, m, act)
    if want is None:
        assert qk.UnionQuandleSpec(g, m, act).action == tuple(map(tuple, act))
    else:
        with pytest.raises(ValueError) as err:
            qk.UnionQuandleSpec(g, m, act)
        assert str(err.value) == want


@pytest.mark.parametrize("n", range(6))
def test_symmetric_group_matches_composition_oracle(n):
    g = qk.symmetric_group(n)
    assert g.table == oracle_symmetric_group(n)
    assert g.identity == 0 and g.order == len(g.table)


@pytest.mark.parametrize("build, value, error", [
    (qk.cyclic_group, True, "cyclic group order n must be an integer, got True"),
    (qk.cyclic_group, 2.5, "cyclic group order n must be an integer, got 2.5"),
    (qk.cyclic_group, 0, "cyclic group order n must be >= 1"),
    (qk.symmetric_group, -1, "symmetric group degree n must be >= 0"),
    (qk.symmetric_group, 2.5, "symmetric group degree n must be an integer, got 2.5"),
    (qk.symmetric_group, True, "symmetric group degree n must be an integer, got True"),
])
def test_group_builders_check_their_size(build, value, error):
    with pytest.raises(ValueError, match=error):
        build(value)


# ---------------------------------------------------------------------------
# conjugation, prenoether, union


def test_conjugation_quandles_of_all_fixture_groups(small_groups):
    for name, g in small_groups.items():
        cq = qk.conjugation_quandle(g)
        assert qk.classify(cq).is_quandle, name
        holds, witness = qk.prenoether_holds(cq)
        assert holds and witness is None, name


def test_abelian_conjugation_is_trivial():
    cq = qk.conjugation_quandle(qk.cyclic_group(3))
    assert cq.table == tuple(tuple(range(3)) for _ in range(3))


def test_s3_conjugation_identity_row(small_groups):
    cq = qk.conjugation_quandle(small_groups["S3"])
    e = small_groups["S3"].identity
    assert cq.table[e] == tuple(range(6))


def test_prenoether_trivial_quandle():
    m = qk.MagmaTable.from_rows([[0, 1, 2]] * 3)
    assert qk.prenoether_holds(m) == (True, None)


def test_union_quandle_z2_swap():
    z2 = qk.cyclic_group(2)
    spec = qk.UnionQuandleSpec(group=z2, set_size=2, action=((0, 1), (1, 0)))
    uq = qk.union_quandle(spec)
    assert uq.order == 4
    assert uq(1, 2) == 3      # the nonidentity group element swaps the points
    assert uq(2, 1) == 1      # points act trivially
    assert qk.classify(uq).is_quandle
    assert qk.prenoether_holds(uq) == (False, (1, 2))


def test_union_quandle_trivial_action_prenoether():
    z2 = qk.cyclic_group(2)
    spec = qk.UnionQuandleSpec(group=z2, set_size=1, action=((0,), (0,)))
    uq = qk.union_quandle(spec)
    assert qk.classify(uq).is_quandle
    assert qk.prenoether_holds(uq)[0]


def test_union_quandle_empty_set_is_conjugation(small_groups):
    g = small_groups["S3"]
    spec = qk.UnionQuandleSpec(group=g, set_size=0, action=tuple(() for _ in range(6)))
    assert qk.union_quandle(spec).table == qk.conjugation_quandle(g).table


def test_union_spec_rejects_non_actions():
    z2 = qk.cyclic_group(2)
    with pytest.raises(ValueError):  # identity must act trivially
        qk.UnionQuandleSpec(group=z2, set_size=2, action=((1, 0), (0, 1)))
    with pytest.raises(ValueError):  # g*g = e must act as the composite
        qk.UnionQuandleSpec(group=z2, set_size=3, action=((0, 1, 2), (1, 2, 0)))
    with pytest.raises(ValueError):  # wrong shape
        qk.UnionQuandleSpec(group=z2, set_size=2, action=((0, 1),))


@pytest.mark.parametrize("set_size, action, error", [
    (2, ((0, 1), (1.9, 0)), "action row 1 must hold integers only"),
    (2, ((0, 1), ("1", 0)), "action row 1 must hold integers only"),
    (2, ((0, 1), (True, 0)), "action row 1 must hold integers only"),
    (True, ((0,), (0,)), "set_size must be an integer, got True"),
])
def test_union_spec_refuses_coerced_values(set_size, action, error):
    with pytest.raises(ValueError, match=error):
        qk.UnionQuandleSpec(qk.cyclic_group(2), set_size, action)


def test_union_quandles_are_quandles_for_group_actions(small_groups):
    # natural action of S3 on 3 points: permutation index applied to a point
    perms = list(permutations(range(3)))
    action = tuple(tuple(p[x] for x in range(3)) for p in perms)
    spec = qk.UnionQuandleSpec(group=small_groups["S3"], set_size=3, action=action)
    uq = qk.union_quandle(spec)
    assert qk.classify(uq).is_quandle
    assert not qk.prenoether_holds(uq)[0]


# ---------------------------------------------------------------------------
# enumeration against the oracle


@pytest.mark.parametrize("kind,n", [
    ("shelf", 1), ("shelf", 2), ("shelf", 3),
    ("spindle", 1), ("spindle", 2), ("spindle", 3),
    ("quandle", 1), ("quandle", 2), ("quandle", 3), ("quandle", 4),
])
def test_enumeration_matches_oracle_exactly(kind, n):
    ours = [m.table for m in qk.enumerate_tables(n, kind)]
    assert ours == oracle_enumerate(n, kind)


@pytest.mark.parametrize("kind,n", [
    ("shelf", 2), ("shelf", 3), ("spindle", 3), ("quandle", 3), ("quandle", 4),
])
def test_iso_classes_match_oracle(kind, n):
    ours = [m.table for m in qk.enumerate_tables(n, kind, up_to_iso=True)]
    oracle = sorted({oracle_canonical(t) for t in oracle_enumerate(n, kind)})
    assert ours == oracle


def test_engine_built_tables_pass_the_constructor_checks(small_groups):
    # The engines build their tables unchecked; each must be one the checking
    # constructor accepts unchanged, held as plain ints.
    built = [m for kind, cap in qk.finite.MAX_ORDER.items() for n in range(1, cap + 1)
             for up_to_iso in (False, True) for m in qk.enumerate_tables(n, kind, up_to_iso)]
    for g in [*small_groups.values(), qk.symmetric_group(5)]:
        built += [qk.conjugation_quandle(g), qk.inverse_operation(qk.conjugation_quandle(g))]
    s3 = small_groups["S3"]
    action = tuple(tuple(p) for p in permutations(range(3)))
    built.append(qk.union_quandle(qk.UnionQuandleSpec(s3, 3, action)))
    for m in built:
        assert type(m) is qk.MagmaTable
        assert qk.MagmaTable.from_rows(m.table) == m
        assert all(type(v) is int for row in m.table for v in row)


def test_quandle5_counts_frozen_from_oracle():
    assert len(qk.enumerate_tables(5, "quandle")) == QUANDLE5_RAW
    assert len(qk.enumerate_tables(5, "quandle", up_to_iso=True)) == QUANDLE5_CLASSES


def oracle_class_count(tables: np.ndarray) -> int:
    """Isomorphism classes of a stack of tables closed under relabeling: each
    table not yet seen opens a class and marks its n! relabelings seen."""
    n = tables.shape[1]
    perms = np.array(list(permutations(range(n))))
    inverses = np.argsort(perms, axis=1)
    index = {t.tobytes(): i for i, t in enumerate(tables)}
    seen = np.zeros(len(tables), dtype=bool)
    classes = 0
    for i, t in enumerate(tables):
        if not seen[i]:
            classes += 1
            # relabeled[k, a, b] = perms[k][t[inv_k[a], inv_k[b]]]
            old = t[inverses[:, :, None], inverses[:, None, :]]
            images = np.take_along_axis(perms, old.reshape(len(perms), -1), axis=1)
            seen[[index[r.tobytes()] for r in images.astype(tables.dtype)]] = True
    return classes


@cache
def searched_quandles(n: int) -> list:
    """``_search(n, "quandle")``, run once per order for the whole module."""
    return qk.finite._search(n, "quandle")


@pytest.mark.parametrize("n, count, classes", [(5, QUANDLE5_RAW, QUANDLE5_CLASSES), (6, 6658, 73)])
def test_search_gives_every_quandle_beyond_the_oracle_range(n, count, classes):
    # ``count`` is every labeled quandle of order n (6658 is what the row-by-row
    # backtracker found with the order cap lifted), so a strictly increasing
    # list of that many quandles is the exact list; 73 is OEIS A181771.
    tables = searched_quandles(n)
    assert len(tables) == count
    assert all(a < b for a, b in zip(tables, tables[1:]))
    stack = np.array(tables, dtype=np.int8)
    diag = np.arange(n)
    assert oracle_sd_mask(stack).all()
    assert (stack[:, diag, diag] == diag).all()
    assert (np.sort(stack, axis=2) == diag).all()
    assert oracle_class_count(stack) == classes


def test_class_sweep_above_the_order_cap(monkeypatch):
    # With the cap lifted, the sweep over the 6658 labeled quandles of order 6
    # keeps 73 (OEIS A181771), each the least table of its class.
    monkeypatch.setitem(qk.finite.MAX_ORDER, "quandle", 6)
    monkeypatch.setattr(qk.finite, "_search", lambda n, kind: searched_quandles(n))
    reps = [m.table for m in qk.enumerate_tables(6, "quandle", up_to_iso=True)]
    assert len(reps) == 73
    assert all(a < b for a, b in zip(reps, reps[1:]))
    assert all(qk.canonical_form(qk.MagmaTable.from_rows(t)) == t for t in reps)


def test_orbit_sizes_sum_to_raw_count():
    for n in (3, 4):
        reps = qk.enumerate_tables(n, "quandle", up_to_iso=True)
        raw = len(qk.enumerate_tables(n, "quandle"))
        total = 0
        for rep in reps:
            total += len({qk.relabel_table(rep.table, p) for p in permutations(range(n))})
        assert total == raw


def test_cyclic3_table_is_enumerated():
    tables = [m.table for m in qk.enumerate_tables(3, "quandle")]
    assert CYCLIC3 in tables
    reps = [m.table for m in qk.enumerate_tables(3, "quandle", up_to_iso=True)]
    assert qk.canonical_form(qk.MagmaTable.from_rows(CYCLIC3)) in reps


def test_canonical_form_is_relabeling_invariant():
    m = qk.MagmaTable.from_rows(CYCLIC3)
    canon = qk.canonical_form(m)
    for p in permutations(range(3)):
        relabeled = qk.MagmaTable.from_rows(qk.relabel_table(m.table, p))
        assert qk.canonical_form(relabeled) == canon


def dihedral_quandle(n):
    return qk.MagmaTable.from_rows([[(2 * x - y) % n for y in range(n)] for x in range(n)])


def union_z4_on_3():
    """Z4 on three points, the generator swapping the first two."""
    swap = [[0, 1, 2], [1, 0, 2]]
    spec = qk.UnionQuandleSpec(qk.cyclic_group(4), 3, [swap[g % 2] for g in range(4)])
    return qk.union_quandle(spec)


def test_canonical_form_matches_oracle_on_small_tables():
    tables = [m for n in range(1, 5) for m in qk.enumerate_tables(n, "quandle")]
    # shelves and spindles cover non-idempotent, non-bijective tables
    tables += qk.enumerate_tables(3, "shelf") + qk.enumerate_tables(3, "spindle")
    for m in tables:
        assert qk.canonical_form(m) == oracle_canonical(m.table)


@pytest.mark.parametrize("name, m", [
    ("conj Z5", qk.conjugation_quandle(qk.cyclic_group(5))),
    ("dihedral 5", dihedral_quandle(5)),
    ("conj S3", qk.conjugation_quandle(qk.symmetric_group(3))),
    ("dihedral 6", dihedral_quandle(6)),
    # trivial: every relabeling ties for least
    ("conj Z7", qk.conjugation_quandle(qk.cyclic_group(7))),
    ("dihedral 7", dihedral_quandle(7)),
    ("union Z4 on 3", union_z4_on_3()),
])
def test_canonical_form_matches_oracle_on_relabelings(name, m):
    rng = np.random.default_rng(7)
    relabeled = qk.relabel_table(m.table, tuple(rng.permutation(m.order).tolist()))
    canon = qk.canonical_form(qk.MagmaTable.from_rows(relabeled))
    assert canon == oracle_canonical(relabeled) == oracle_canonical(m.table)
    assert all(type(v) is int for row in canon for v in row)


def test_quandle5_classes_match_oracle_canonical_forms():
    labeled = qk.enumerate_tables(5, "quandle")
    oracle = sorted({oracle_canonical(m.table) for m in labeled})
    assert [m.table for m in qk.enumerate_tables(5, "quandle", up_to_iso=True)] == oracle


@st.composite
def tables_and_relabelings(draw, max_order=7):
    n = draw(st.integers(min_value=1, max_value=max_order))
    cells = st.integers(min_value=0, max_value=n - 1)
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    return qk.MagmaTable.from_rows(rows), tuple(draw(st.permutations(range(n))))


@settings(max_examples=60)
@given(tables_and_relabelings())
def test_canonical_form_is_least_and_relabeling_invariant(case):
    m, perm = case
    canon = qk.canonical_form(m)
    relabeled = qk.MagmaTable.from_rows(qk.relabel_table(m.table, perm))
    assert qk.canonical_form(relabeled) == canon <= m.table


def oracle_relabel(table, perm):
    """Transport along old -> perm[old], one cell at a time."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return tuple(tuple(r) for r in out)


@settings(max_examples=80)
@given(tables_and_relabelings(max_order=8))
def test_relabel_table_matches_cell_loop_oracle(case):
    m, perm = case
    got = qk.relabel_table(m.table, perm)
    assert got == oracle_relabel(m.table, perm)
    assert all(type(v) is int for row in got for v in row)


@pytest.mark.parametrize("perm", [(0, 0), (1, 0, 5), (1,), (2, 0), (0.0, 1.0), (False, True),
                                  ("0", "1"), 1])
def test_relabel_table_refuses_non_permutations(perm):
    with pytest.raises(ValueError, match=r"perm must be a permutation of range\(2\), got "):
        qk.relabel_table(((0, 1), (1, 0)), perm)


@pytest.mark.parametrize("table, error", [
    (((0, 1, 1), (1, 0, 1)), "row 0 has length 3, expected 2"),
    (((0, 1), (1, 5)), r"entry 5 at row 1 outside \[0, 2\)"),
    (((0, 1), (1, 0.0)), "table row 1 must hold integers only"),
])
def test_relabel_table_refuses_malformed_tables(table, error):
    with pytest.raises(ValueError, match=error):
        qk.relabel_table(table, (1, 0))


def test_enumeration_guards():
    with pytest.raises(ValueError):
        qk.enumerate_tables(4, "shelf")
    with pytest.raises(ValueError):
        qk.enumerate_tables(4, "spindle")
    with pytest.raises(ValueError):
        qk.enumerate_tables(6, "quandle")
    with pytest.raises(ValueError):
        qk.enumerate_tables(0, "quandle")
    with pytest.raises(ValueError, match="order must be an integer, got True"):
        qk.enumerate_tables(True, "quandle")
    with pytest.raises(ValueError):
        qk.enumerate_tables(2, "rack")


def test_enumerated_tables_actually_satisfy_axioms():
    for m in qk.enumerate_tables(3, "shelf"):
        assert qk.classify(m).is_shelf
    for m in qk.enumerate_tables(3, "spindle"):
        assert qk.classify(m).is_spindle
    for m in qk.enumerate_tables(4, "quandle"):
        assert qk.classify(m).is_quandle
