"""The four benchmark workloads: seeded inputs, jobs and output oracles.

A job is one public engine call or one CLI process.  ``build`` turns a
seed into the job list of one pass; a pass is the unit that reaches a
verdict, and every pass of a run repeats the same inputs.  Each job's
``check`` is its oracle: it raises :class:`OracleMiss` when the output is
wrong and otherwise returns ``(verdict, margins)``.  The verdict holds only
exact values (booleans, counts, exit codes, tables), so it can be hashed and
compared between commits; margins are decision distances in decades.

Oracles use closed forms evaluated with numpy, published counts (OEIS
A181771 for quandles) and structural facts (conjugation and union
quandles are quandles; a union quandle fails the fixes-each-other property
exactly when its action moves a point), never the code under test.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from quandlekit import finite, realizations, verify

NOETHER_TOL = verify.NOETHER_TOL
RESIDUAL_FLOOR = 1e-16

# OEIS A181771 (labeled quandles, orders 1-5) and isomorphism classes.
QUANDLES_LABELED = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404}
QUANDLE_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22}
# Order-3 shelves and spindles, labeled and up to isomorphism.
ORDER3 = {"shelf": (224, 48), "spindle": (63, 17)}


class OracleMiss(Exception):
    """A job returned an output its oracle rejects."""


def expect(cond, msg: str) -> None:
    if not cond:
        raise OracleMiss(msg)


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple]
    # Isomorphism classes an up-to-iso enumeration must return.
    classes: int = 0


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _noether_margins(verdicts) -> list[float]:
    out = []
    for v in verdicts:
        for res in v.residuals.values():
            out.append(abs(math.log10(max(res, RESIDUAL_FLOOR) / NOETHER_TOL)))
    return out


def _axiom_margins(reports) -> list[float]:
    return [
        math.log10(rep.tolerance / max(rep.max_residual, RESIDUAL_FLOOR))
        for rep in reports
        if rep.passed
    ]


# ---------------------------------------------------------------------------
# closed forms used by the smooth oracles


def _conj_closed(g: np.ndarray, t: float, y: np.ndarray) -> np.ndarray:
    """e^{tG} Y e^{-tG} through numpy's eigendecomposition of G."""
    mu, w = np.linalg.eig(g)
    w_inv = np.linalg.inv(w)
    fwd = (w * np.exp(mu * t)) @ w_inv
    bwd = (w * np.exp(-mu * t)) @ w_inv
    return fwd @ y @ bwd


def _rodrigues(x: np.ndarray, t: float, y: np.ndarray) -> np.ndarray:
    return y * math.cos(t) + np.cross(x, y) * math.sin(t) + x * float(x @ y) * (1 - math.cos(t))


def _check_flow_invariants(kind: str, x, y, t_end: float, traj) -> None:
    pts = np.array(traj.points)
    expect(np.all(np.isfinite(pts)), "non-finite point in trajectory")
    times = np.array(traj.times)
    if kind in ("matrix-hermitian", "fixed-spectrum"):
        herm = np.max(np.abs(pts - np.conj(np.swapaxes(pts, 1, 2))))
        expect(herm <= 1e-10, f"flow left the Hermitian matrices by {herm:.2e}")
        drift = np.max(np.abs(np.linalg.eigvalsh(pts) - np.linalg.eigvalsh(y)))
        expect(drift <= 1e-9, f"flow moved the spectrum by {drift:.2e}")
    elif kind == "matrix-general":
        for k in (1, 2):
            tr = np.trace(np.linalg.matrix_power(pts, k), axis1=1, axis2=2)
            drift = np.max(np.abs(tr - tr[0]))
            expect(drift <= 1e-9, f"flow moved tr(Y^{k}) by {drift:.2e}")
    elif kind == "bloch":
        expect(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) <= 1e-12, "left the sphere")
        expect(np.max(np.abs(pts @ x - float(x @ y))) <= 1e-12, "axis component moved")
    elif kind == "convex-flow":
        w = np.exp(-times)[:, None]
        err = np.max(np.abs(pts - ((1 - w) * x + w * y)))
        expect(err <= 1e-12, f"convex flow off its closed form by {err:.2e}")
    expect(abs(times[-1] - t_end) <= 1e-12, "trajectory does not end at t_end")


def _smooth(name: str, arg=None):
    if name == "matrix-hermitian":
        return realizations.matrix_hermitian(arg)
    if name == "matrix-general":
        return realizations.matrix_general(arg)
    if name == "fixed-spectrum":
        return realizations.fixed_spectrum(arg)
    if name == "convex-flow":
        return realizations.convex_flow(3)
    if name == "convex-spindle":
        return realizations.convex_spindle(0.5, 3, arg)
    if name == "corrupted":
        return realizations.corrupted_flow(3)
    return {"bloch": realizations.bloch, "union": realizations.union_lie}[name]()


def _label(name: str, arg) -> str:
    if arg is None:
        return name
    if isinstance(arg, (list, tuple)):
        arg = ",".join(f"{v:g}" for v in arg)
    return f"{name}({arg})"


# ---------------------------------------------------------------------------
# noether-grid


FIVE_SPECTRUM = (-2.0, -1.0, 0.5, 1.5, 3.0)
# (realization, argument, pairs per job, jobs per pass)
# A pass stays near a second, so every job repeats some twenty times in
# a run: a shared host can run slower for seconds at a time, and a job's
# fastest repeat must fall outside such spells.  The two fixed-spectrum
# jobs are the slowest and so set the tail; the cost of one pair varies by a
# fifth from pair to pair, so each takes three.
NOETHER_PLAN = [("matrix-hermitian", d, 1, 1) for d in range(2, 7)] + [
    ("matrix-general", 3, 1, 1),
    ("fixed-spectrum", (1.0, 2.0, 3.0), 3, 2),
    ("bloch", None, 2, 8),
    ("convex-flow", None, 5, 8),
    ("union", None, 8, 8),
]
# (realization, argument, jobs per pass).  The median job is a matrix flow,
# well inside their block, so it is one of many like jobs.
SAMPLE_FLOW_PLAN = [
    ("matrix-hermitian", 3, 12),
    ("matrix-general", 3, 12),
    ("fixed-spectrum", (1.0, 2.0, 3.0), 3),
    ("fixed-spectrum", FIVE_SPECTRUM, 3),
    ("bloch", None, 6),
    ("convex-flow", None, 6),
]
FLOW_STEPS = 40
FLOW_T_END = 2.0


def _noether_check(r):
    def check(summary):
        expect(summary.pairs == len(summary.verdicts), "pair count mismatch")
        expect(summary.control_consistent, "x = x control not consistent")
        if r.name == "union":
            for v in summary.verdicts:
                expect(v.consistent == (v.x.part == v.y.part),
                       "union verdict disagrees with the parts of its pair")
            expect(summary.modes_agree is None, "union has no analytic bracket")
        else:
            expect(summary.inconsistent_count == 0, f"{r.name}: inconsistent pair")
            expect(summary.modes_agree is True, f"{r.name}: sampled and bracket modes disagree")
        verdict = [summary.inconsistent_count, summary.modes_agree, summary.control_consistent,
                   [[v.x_fixes_y, v.y_fixes_x] for v in summary.verdicts]]
        return verdict, _noether_margins(summary.verdicts)

    return check


def build_noether_grid(seed: int, workdir: Path, wrap=lambda r: r, **_) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for name, arg, pairs, reps in NOETHER_PLAN:
        r = wrap(_smooth(name, arg))
        for s in _seeds(rng, reps):
            jobs.append(Job(
                f"noether_suite {_label(name, arg)} pairs={pairs}",
                lambda r=r, s=s, pairs=pairs: verify.noether_suite(r, pairs=pairs, seed=s),
                _noether_check(r),
            ))
    for name, arg, reps in SAMPLE_FLOW_PLAN:
        plain = _smooth(name, arg)
        r = wrap(plain)
        for _ in range(reps):
            x, y = plain.sample(rng), plain.sample(rng)

            def check(traj, name=name, x=x, y=y):
                _check_flow_invariants(name, x, y, FLOW_T_END, traj)
                return len(traj.points), []

            jobs.append(Job(
                f"sample_flow {_label(name, arg)} steps={FLOW_STEPS}",
                lambda r=r, x=x, y=y: verify.sample_flow(r, x, y, FLOW_T_END, FLOW_STEPS),
                check,
            ))
    return jobs


# ---------------------------------------------------------------------------
# axiom-sampling


# (realization, argument, samples per job, jobs per pass)
# The fixed-spectrum jobs are the slowest and so set the tail.  With six
# samples a job's cost moved by a quarter with its draw; with twelve, by a
# few percent.
AXIOM_PLAN = [
    ("matrix-hermitian", 3, 12, 4),
    ("matrix-general", 3, 12, 4),
    ("bloch", None, 40, 6),
    ("convex-flow", None, 300, 6),
    ("convex-spindle", "box", 300, 3),
    ("convex-spindle", "simplex", 300, 3),
    ("fixed-spectrum", (1.0, 2.0, 3.0), 12, 2),
    ("union", None, 300, 6),
    ("corrupted", None, 100, 4),
]
BRACKET_PLAN = [
    ("matrix-hermitian", 3),
    ("matrix-general", 3),
    ("bloch", None),
    ("convex-flow", None),
    ("fixed-spectrum", (1.0, 2.0, 3.0)),
]
BRACKET_REPS = 8
BRACKET_TOL = 1e-6
RK4_PLAN = [("matrix-hermitian", 3), ("matrix-general", 3), ("fixed-spectrum", (1.0, 2.0, 3.0))]
RK4_REPS = 6
RK4_STEPS = 300
RK4_T_END = 1.0
RK4_TOL = 1e-8


def _analytic_bracket(name: str, x, y):
    if name in ("matrix-hermitian", "fixed-spectrum"):
        return 1j * (x @ y - y @ x)
    if name == "matrix-general":
        return x @ y - y @ x
    if name == "bloch":
        return np.cross(x, y)
    return x - y


def _axiom_check(r):
    def check(reports):
        if r.name == "corrupted":
            expect(len(reports) == 4 and not any(rep.passed for rep in reports),
                   "corrupted control passed an axiom")
            margins = []
        else:
            failed = [rep.axiom for rep in reports if not rep.passed]
            expect(not failed, f"{r.name}: axioms failed: {failed}")
            margins = _axiom_margins(reports)
        return [[rep.axiom, rep.passed] for rep in reports], margins

    return check


def build_axiom_sampling(seed: int, workdir: Path, wrap=lambda r: r, **_) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for name, arg, samples, reps in AXIOM_PLAN:
        r = wrap(_smooth(name, arg))
        for s in _seeds(rng, reps):
            jobs.append(Job(
                f"verify_axioms {_label(name, arg)} samples={samples}",
                lambda r=r, s=s, n=samples: verify.verify_axioms(r, samples=n, seed=s),
                _axiom_check(r),
            ))
    for name, arg in BRACKET_PLAN:
        plain = _smooth(name, arg)
        r = wrap(plain)
        for _ in range(BRACKET_REPS):
            x, y = plain.sample(rng), plain.sample(rng)
            expected = _analytic_bracket(name, x, y)

            def check(b, expected=expected):
                err = float(np.max(np.abs(np.asarray(b) - expected)))
                expect(err <= BRACKET_TOL, f"numeric bracket off by {err:.2e}")
                return True, []

            jobs.append(Job(
                f"numeric_bracket {_label(name, arg)}",
                lambda r=r, x=x, y=y: verify.numeric_bracket(r, x, y),
                check,
            ))
    for name, arg in RK4_PLAN:
        plain = _smooth(name, arg)
        r = wrap(plain)
        for _ in range(RK4_REPS):
            x, y = plain.sample(rng), plain.sample(rng)
            gen = x if name == "matrix-general" else 1j * x
            end = _conj_closed(gen, RK4_T_END, y)

            def check(traj, end=end):
                err = float(np.max(np.abs(traj.points[-1] - end)))
                expect(err <= RK4_TOL, f"RK4 endpoint off its closed form by {err:.2e}")
                return len(traj.points), []

            jobs.append(Job(
                f"integrate_flow {_label(name, arg)} steps={RK4_STEPS}",
                lambda r=r, x=x, y=y: verify.integrate_flow(r, x, y, RK4_T_END, RK4_STEPS),
                check,
            ))
    return jobs


# ---------------------------------------------------------------------------
# finite-tables


ENUM_PLAN = [("quandle", n, iso) for n in range(1, 6) for iso in (False, True)] + [
    (kind, 3, iso) for kind in ("shelf", "spindle") for iso in (False, True)
]


def _expected_count(kind: str, order: int, iso: bool) -> int:
    if kind == "quandle":
        return (QUANDLE_CLASSES if iso else QUANDLES_LABELED)[order]
    return ORDER3[kind][1 if iso else 0]


def _relabel(table, perm) -> list[list[int]]:
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def _natural_action(points: int) -> list[list[int]]:
    """symmetric_group(points) acting on its points; elements are listed in
    the same lexicographic order the group uses."""
    return [list(p) for p in permutations(range(points))]


def _dihedral_quandle(n: int) -> finite.MagmaTable:
    """x ▷ y = 2x − y mod n, the dihedral (Takasaki) quandle of Z_n."""
    return finite.MagmaTable.from_rows([[(2 * x - y) % n for y in range(n)] for x in range(n)])


def _union(group: finite.GroupTable, points: int, action) -> finite.MagmaTable:
    return finite.union_quandle(finite.UnionQuandleSpec(group, points, action))


def _cyclic_action(n: int, points: int, step) -> list[list[int]]:
    """Z_n acting on ``points`` points, generator 1 acting as ``step``."""
    rows, cur = [], list(range(points))
    for _ in range(n):
        rows.append(cur)
        cur = [step[p] for p in cur]
    return rows


def _structures():
    """(name, table, prenoether expected) of every structure the jobs use."""
    z2 = finite.cyclic_group(2)
    groups = {
        "Z1": finite.cyclic_group(1), "Z2": z2, "Z3": finite.cyclic_group(3),
        "Z4": finite.cyclic_group(4), "Z2xZ2": finite.direct_product(z2, z2),
        "Z5": finite.cyclic_group(5), "Z6": finite.cyclic_group(6),
        "S3": finite.symmetric_group(3), "Z7": finite.cyclic_group(7),
        "Z8": finite.cyclic_group(8), "Z2xZ4": finite.direct_product(z2, finite.cyclic_group(4)),
        "Z2xZ2xZ2": finite.direct_product(z2, finite.direct_product(z2, z2)),
        "D4": finite.dihedral_group(4), "Q8": finite.quaternion_group(),
        "S4": finite.symmetric_group(4), "S5": finite.symmetric_group(5),
    }
    out = [(f"conj {k}", finite.conjugation_quandle(g), True) for k, g in groups.items()]
    unions = [
        ("S3 on 3", groups["S3"], 3, _natural_action(3), False),
        ("S4 on 4", groups["S4"], 4, _natural_action(4), False),
        ("S5 on 5", groups["S5"], 5, _natural_action(5), False),
        ("Z4 on 4", groups["Z4"], 4, _cyclic_action(4, 4, [1, 2, 3, 0]), False),
        ("Z6 on 3", groups["Z6"], 3, _cyclic_action(6, 3, [1, 2, 0]), False),
        ("Z3 trivially on 2", groups["Z3"], 2, _cyclic_action(3, 2, [0, 1]), True),
    ]
    out += [(f"union {k}", _union(g, m, act), pn) for k, g, m, act, pn in unions]
    # Canonical-form inputs, orders 5 to 7.
    canon = [
        ("conj Z5", finite.conjugation_quandle(groups["Z5"])),
        ("union Z2 on 3", _union(z2, 3, _cyclic_action(2, 3, [1, 0, 2]))),
        ("dihedral 5", _dihedral_quandle(5)),
        ("conj S3", finite.conjugation_quandle(groups["S3"])),
        ("union Z3 on 3", _union(groups["Z3"], 3, _cyclic_action(3, 3, [1, 2, 0]))),
        ("dihedral 6", _dihedral_quandle(6)),
        ("conj Z7", finite.conjugation_quandle(groups["Z7"])),
        ("union Z4 on 3", _union(groups["Z4"], 3, _cyclic_action(4, 3, [1, 0, 2]))),
        ("dihedral 7", _dihedral_quandle(7)),
    ]
    return out, canon


def _enum_job(kind: str, order: int, iso: bool) -> Job:
    want = _expected_count(kind, order, iso)

    def check(tables):
        expect(len(tables) == want, f"{kind} {order}: {len(tables)} tables, expected {want}")
        expect(len({t.table for t in tables}) == want, "duplicate tables")
        return [[list(r) for r in t.table] for t in tables], []

    scope = "up to iso" if iso else "labeled"
    return Job(
        f"enumerate_tables {kind} {order} {scope}",
        lambda: finite.enumerate_tables(order, kind, up_to_iso=iso),
        check,
        classes=want if iso else 0,
    )


def _structure_jobs(name: str, m: finite.MagmaTable, prenoether: bool) -> list[Job]:
    def check_classify(rep):
        expect(rep.is_quandle and not rep.violations, f"{name} did not classify as a quandle")
        return [rep.is_shelf, rep.is_spindle, rep.is_quandle], []

    def check_prenoether(res):
        holds, witness = res
        expect(holds == prenoether, f"{name}: prenoether {holds}, expected {prenoether}")
        if not holds:
            x, y = witness
            expect((m.table[x][y] == y) != (m.table[y][x] == x), f"{name}: bad witness")
        return [holds, list(witness) if witness else None], []

    def check_inverse(inv):
        t, it, n = m.table, inv.table, m.order
        ok = all(it[x][t[x][y]] == y and t[x][it[x][y]] == y for x in range(n) for y in range(n))
        expect(ok, f"{name}: inverse operation does not undo the rows")
        return [list(r) for r in it], []

    return [
        Job(f"classify {name}", lambda: finite.classify(m), check_classify),
        Job(f"prenoether_holds {name}", lambda: finite.prenoether_holds(m), check_prenoether),
        Job(f"inverse_operation {name}", lambda: finite.inverse_operation(m), check_inverse),
    ]


def _canonical_jobs(name: str, a: finite.MagmaTable, b: finite.MagmaTable) -> list[Job]:
    """Two relabelings of one quandle must reach the same canonical table."""
    seen = {}

    def checker(which, m):
        def check(canon):
            n = m.order
            rows = sorted(tuple(sorted(r)) for r in canon)
            expect(rows == [tuple(range(n))] * n, f"{name}: canonical form is not a quandle")
            expect(canon <= m.table, f"{name}: canonical form not lexicographically least")
            seen[which] = canon
            if len(seen) == 2:
                expect(seen["a"] == seen["b"], f"{name}: relabelings reach different forms")
            return [list(r) for r in canon], []

        return check

    return [
        Job(f"canonical_form {name} ({which})", lambda m=m: finite.canonical_form(m), checker(which, m))
        for which, m in (("a", a), ("b", b))
    ]


def build_finite_tables(seed: int, workdir: Path, **_) -> list[Job]:
    rng = np.random.default_rng(seed)
    structures, canon = _structures()
    jobs = [_enum_job(*args) for args in ENUM_PLAN]

    def relabeled(m):
        return finite.MagmaTable.from_rows(_relabel(m.table, rng.permutation(m.order).tolist()))

    for name, m, prenoether in structures:
        jobs += _structure_jobs(name, relabeled(m), prenoether)
    for name, m in canon:
        jobs += _canonical_jobs(name, relabeled(m), relabeled(m))
    return jobs


# ---------------------------------------------------------------------------
# cli-session


# A CLI process costs some 0.2 s, so a run fits little more than a hundred
# of them.  One seeded set of input files gives 15 distinct jobs, so each
# repeats six times or more and its fastest repeat is a steady measure.
CLI_VARIANTS = 1
FLOW_CLOSED_STEPS = 5000
FLOW_RK4_STEPS = 3000


def _matrix_json(a: np.ndarray) -> dict:
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _hermitian(rng, dim: int) -> np.ndarray:
    a = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    return (a + a.conj().T) / 2


def write_cli_inputs(seed: int, workdir: Path) -> dict:
    """Write the CLI input files for ``seed``; returns their paths and values."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}

    def put(key, obj):
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        files[key] = str(path)

    conj = [[(2 * x - y) % 5 for y in range(5)] for x in range(5)]
    put("quandle", {"order": 5, "table": _relabel(conj, rng.permutation(5).tolist())})
    # Every row is one fixed-point-free shift: a shelf that is not idempotent.
    shift = [[(y + 1) % 4 for y in range(4)] for _ in range(4)]
    put("rack", {"order": 4, "table": _relabel(shift, rng.permutation(4).tolist())})
    put("ragged", {"order": 3, "table": [[0, 1, 2], [1, 0], [2, 1, 0]]})
    hx, hy = _hermitian(rng, 2), _hermitian(rng, 2)
    put("hx", _matrix_json(hx))
    put("hy", _matrix_json(hy))
    nonherm = hx + 1j * np.eye(2)
    put("nonherm", _matrix_json(nonherm))
    bx, by = _unit(rng), _unit(rng)
    put("bx", bx.tolist())
    put("by", by.tolist())
    files["missing"] = str(workdir / "missing.json")
    seeds = _seeds(rng, 4)
    return {"files": files, "hx": hx, "hy": hy, "bx": bx, "by": by, "seeds": seeds}


def _lines(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _csv_rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.splitlines() if line]


def _cli_plan(inputs: dict) -> list[tuple]:
    """(name, argv, expected exit code, check of stdout) per CLI job."""
    f, s = inputs["files"], inputs["seeds"]
    two_pi = 2 * math.pi

    def classify_quandle(out):
        rep = json.loads(out)
        expect(rep["is_quandle"] and not rep["violations"], "quandle table rejected")
        return [rep["is_shelf"], rep["is_spindle"], rep["is_quandle"]], []

    def classify_rack(out):
        rep = json.loads(out)
        expect(rep["is_shelf"] and not rep["is_spindle"], "shift rack misclassified")
        return rep, []

    def enumerate_q4(out):
        recs = _lines(out)
        expect(len(recs) == 8 and recs[-1]["count"] == 7, "expected 7 order-4 quandle classes")
        return recs, []

    def verify_pass(out):
        reps = _lines(out)
        expect(len(reps) == 4 and all(r["pass"] for r in reps), "bloch axioms failed")
        margins = [math.log10(r["tolerance"] / max(r["max_residual"], RESIDUAL_FLOOR)) for r in reps]
        return [r["pass"] for r in reps], margins

    def verify_strict(out):
        reps = _lines(out)
        expect(len(reps) == 4 and not all(r["pass"] for r in reps), "tolerance 1e-20 passed")
        return [r["pass"] for r in reps], []

    def noether_ok(out):
        rec = json.loads(out)
        expect(rec["all_consistent"] and rec["modes_agree"] and rec["control_consistent"],
               "matrix-hermitian noether suite not consistent")
        return [rec["pairs"], rec["inconsistent_count"]], []

    def noether_union(out):
        rec = json.loads(out)
        first = rec["first_inconsistent"]
        expect(rec["inconsistent_count"] > 0 and first is not None, "union was consistent")
        expect(rec["control_consistent"] and rec["modes_agree"] is None, "union summary malformed")
        parts = {first["x"]["part"], first["y"]["part"]}
        expect(parts == {"algebra", "space"}, "inconsistent union pair within one part")
        margins = [abs(math.log10(max(v, RESIDUAL_FLOOR) / NOETHER_TOL))
                   for v in first["residuals"].values()]
        return [rec["pairs"], rec["inconsistent_count"]], margins

    def bracket_ok(out):
        rec = json.loads(out)
        expected = 1j * (inputs["hx"] @ inputs["hy"] - inputs["hy"] @ inputs["hx"])
        got = np.array(rec["numeric"]["re"]) + 1j * np.array(rec["numeric"]["im"])
        err = float(np.max(np.abs(got - expected)))
        expect(err <= BRACKET_TOL, f"CLI bracket off by {err:.2e}")
        return True, []

    def flow_check(steps, end):
        def check(out):
            rows = _csv_rows(out)
            expect(len(rows) == steps + 2, f"expected {steps + 2} CSV rows, got {len(rows)}")
            last = np.array([float(v) for v in rows[-1][1:]])
            expect(np.all(np.isfinite(last)), "non-finite CSV value")
            err = float(np.max(np.abs(last - end)))
            expect(err <= RK4_TOL, f"flow endpoint off its closed form by {err:.2e}")
            return [len(rows), rows[0]], []

        return check

    def silent(out):
        expect(out == "", "stdout must be empty on a usage or input error")
        return None, []

    bloch_end = _rodrigues(inputs["bx"], two_pi, inputs["by"])
    m_end = _conj_closed(1j * inputs["hx"], 2.0, inputs["hy"]).ravel()
    m_end = np.column_stack([m_end.real, m_end.imag]).ravel()
    herm = ["--realization", "matrix-hermitian", "--dim", "2"]
    return [
        ("classify quandle", ["classify", f["quandle"]], 0, classify_quandle),
        ("classify rack", ["classify", f["rack"]], 1, classify_rack),
        ("classify ragged", ["classify", f["ragged"]], 2, silent),
        ("classify missing", ["classify", f["missing"]], 2, silent),
        ("enumerate quandle 4", ["enumerate", "--order", "4", "--kind", "quandle", "--up-to-iso"],
         0, enumerate_q4),
        ("verify bloch", ["verify", "--realization", "bloch", "--samples", "40",
                          "--seed", str(s[0])], 0, verify_pass),
        ("verify strict", ["verify", *herm, "--samples", "10", "--seed", str(s[1]),
                           "--tol", "1e-20"], 1, verify_strict),
        ("noether hermitian", ["noether", *herm, "--pairs", "2", "--seed", str(s[2])],
         0, noether_ok),
        ("noether union", ["noether", "--realization", "union", "--pairs", "40",
                           "--seed", str(s[3])], 1, noether_union),
        ("bracket hermitian", ["bracket", *herm, "--x", f["hx"], "--y", f["hy"]], 0, bracket_ok),
        ("bracket non-hermitian", ["bracket", *herm, "--x", f["nonherm"], "--y", f["hy"]],
         2, silent),
        ("flow bloch closed", ["flow", "--realization", "bloch", "--x", f["bx"], "--y", f["by"],
                               "--t-end", repr(two_pi), "--steps", str(FLOW_CLOSED_STEPS)],
         0, flow_check(FLOW_CLOSED_STEPS, bloch_end)),
        ("flow hermitian rk4", ["flow", *herm, "--x", f["hx"], "--y", f["hy"], "--t-end", "2",
                                "--steps", str(FLOW_RK4_STEPS), "--method", "rk4"],
         0, flow_check(FLOW_RK4_STEPS, m_end)),
        ("flow bloch rk4", ["flow", "--realization", "bloch", "--x", f["bx"], "--y", f["by"],
                            "--method", "rk4"], 2, silent),
        ("noether unknown realization", ["noether", "--realization", "hyperbolic"], 2, silent),
    ]


def _cli_check(code: int, check):
    def run_check(result):
        got, out = result
        expect(got == code, f"exit code {got}, expected {code}")
        verdict, margins = check(out)
        return [got, verdict], margins

    return run_check


def subprocess_runner(env: dict, workdir: Path):
    """Run ``python -m quandlekit.cli argv``; returns (exit code, stdout)."""

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "quandlekit.cli", *argv],
            cwd=workdir, env=env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout.decode("utf-8")

    return run


def inprocess_runner(main):
    """Run ``main(argv)`` in this process; returns (exit code, stdout)."""

    def run(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    return run


def build_cli_session(seed: int, workdir: Path, runner: Optional[Callable] = None, **_) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for k, s in enumerate(_seeds(rng, CLI_VARIANTS)):
        inputs = write_cli_inputs(s, workdir / f"inputs{k}")
        jobs += [
            Job(f"cli[{k}] {name}", lambda argv=argv: runner(argv), _cli_check(code, check))
            for name, argv, code, check in _cli_plan(inputs)
        ]
    return jobs


# Why each workload was chosen is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    "noether-grid": build_noether_grid,
    "axiom-sampling": build_axiom_sampling,
    "finite-tables": build_finite_tables,
    "cli-session": build_cli_session,
}
