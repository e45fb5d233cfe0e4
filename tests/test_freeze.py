"""Result freeze: the usual command set, run in process through ``cli.main``,
against the committed ``freeze_expected.json``.

Exit codes, verdicts, counts, worst-case samples, tables and stderr with its
numbers masked must match exactly.  Residuals, elements, brackets and flow
points must match within the bound that ``BOUNDS`` states for each quantity,
loose enough for another numpy or BLAS and far under every tolerance.

Regenerate the expected file with ``PYTHONPATH=src python tests/test_freeze.py``,
and only with a CHANGES.md entry that names each moved value and why.
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import re

from quandlekit.cli import main

EXPECTED = pathlib.Path(__file__).with_name("freeze_expected.json")

# Quantity (the JSON key it is reported under) -> (relative, absolute) bound.
# Everything not named here, and everything under a key not named here, is
# compared exactly.
BOUNDS = {
    "max_residual": (1e-6, 1e-14),  # axiom residuals; the tightest tolerance is 1e-12
    "residuals": (1e-6, 1e-12),  # Noether grid distances, decided against 1e-7
    "x": (1e-12, 1e-14),  # sampled elements of a first inconsistent pair
    "y": (1e-12, 1e-14),
    "numeric": (1e-9, 1e-11),  # a difference quotient at h = 1e-4 cancels to about 2e-12
    "analytic": (1e-12, 1e-14),
    "discrepancy": (1e-6, 1e-11),
    "rows": (1e-9, 1e-12),  # flow points, O(1) entries, and their times
}

MATRICES = {
    "herm3-x": {"dim": 3, "re": [[1, 0.5, 0], [0.5, -0.5, 0], [0, 0, 0.25]],
                "im": [[0, -0.25, 0], [0.25, 0, 0.75], [0, -0.75, 0]]},
    "herm3-y": {"dim": 3, "re": [[0, 1, 0.5], [1, 0.25, 0], [0.5, 0, -1]],
                "im": [[0, 0, 0.5], [0, 0, -0.25], [-0.5, 0.25, 0]]},
    "gen2-x": {"dim": 2, "re": [[0.3, -0.2], [0.1, 0.4]], "im": [[0.1, 0], [0.2, -0.3]]},
    "gen2-y": {"dim": 2, "re": [[1, 2], [0, -1]], "im": [[0, 0.5], [0.5, 0]]},
    "spec2-x": {"dim": 2, "re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]},
    "spec2-y": {"dim": 2, "re": [[1.5, 0.5], [0.5, 1.5]], "im": [[0, 0], [0, 0]]},
}
INPUTS = {
    **MATRICES,
    "sphere-x": [0.0, 0.0, 1.0],
    "sphere-y": [0.6, 0.8, 0.0],
    "vec3-x": [1.0, 0.0, -1.0],
    "vec3-y": [0.5, 0.25, 2.0],
    "algebra": {"part": "algebra", "value": 0.5},
    "space": {"part": "space", "value": [1.0, 0.0]},
}

CYCLIC3 = {"order": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}
PROJECTION2 = {"order": 2, "table": [[0, 0], [1, 1]]}
SWAP2 = {"order": 2, "table": [[1, 0], [0, 1]]}

# The seven realizations, with the flags that verify and noether run them under.
REALIZATIONS = [
    ["--realization", "matrix-hermitian", "--dim", "3"],
    ["--realization", "matrix-general", "--dim", "2"],
    ["--realization", "bloch"],
    ["--realization", "convex-flow", "--dim", "3"],
    ["--realization", "convex-spindle", "--dim", "2", "--bias", "0.25", "--body", "simplex"],
    ["--realization", "fixed-spectrum", "--spectrum", "1,2,3"],
    ["--realization", "union"],
]

# Realization flags and the (x, y) inputs that flow and bracket run on.
PAIRS = [
    (["--realization", "matrix-hermitian", "--dim", "3"], "herm3-x", "herm3-y"),
    (["--realization", "matrix-general", "--dim", "2"], "gen2-x", "gen2-y"),
    (["--realization", "bloch"], "sphere-x", "sphere-y"),
    (["--realization", "convex-flow", "--dim", "3"], "vec3-x", "vec3-y"),
    (["--realization", "convex-spindle", "--dim", "3"], "vec3-x", "vec3-y"),
    (["--realization", "fixed-spectrum"], "spec2-x", "spec2-y"),
    (["--realization", "union"], "algebra", "space"),
]
VECTOR_CARRIERS = ("matrix-hermitian", "matrix-general", "bloch", "convex-flow")


def commands() -> list:
    """Every frozen command line; ``{name}`` stands for the path of input ``name``."""
    cmds = [["classify", "{cyclic3}"], ["classify", "{projection2}"], ["classify", "{swap2}"],
            ["enumerate", "--order", "3", "--kind", "quandle"],
            ["enumerate", "--order", "3", "--kind", "spindle", "--up-to-iso"],
            ["enumerate", "--order", "4", "--kind", "quandle", "--up-to-iso"]]
    for flags in REALIZATIONS:
        for seed in ("0", "1", "2"):
            cmds.append(["verify", *flags, "--samples", "20", "--seed", seed])
            cmds.append(["noether", *flags, "--pairs", "6", "--seed", seed])
    for flags, x, y in PAIRS:
        files = ["--x", "{" + x + "}", "--y", "{" + y + "}"]
        for method in ("closed", "rk4"):
            cmds.append(["flow", *flags, *files, "--t-end", "1.5", "--steps", "4",
                         "--method", method])
        if flags[1] in VECTOR_CARRIERS:
            cmds.append(["bracket", *flags, *files])
    return cmds


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b")


def run(argv: list) -> dict:
    """One command's exit code, parsed stdout (CSV for a flow, else JSON lines)
    and stderr with its numbers masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "flow" and text:
        header, *rows = csv.reader(io.StringIO(text))
        stdout = {"header": header, "rows": [[float(v) for v in row] for row in rows]}
    else:
        stdout = [json.loads(line) for line in text.splitlines()]
    return {"code": code, "stdout": stdout, "stderr": _NUMBER.sub("#", err.getvalue())}


def run_all(tmp: pathlib.Path) -> list:
    files = {"cyclic3": CYCLIC3, "projection2": PROJECTION2, "swap2": SWAP2, **INPUTS}
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return [{"argv": argv, **run([a.format(**paths) for a in argv])} for argv in commands()]


def _match(got, want, bound, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where  # keys in order
        for k in want:
            _match(got[k], want[k], BOUNDS.get(k, bound), f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _match(g, w, bound, f"{where}[{i}]")
    elif bound is not None and type(want) is float:
        assert type(got) is float, where
        assert math.isclose(got, want, rel_tol=bound[0], abs_tol=bound[1]), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_results_match_the_freeze(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    got = run_all(tmp_path)
    assert [g["argv"] for g in got] == [e["argv"] for e in expected]
    for g, e in zip(got, expected):
        _match(g, e, None, " ".join(e["argv"]))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        EXPECTED.write_text(json.dumps(run_all(pathlib.Path(tmp)), indent=1) + "\n")
