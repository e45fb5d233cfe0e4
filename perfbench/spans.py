"""Span tracer that instruments quandlekit from outside the library.

The tracer swaps each traced public function for a wrapper in every
quandlekit module namespace that holds it, so calls between modules
(``realizations`` calling ``linalg.conjugate_by_exp``, ``verify`` calling
``noether_check``) are seen as well as calls made by the benchmark.  A
realization's ``op``, ``metric`` and ``sample`` are per-instance callables,
so they are wrapped on the instance with :meth:`Tracer.wrap_realization`.

Spans are kept in flat in-memory arrays (name, start, end, parent, job,
pass) and written out once, when the run ends.  Self time is a span's
duration minus the durations of its direct children; calls are nested on
one thread, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Public functions traced per layer, named as they appear in the metrics.
LINALG = ("as_matrix", "commutator", "expm", "conjugate_by_exp", "eigh", "spectrum")
VERIFY = (
    "verify_axioms",
    "noether_suite",
    "noether_check",
    "sample_flow",
    "integrate_flow",
    "numeric_bracket",
    "write_trajectory_csv",
)
FINITE = (
    "classify",
    "enumerate_tables",
    "canonical_form",
    "relabel_table",
    "inverse_operation",
    "prenoether_holds",
    "conjugation_quandle",
    "union_quandle",
)
REALIZATION_HOOKS = ("op", "metric", "sample")


class Tracer:
    """Records nested spans while ``active``; inert wrappers otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.job = array("i")
        self.pass_ = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.current_job = -1
        self.current_pass = -1
        self._patches: list[tuple[object, str, object]] = []
        for hook in REALIZATION_HOOKS:
            self._id(f"realizations.{hook}")

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call while active records a span."""
        nid = self._id(name)
        names, parent, job, pass_ = self.name, self.parent, self.job, self.pass_
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            job.append(self.current_job)
            pass_.append(self.current_pass)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_realization(self, r):
        """A copy of realization ``r`` whose op, metric and sample are traced."""
        hooks = {h: self.wrap(f"realizations.{h}", getattr(r, h)) for h in REALIZATION_HOOKS}
        return dataclasses.replace(r, **hooks)

    # -- patching ------------------------------------------------------------

    @contextmanager
    def patched(self):
        """Swap traced functions into every quandlekit module that holds them."""
        import quandlekit
        from quandlekit import cli, finite, linalg, realizations, verify

        modules = [quandlekit, linalg, realizations, verify, finite, cli]
        targets = {}
        for layer, mod, names in (
            ("linalg", linalg, LINALG),
            ("verify", verify, VERIFY),
            ("finite", finite, FINITE),
        ):
            for n in names:
                fn = getattr(mod, n)
                targets[id(fn)] = (fn, self.wrap(f"{layer}.{n}", fn))
        make = realizations.make_realization
        span_make = self.wrap("realizations.make_realization", make)
        targets[id(make)] = (make, lambda *a, **k: self.wrap_realization(span_make(*a, **k)))
        try:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    hit = targets.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, hit[1])
            from_rows = vars(finite.MagmaTable)["from_rows"]
            self._patches.append((finite.MagmaTable, "from_rows", from_rows))
            finite.MagmaTable.from_rows = classmethod(
                self.wrap("finite.MagmaTable.from_rows", from_rows.__func__)
            )
            yield self
        finally:
            while self._patches:
                mod, attr, val = self._patches.pop()
                setattr(mod, attr, val)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "pass": np.frombuffer(self.pass_, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table, as one compressed npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def aggregate(spans: dict[str, np.ndarray], names: list[str]) -> dict[int, dict]:
    """Per pass, the calls and summed self time of every span name.

    Returns ``{pass: {"calls": {name: n}, "self_s": {name: seconds}}}``.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    out = {}
    k = len(names)
    for p in np.unique(spans["pass"]):
        mask = spans["pass"] == p
        ids = spans["name"][mask]
        calls = np.bincount(ids, minlength=k)
        selfs = np.bincount(ids, weights=self_time[mask], minlength=k)
        out[int(p)] = {
            "calls": {names[i]: int(calls[i]) for i in range(k)},
            "self_s": {names[i]: float(selfs[i]) for i in range(k)},
        }
    return out


def grandparent_calls(spans, names, child: str, grandparent: str) -> dict[int, int]:
    """Per pass, how many ``child`` spans sit two levels below ``grandparent``."""
    if child not in names or grandparent not in names:
        return {}
    cid, gid = names.index(child), names.index(grandparent)
    parent = spans["parent"]
    sel = np.flatnonzero(spans["name"] == cid)
    par = parent[sel]
    ok = par >= 0
    gp = np.full(sel.size, -1)
    gp[ok] = parent[par[ok]]
    hit = np.zeros(sel.size, dtype=bool)
    has_gp = gp >= 0
    hit[has_gp] = spans["name"][gp[has_gp]] == gid
    passes = spans["pass"][sel][hit]
    return {int(p): int(c) for p, c in zip(*np.unique(passes, return_counts=True))}
