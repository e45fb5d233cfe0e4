"""Seeded, output-checked benchmark of quandlekit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload noether-grid --seed 1 --seconds 20 --trace 0

One client in one thread runs a workload's jobs closed loop, one after the
other, with BLAS pinned to one thread.  The jobs of one pass reach a
verdict; passes repeat the same inputs until ``--seconds`` have gone by
(at least twice; once two passes are complete, the run stops at the
deadline even within a pass).  Every job's output is checked by its
oracle.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (verdict checksum, error rate, accuracy margin, tail percentile
and sample count, environment).

A job's latency is the fastest of its repeats in the run.  Other work on
a shared host only ever slows a job down, so the fastest repeat is the
measure it moves least: across seeds it spread about half as much as the
median over passes.  A slowdown that lasts a whole run still shows.
``job_p50_ms`` and ``job_tail_ms`` are percentiles over the run's job
executions (every job once per complete pass, each at its job's latency);
the tail is the highest percentile with at least ten executions beyond it.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced passes with passes traced from outside the
library (see spans.py) and reports the per-layer metrics; the spans are
written to ``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported, here and in children.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

# Set-up is repeated and its median reported; each repeat imports the
# package in a fresh interpreter and builds the workload's inputs.
SETUP_REPEATS = 11
SPAWN_REPEATS = 5
MIN_PASSES = 2
# Job executions that must lie beyond the tail percentile.
TAIL_JOBS = 10
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import quandlekit; "
    "print(time.perf_counter() - t)"
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_package() -> None:
    """Import quandlekit from this checkout's ``src``, and nowhere else."""
    if not (SRC / "quandlekit" / "__init__.py").is_file():
        raise SetupError(f"no quandlekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quandlekit

    if Path(quandlekit.__file__).resolve().parent != (SRC / "quandlekit").resolve():
        raise SetupError(f"imported quandlekit from {quandlekit.__file__}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_PIN,
    }


class Pass:
    """Outcome of running a workload's job list once."""

    def __init__(self, jobs, tracer=None, deadline=None):
        self.latencies = []
        self.failures = []
        self.margins = []
        verdicts = []
        for i, job in enumerate(jobs):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.current_job = i
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = job.call()
                error = None
            except Exception as exc:  # a failing job is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    verdict, margins = job.check(out)
                    self.margins += margins
                except Exception as exc:  # malformed output misses the oracle too
                    error = f"oracle miss: {exc}"
            if error is not None:
                self.failures.append(f"{job.name}: {error}")
                verdict = "failed"
            verdicts.append([job.name, verdict])
        self.complete = len(verdicts) == len(jobs)
        blob = json.dumps(verdicts, sort_keys=True, separators=(",", ":")).encode()
        self.checksum = hashlib.sha256(blob).hexdigest() if self.complete else None


def best_latencies(passes) -> list[float]:
    """Each job's fastest repeat over the given passes, a cut-short last one too."""
    best = list(passes[0].latencies)
    for p in passes[1:]:
        best[:len(p.latencies)] = map(min, best, p.latencies)
    return best


def tail_index(executions: int) -> int:
    """Sorted position of the highest percentile with TAIL_JOBS beyond it."""
    return max(executions - TAIL_JOBS - 1, 0)


def spawn_seconds(code: str, env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return time.perf_counter() - t0, proc.stdout


def measure_setup(build, env) -> tuple[float, list]:
    """Median over repeats of a fresh-interpreter import plus one build."""
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = float(spawn_seconds(IMPORT_PROBE, env)[1])
        t0 = time.perf_counter()
        jobs = build()
        times.append(import_s + time.perf_counter() - t0)
    return statistics.median(times), jobs


def run(workload: str, seed: int, seconds: float, trace: bool,
        min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    """Run one workload; returns (all metrics, details)."""
    from quandlekit import cli
    from spans import Tracer
    from workloads import WORKLOADS, inprocess_runner, subprocess_runner

    build = WORKLOADS[workload]
    workdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    env = child_env()
    tracer = Tracer() if trace else None
    try:
        if trace:
            # A CLI process cannot be traced from outside, so a traced
            # cli-session calls cli.main in process, traced and untraced.
            jobs = build(seed, workdir, runner=inprocess_runner(cli.main))
            stdout_bytes = []
            traced_main = inprocess_runner(tracer.wrap("cli.main", cli.main))

            def traced_runner(argv):
                code, out = traced_main(argv)
                stdout_bytes.append(len(out.encode("utf-8")))
                return code, out

            with tracer.patched():
                traced_jobs = build(seed, workdir, wrap=tracer.wrap_realization,
                                    runner=traced_runner)
        else:
            runner = subprocess_runner(env, workdir)
            setup_s, jobs = measure_setup(lambda: build(seed, workdir, runner=runner), env)
        deadline = time.perf_counter() + seconds
        untraced, traced = [], []
        while True:
            # Traced passes must be whole: their calls are compared.
            cut = None if trace or len(untraced) < min_passes else deadline
            untraced.append(Pass(jobs, deadline=cut))
            if trace:
                tracer.current_pass = len(traced)
                with tracer.patched():
                    traced.append(Pass(traced_jobs, tracer))
            if time.perf_counter() >= deadline and len(untraced) >= min_passes:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    if len({p.checksum for p in passes if p.complete}) > 1:
        failures.append("verdict checksum differs between passes")
    best = best_latencies(untraced)
    whole = [p for p in untraced if p.complete]
    # Every job once per complete pass, each at its job's latency.
    executions = sorted(t for t in best for _ in whole)
    tail_at = tail_index(len(executions))
    margins = untraced[0].margins
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(whole),
        "cut_pass_jobs": len(untraced[-1].latencies) if not untraced[-1].complete else 0,
        "jobs_per_pass": len(jobs),
        "executions": len(executions),
        "tail_percentile": 100.0 * tail_at / max(len(executions) - 1, 1),
        "tail_job": max((t, job.name) for job, t in zip(jobs, best)
                        if t <= executions[tail_at])[1],
        "median_pass_s": statistics.median(sum(p.latencies) for p in whole),
        "job_best_ms": [[job.name, 1e3 * t] for job, t in zip(jobs, best)],
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "checksum": untraced[0].checksum,
        "accuracy_margin_dec": min(margins) if margins else None,
        "failures": failures[:10],
        "environment": environment(),
    }
    details["error_rate"] = details["failed"] / details["attempted"]

    if trace:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload}-seed{seed}.npz"
        tracer.save(spans_file)
        details["spans_file"] = str(spans_file.relative_to(ROOT))
        details["spans"] = len(tracer.name)
        metrics = layer_metrics(tracer, traced, untraced, traced_jobs, stdout_bytes,
                                workload, env)
        if not metrics.pop("calls_consistent"):
            failures.append("span call counts differ between traced passes")
            details["failures"] = failures[:10]
    else:
        usage = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(best),
            "job_p50_ms": 1e3 * statistics.median(executions),
            "job_tail_ms": 1e3 * executions[tail_at],
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        }
    details["correct"] = not failures
    return metrics, details


def layer_metrics(tracer, traced, untraced, traced_jobs, stdout_bytes, workload, env) -> dict:
    """Per-layer calls (first traced pass) and self time (least over traced passes)."""
    from spans import aggregate, grandparent_calls

    names = tracer.names
    spans = tracer.arrays()
    per_pass = aggregate(spans, names)
    empty = {"calls": {}, "self_s": {}}
    rows = [per_pass.get(p, empty) for p in range(len(traced))]
    out = {"calls_consistent": all(r["calls"] == rows[0]["calls"] for r in rows)}
    for name in names:
        out[f"{name}.calls"] = rows[0]["calls"].get(name, 0)
        out[f"{name}.self_s"] = min(r["self_s"].get(name, 0.0) for r in rows)
    relabels = grandparent_calls(spans, names, "finite.relabel_table",
                                 "finite.enumerate_tables").get(0, 0)
    classes = sum(j.classes for j in traced_jobs)
    out["finite.relabelings_per_class"] = relabels / classes if classes else 0.0
    out["trace.overhead_ratio"] = sum(best_latencies(traced)) / sum(best_latencies(untraced))
    out["cli.stdout_bytes"] = sum(stdout_bytes) // len(traced)
    out["cli.python_start_s"] = out["cli.import_s"] = 0.0
    if workload == "cli-session":
        start = statistics.median(spawn_seconds("pass", env)[0] for _ in range(SPAWN_REPEATS))
        imported = statistics.median(
            spawn_seconds("import quandlekit", env)[0] for _ in range(SPAWN_REPEATS)
        )
        out["cli.python_start_s"] = start
        out["cli.import_s"] = imported - start
    return out


def select(spec: dict, key: str, metrics: dict) -> dict:
    """The metrics BENCHMARK.json lists under ``key``, with their units."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[key]}


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    metrics, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps({
        "correct": details["correct"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": select(spec, "per_layer" if args.trace else "end_to_end", metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
