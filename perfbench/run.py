"""semiflow benchmark: one closed-loop client over seeded, oracle-checked ops.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload graph-orbit --seed 1 --seconds 25 --trace 0

One client in one process sends the next op when the previous one has
returned.  Each op is one call into semiflow's public API on inputs made
from ``--seed`` and is checked against an oracle (see ``oracles.py``).  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  Earlier
lines give the machine data and a human-readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# A run makes at least MIN_PASSES passes, so that each op's fastest call is
# a best of several.
MIN_PASSES = 5
# Set-up interpreters per run, spread over the run so that one slow spell
# of the host does not reach them all.
SETUP_REPEATS = 7


def import_program():
    """Put the checkout's sources first on the path; fail without them."""
    if not (SRC / "semiflow" / "__init__.py").is_file():
        sys.exit(f"error: no semiflow sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import semiflow  # noqa: F401
    import workloads
    return workloads


def setup_child(workload: str, seed: int) -> None:
    start = time.perf_counter()
    workloads = import_program()
    imported = time.perf_counter()
    workloads.WORKLOADS[workload](seed)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": done - imported}))


class Setup:
    """Fresh interpreters that import semiflow and generate the inputs.

    Host contention only ever slows an interpreter, so each figure is the
    fastest of SETUP_REPEATS (best of k), as for ``ops_per_s``."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                     "--workload", workload, "--seed", str(seed)]
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.inputs: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120, check=True)
        self.walls.append(time.perf_counter() - start)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.imports.append(doc["import_s"])
        self.inputs.append(doc["inputs_s"])

    def metrics(self) -> dict:
        while len(self.walls) < SETUP_REPEATS:
            self.sample()
        return {"setup_s": min(self.walls), "setup.import_s": min(self.imports),
                "setup.inputs_s": min(self.inputs)}


class Tally:
    """Outcome of a sequence of ops: latencies, failures, oracle margins."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.pass_busy: list[float] = []  # time inside API calls, per pass
        self.failed = 0
        self.mismatched = 0
        self.worst_ratio = 0.0
        self.failures: dict[str, int] = {}
        self.passes = 0

    def fail(self, kind: str, exc: BaseException) -> None:
        self.failed += 1
        key = f"{kind}: {type(exc).__name__}"
        self.failures[key] = self.failures.get(key, 0) + 1


def run_pass(ops, tally: Tally, tracer=None) -> None:
    first = len(tally.latencies)
    for k, op in enumerate(ops):
        args = op.make()
        tally.kinds.append(op.kind)
        if tracer is not None:
            tracer.begin_op(k)
        start = time.perf_counter()
        try:
            out = op.run(*args)
        except Exception as exc:  # the op failed; the run goes on
            tally.fail(op.kind, exc)
            continue
        finally:
            tally.latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end_op()
        try:
            for err, tol in op.check(out):
                tally.worst_ratio = max(tally.worst_ratio, err / tol)
        except Exception as exc:  # a rejected or malformed output is a wrong answer
            tally.fail(op.kind, exc)
            tally.mismatched += 1
            print(f"oracle mismatch in {op.kind}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    tally.passes += 1
    tally.pass_busy.append(sum(tally.latencies[first:]))


def run_for(ops, seconds: float, tracer=None, setup: Setup | None = None) -> Tally:
    """Whole passes until they have taken ``seconds`` of wall time and at
    least MIN_PASSES were made.  With ``setup``, its interpreters are started
    between passes, evenly over the run, and their time is not counted."""
    tally = Tally()
    passing = 0.0
    while tally.passes < MIN_PASSES or passing < seconds:
        if setup is not None and len(setup.walls) * seconds <= passing * SETUP_REPEATS:
            setup.sample()
        start = time.perf_counter()
        run_pass(ops, tally, tracer)
        passing += time.perf_counter() - start
    return tally


def fastest_per_op(tally: Tally, n_ops: int) -> list[float]:
    """Each op's fastest call over the passes, in ms (best of k per op)."""
    return [1e3 * min(tally.latencies[k::n_ops]) for k in range(n_ops)]


def machine_info() -> dict:
    import numpy
    import scipy
    try:
        import numba  # noqa: F401
        numba_present = True
    except ImportError:
        numba_present = False
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except OSError:
        commit = None
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba_present": numba_present,
            "thread_env": threads, "commit": commit, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("interval-checks", "graph-orbit", "graph-verdict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    workloads = import_program()
    setup = Setup(args.workload, args.seed)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    print("machine " + json.dumps(machine_info()))

    # every RuntimeWarning is counted instead of printed; the traced run
    # attributes them to layers
    warnings.simplefilter("always", RuntimeWarning)
    warning_count = [0]

    def count_warning(*args, **kwargs):
        warning_count[0] += 1

    warnings.showwarning = count_warning

    warmup = Tally()
    run_pass(ops, warmup)  # fills the oracle caches, not timed
    if args.trace:
        from tracing import Tracer
        plain = run_for(ops, args.seconds / 2, setup=setup)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_for(ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(traced.passes)
        timed = setup.metrics()
        metrics["setup.import_s"] = timed["setup.import_s"]
        metrics["setup.inputs_s"] = timed["setup.inputs_s"]
        metrics["trace.overhead_ratio"] = (
            min(traced.pass_busy) / min(plain.pass_busy))
        measured = [plain, traced]
    else:
        tally = run_for(ops, args.seconds, setup=setup)
        n = len(tally.latencies)
        # host contention only ever slows a call, so the fastest pass and
        # each op's fastest call are the steadiest measures of the program's
        # own speed (best of k)
        fastest_ms = fastest_per_op(tally, len(ops))
        metrics = {
            "setup_s": setup.metrics()["setup_s"],
            "ops_per_s": len(ops) / min(tally.pass_busy),
            "op_p50_ms": statistics.median(fastest_ms),
            "op_tail_ms": statistics.quantiles(fastest_ms, n=10, method="inclusive")[8],
            "pass_ratio": 1.0 - tally.failed / n,
            "err_to_tol_max": tally.worst_ratio,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        measured = [tally]
        print(f"workload {args.workload} seed {args.seed}: {n} ops in {tally.passes} passes "
              f"of {len(ops)}; RuntimeWarnings {warning_count[0]}")
        # the result line bounds fail_ratio through pass_ratio, which is never 0
        print(f"{'fail_ratio':<40} {tally.failed / n:>16.6g} ratio")
        print(f"op_p50_ms, op_tail_ms: p50, p90 of the fastest calls of the {len(ops)} ops "
              f"of a pass, each the best of {tally.passes}")

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"error: metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    failures, by_kind = {}, {}
    for t in measured:
        for key, count in t.failures.items():
            failures[key] = failures.get(key, 0) + count
        for kind, latency in zip(t.kinds, t.latencies):
            by_kind.setdefault(kind, []).append(1e3 * latency)
    for kind, values in by_kind.items():
        print(f"op {kind:<36} n={len(values):<5} p50 {statistics.median(values):10.3f} ms")
    for key, count in sorted(failures.items()):
        print(f"failed op  {key} x{count}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": all(t.mismatched == 0 for t in [warmup] + measured),
        "attempted": sum(len(t.latencies) for t in measured),
        "failed": sum(t.failed for t in measured),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
