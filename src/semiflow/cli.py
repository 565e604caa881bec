"""Command-line interface.

Subcommands map one-to-one onto the library's verification workflows:

* ``check``          generation certificates for a named operator or a network
* ``euler``          resolvent-to-semigroup convergence ladder (CSV)
* ``counterexample`` plateau-ramp witness against windowed contraction
* ``heat``           second-derivative witness against windowed dissipativity
* ``simulate``       network transport evolution (characteristics or upwind)
* ``resolvent``      resolvent evaluation with optional Laplace cross-check

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input or input
the solvers cannot handle (resolvent breakdown, exact flow over budget).  All
floating-point output is serialized with 17 significant digits and every
command is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .generation import lumer_phillips_verdict
from .grid import Grid, GridFunction, check_lambda, write_rows
from . import network
from .network import initial_state, load_network, simulate_flow, total_mass
from .operators import (laplacian_generator, left_shift_generator,
                        right_translation_generator, right_translation_resolvent)
from .samples import plateau_ramp, sample_functions, smooth_bump
from .semigroups import (euler_apply, laplace_resolvent,
                         right_translation_semigroup, shift_semigroup)
from .seminorms import (CompactSeminormFamily, WindowOrientation, eval_pn,
                        seminorm_ladder)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{_fmt(str(k))}: {json_text(v, indent + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, np.floating):
        return _fmt(float(obj))
    return _fmt(obj)


def _emit_json(doc: dict, out_dir, name: str) -> None:
    text = json_text(doc) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


_OPERATOR_CHOICES = ("left_shift", "right_translation", "laplacian")

# Count options are bounded before any work.  Measured on 2 cores, a resolve
# costs 20-60 ns per grid node plus 40-70 us (about 2**10 nodes' worth), and
# a seminorm ladder (all windows of a state) 1-2 ns per node plus 18-27 us,
# so the per-rung `--n-max` passes of `euler` over-count.  A `check` pair of
# a sample and a lambda, range probes included, took 0.5-1.3 resolve passes
# at 2**18 nodes, so SAMPLE_PASSES per pair over-counts too.  Peak RSS takes
# 15 B per node of each sample or lambda: ~1.1 GB (extrapolated) for the
# worst admitted run, one sample at 2**26 / nodes lambdas or the reverse.
# `resolvent --horizon` sums its orbit as one convolution, under 1 s near the
# bound.  WORK_LIMIT keeps a run under about a minute, GRID_LIMIT a state at 8 MB.
GRID_LIMIT = 2 ** 20
PASS_NODES_MIN = 2 ** 10
SAMPLE_PASSES = 2 ** 4
WORK_LIMIT = 2 ** 30


def _bound_work(nodes: int, passes: int, what: str) -> None:
    """Reject ``passes`` sweeps of ``nodes`` node values (counted by
    ``what``) that would pass WORK_LIMIT node visits."""
    work = passes * max(nodes, PASS_NODES_MIN)
    if work > WORK_LIMIT:
        raise ValueError(f"{what} would take {work} grid-node visits, more than the "
                         f"limit of {WORK_LIMIT}; use a coarser grid or smaller counts")


def _bound_grid(n_cells: int, passes: int = 1, what: str = "") -> None:
    """Reject a grid of more than GRID_LIMIT cells, and ``passes`` sweeps of
    it that ``_bound_work`` rejects."""
    if n_cells > GRID_LIMIT:
        raise ValueError(f"--grid {n_cells} exceeds the limit of {GRID_LIMIT} cells")
    _bound_work(n_cells + 1, passes, what)


def _translation_setup(name: str, n_cells: int, length: float):
    """Grid, generator, semigroup and window orientation of ``left_shift``
    on [0, length] or ``right_translation`` on [-length, 0]."""
    if name == "left_shift":
        return (Grid(0.0, length, n_cells), left_shift_generator(), shift_semigroup(),
                WindowOrientation.RIGHT)
    return (Grid(-length, 0.0, n_cells), right_translation_generator(),
            right_translation_semigroup(), WindowOrientation.LEFT)


def _operator_setup(name: str, n_cells: int, seed: int, n_samples: int):
    """Generator, seminorm family, check samples and range probes for one of
    the named model operators."""
    if name == "laplacian":
        grid = Grid(-2.0, 2.0, n_cells)
        family = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
        samples = sample_functions(grid, n_samples, seed)
        samples = samples + [("parabola", GridFunction(grid, grid.nodes ** 2))]
        return laplacian_generator(), family, samples, []
    left = name == "left_shift"
    grid, gen, _, orientation = _translation_setup(name, n_cells, 20.0 if left else 10.0)
    family = CompactSeminormFamily(orientation, 10 if left else 5)
    samples = sample_functions(grid, n_samples, seed, vanish_left=left)
    if not left:
        # the plateau ramp's resolvent is the witness input: every window
        # seminorm of the ramp vanishes while its resolvent is positive there
        ramp = plateau_ramp(grid, 2)
        samples = samples + [("ramp_resolvent", right_translation_resolvent(1.0, ramp))]
    probes = sample_functions(grid, max(2, n_samples // 2), seed + 1)
    return gen, family, samples, probes


def cmd_check(args) -> int:
    lambdas = args.lambdas or [0.1, 1.0, 10.0]
    if args.network is not None:
        # looked up on the module at each call, so that a wrapper installed
        # there (as the benchmark's tracer does) sees the CLI's calls too
        report = network.network_generation_verdict(
            _verdict_network(args.network, len(lambdas)), lambdas)
        label = "network"
    else:
        n_cells = args.grid
        if n_cells is None:
            n_cells = 4000 if args.operator == "laplacian" else 2000
        # the laplacian adds the parabola, the right translation the ramp
        n_samples = max(args.samples, 0) + (args.operator != "left_shift")
        _bound_grid(n_cells, n_samples * len(lambdas) * SAMPLE_PASSES,
                    f"{n_samples} samples and {len(lambdas)} --lambda values")
        gen, family, samples, probes = _operator_setup(
            args.operator, n_cells, args.seed, args.samples)
        report = lumer_phillips_verdict(gen, family, samples, lambdas, probes)
        label = args.operator
    _emit_json(report.to_dict(), args.out, f"check_{label}.json")
    return 0 if report.passed else 1


def _network_document(path: str):
    """The parsed JSON value of a ``--network`` file, for ``load_network``."""
    with open(path) as fh:
        return json.load(fh)


def _verdict_network(path: str, n_lambdas: int):
    """The network of a ``--network`` file, once ``_bound_work`` admits its
    verdict: ``network.VERDICT_SAMPLES`` samples at each of ``n_lambdas``
    lambdas over its E (n + 1) node values and one E x E coupling solve."""
    net = load_network(_network_document(path))
    # each sample's solve counts as E^3 / 2^12 node values: on 2 cores a node
    # value of a sample took 84-130 ns at each lambda, and a solve 27 ms at
    # E = 1024, the cost of about 2^18 node values
    _bound_work(net.n_edges * (net.grid.n_cells + 1) + (net.n_edges ** 3 >> 12),
                network.VERDICT_SAMPLES * n_lambdas * SAMPLE_PASSES,
                f"{network.VERDICT_SAMPLES} samples and {n_lambdas} --lambda values")
    return net


def cmd_euler(args) -> int:
    ladder = [int(v) for v in args.m_ladder.split(",") if v.strip()]
    if not ladder or any(m < 1 for m in ladder):
        raise ValueError("the m ladder needs positive integers")
    _bound_grid(args.grid, sum(ladder) + len(ladder) * args.n_max,
                "the --m-ladder resolves and --n-max seminorms")
    x_max = args.x_max
    grid, gen, sg, orientation = _translation_setup(args.operator, args.grid, x_max)
    center = (min(2.5, 0.45 * x_max) if args.operator == "left_shift"
              else -x_max / 2.0)
    f = smooth_bump(grid, center, min(1.0, 0.2 * x_max))
    family = CompactSeminormFamily(orientation, args.n_max)
    exact = sg.apply(args.t, f)
    rows = []
    summary_errors = []
    for m in ladder:
        approx = euler_apply(gen, args.t, m, f)
        errors = seminorm_ladder(family, grid, (approx - exact).values).tolist()
        rows.extend((m, n, err) for n, err in enumerate(errors, 1))
        summary_errors.append(errors[-1])
    if args.out is not None:
        write_rows(Path(args.out) / "euler_convergence.csv",
                   ["m", "seminorm_index", "error"], rows)
    _emit_json({
        "operator": args.operator, "t": float(args.t), "m_ladder": ladder,
        "seminorm_index": args.n_max,
        "errors": summary_errors,
        "sup_norm_of_f": f.norm(),
    }, args.out, "euler_summary.json")
    return 0


def cmd_counterexample(args) -> int:
    if args.n < 1:
        raise ValueError("window index n must be >= 1")
    lam = check_lambda(args.lam)
    x_min = max(10.0, args.n + 2.0)
    _bound_grid(args.grid)
    grid = Grid(-x_min, 0.0, args.grid)
    f = plateau_ramp(grid, args.n)
    family = CompactSeminormFamily(WindowOrientation.LEFT, args.n)
    p_n_f = eval_pn(family, args.n, f)
    rf = right_translation_resolvent(lam, f)
    p_1_rf = eval_pn(family, 1, rf)
    lower = math.exp(-lam * (args.n + 1)) / lam
    passed = (p_n_f <= 1e-12) and (p_1_rf >= lower - 1e-6) and (p_1_rf > 0)
    _emit_json({
        "lambda": lam, "n": int(args.n),
        "p_n_of_f": p_n_f, "p_1_of_Rf": p_1_rf, "lower_bound": lower,
        "passed": passed,
    }, args.out, "counterexample.json")
    return 0 if passed else 1


def cmd_heat(args) -> int:
    lam = check_lambda(args.lam)
    if args.n < 1:
        raise ValueError("window index n must be >= 1")
    n = args.n
    _bound_grid(args.grid)
    grid = Grid(-float(n), float(n), args.grid)
    family = CompactSeminormFamily(WindowOrientation.SYMMETRIC, n)
    f = GridFunction(grid, grid.nodes ** 2)
    shifted = f * lam - laplacian_generator().apply(f)
    p_shifted = eval_pn(family, n, shifted)
    p_scaled = eval_pn(family, n, f) / lam
    expected_shifted = max(2.0, abs(lam * n * n - 2.0))
    expected_scaled = n * n / lam
    passed = (abs(p_shifted - expected_shifted) <= 1e-6
              and abs(p_scaled - expected_scaled) <= 1e-12
              and p_shifted < p_scaled)
    _emit_json({
        "lambda": lam, "n": int(n),
        "p2_shifted": p_shifted, "inv_lambda_p2_f": p_scaled,
        "expected_shifted": expected_shifted, "expected_scaled": expected_scaled,
        "passed": passed,
    }, args.out, "heat.json")
    return 0 if passed else 1


def cmd_simulate(args) -> int:
    doc = _network_document(args.network)
    net = load_network(doc)
    state = initial_state(net, doc.get("initial"))
    times, states = simulate_flow(net, state, args.t, args.solver,
                                  cfl=args.cfl, n_outputs=args.outputs)
    masses = [total_mass(st) for st in states]
    sups = [st.norm() for st in states]
    m0 = masses[0]
    drift = max(abs(m - m0) for m in masses) / max(abs(m0), 1e-300)
    if args.out is not None:
        rows = ((float(t), j, float(x), float(u)) for t, st in zip(times, states)
                for j, row in enumerate(st.values) for x, u in zip(net.grid.nodes, row))
        write_rows(Path(args.out) / "simulation.csv",
                   ["t", "edge", "x", "u"], rows)
    _emit_json({
        "solver": args.solver, "t_max": float(args.t), "cfl": float(args.cfl),
        "n_edges": net.n_edges,
        "times": [float(t) for t in times],
        "mass": masses, "supnorm_l1": sups,
        "mass_drift_rel": drift,
    }, args.out, "simulate_summary.json")
    return 0


def cmd_resolvent(args) -> int:
    lam = check_lambda(args.lam)
    _bound_grid(args.grid, 1 if args.horizon is None else args.steps + 2,
                f"--steps {args.steps}")
    grid, gen, sg, _ = _translation_setup(
        args.operator, args.grid, 20.0 if args.operator == "left_shift" else 10.0)
    if args.input == "ones":
        g = GridFunction(grid, np.ones(grid.n_cells + 1))
    elif args.input == "bump":
        mid = 0.5 * (grid.a + grid.b)
        g = smooth_bump(grid, mid, 0.25 * (grid.b - grid.a))
    else:  # expdecay
        g = GridFunction(grid, np.exp(-(grid.nodes - grid.a)))
    f = gen.resolve(lam, g)
    doc = {
        "operator": args.operator, "lambda": lam, "input": args.input,
        "sup_of_result": f.norm(),
    }
    if args.horizon is not None:
        approx, tail = laplace_resolvent(sg, lam, g, args.horizon, args.steps)
        doc["laplace_horizon"] = float(args.horizon)
        doc["laplace_steps"] = int(args.steps)
        doc["laplace_tail_bound"] = tail
        doc["laplace_crosscheck_diff"] = (approx - f).norm()
    if args.out is not None:
        write_rows(Path(args.out) / "resolvent.csv", ["x", "value"],
                   zip(f.grid.nodes, f.values))
    _emit_json(doc, args.out, "resolvent_summary.json")
    return 0


def _finite_float(text: str) -> float:
    """argparse type for float options: rejects inf and nan (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one (``parse_args`` does not change it)."""
    parser = argparse.ArgumentParser(
        prog="semiflow",
        description="Desk-scale semigroup generation checks and graph transport flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run generation certificates")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--operator", choices=_OPERATOR_CHOICES)
    target.add_argument("--network", metavar="PATH")
    p.add_argument("--lambda", dest="lambdas", type=_finite_float, action="append",
                   metavar="LAM", help="resolvent parameter (repeatable)")
    p.add_argument("--grid", type=int, help="number of grid cells")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("euler", help="resolvent-to-semigroup convergence ladder")
    p.add_argument("--operator", choices=("left_shift", "right_translation"),
                   default="left_shift")
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--m-ladder", default="4,16,64,256,1024")
    p.add_argument("--grid", type=int, default=4000)
    p.add_argument("--x-max", type=_finite_float, default=6.0)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("counterexample",
                       help="windowed contraction failure for the free translation")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grid", type=int, default=4000)
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("heat",
                       help="windowed dissipativity failure for the second derivative")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grid", type=int, default=4000)
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(fn=cmd_heat)

    p = sub.add_parser("simulate", help="evolve a network transport flow")
    p.add_argument("--network", required=True, metavar="PATH")
    p.add_argument("--solver", choices=("characteristics", "upwind"),
                   default="characteristics")
    p.add_argument("--t", type=_finite_float, default=4.0)
    p.add_argument("--cfl", type=_finite_float, default=0.9)
    p.add_argument("--outputs", type=int, default=11)
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("resolvent", help="evaluate a resolvent, optionally "
                       "cross-checked against the Laplace transform of the orbit")
    p.add_argument("--operator", choices=("left_shift", "right_translation"),
                   default="left_shift")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--input", choices=("ones", "bump", "expdecay"), default="bump")
    p.add_argument("--horizon", type=_finite_float)
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(fn=cmd_resolvent)
    return parser


def _bound_lambda_tokens(argv: list) -> None:
    """Refuse a ``check`` argv whose ``--lambda`` options alone pass the
    work bound, before argparse spends time quadratic in their count on
    them: ``cmd_check``'s bound at its node floor and with the fewest
    samples a run holds, so nothing it admits is refused here."""
    if argv[:1] != ["check"]:
        return
    options = [a.split("=", 1)[0] for a in argv]
    count = options.count("--lambda")
    samples = network.VERDICT_SAMPLES if "--network" in options else 1
    _bound_work(0, samples * count * SAMPLE_PASSES,
                f"{samples} samples and {count} --lambda values")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _bound_lambda_tokens(argv)
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, RuntimeError, MemoryError) as exc:
        # a MemoryError raised by the interpreter itself carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
