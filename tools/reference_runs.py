"""Run the reference CLI invocations on a checkout and keep what each leaves.

    python3 tools/reference_runs.py CHECKOUT OUTDIR

OUTDIR must not exist yet.  Each invocation runs in CHECKOUT with its
``src`` first on ``PYTHONPATH`` and ``--out OUTDIR/NAME/out``, and
OUTDIR/NAME then holds ``stdout``, ``stderr``, ``exit_code`` and the
``--out`` files.  In ``stderr`` the checkout's path reads ``<checkout>``,
OUTDIR's reads ``<outdir>`` and the line number of a warning's location
reads ``<line>`` (``<checkout>/src/semiflow/cli.py:<line>:``, the file name
kept), so that ``diff -r`` of the output directories of two checkouts shows
every byte in which their runs differ, but not a warning whose source line
moved within its module.

The invocations are the eight commands of README's command-line section
and twenty-three more: ``euler`` on the right translation with the default
ladder (up to m = 1024; README's ``euler`` runs the left shift up to
m = 256), ``check --operator laplacian --samples 0`` (the parabola its
only sample: admitted, and exits 1), ``check --operator laplacian --grid
17`` (a grid too coarse for the parabola to fail: exits 2), ``resolvent``
on the right translation with the Laplace cross-check (README's runs the
left shift), two more ``simulate`` runs (the upwind solver, and a longer
orbit whose ``--out`` CSV is large), ``simulate --t 1e9`` (rejected
before any work), ``check --network`` on the two-cycle with absorption
3000 (a resolvent breakdown, after a warning), ``counterexample --lambda
50 --n 20`` (a lower bound that underflows: exits 2) and ``check
--network`` with ``--samples 3`` (an option that applies to ``--operator``
only: exits 2), three runs at ``--lambda 1e-310`` whose numbers overflow
(``heat``, ``resolvent`` with the Laplace cross-check and ``counterexample``:
each exits 2), ``resolvent`` of the left shift on ``--input expdecay`` with
the cross-check, ``check --network`` on the two-cycle with the velocities
``["1", true]``, which are not JSON numbers (exits 2), ``heat`` with 2100
``--n 2`` options (more arguments than the CLI parses: exits 2),
``resolvent --steps 0`` (``--steps`` without ``--horizon``: exits 2),
``simulate --cfl -5`` (a CFL target outside (0, 1]: exits 2), ``simulate
--solver upwind --cfl 1e-300`` (a CFL target so small that the march's
cell-step count is ~1e305: exits 2), ``check --operator left_shift
--seed -1`` (a negative sample seed: exits 2) and three more ``check
--network`` runs: a network of 3 vertices and 4 edges at speeds 1, 2, 0.5
and 1.5 whose absorption varies along each edge (per-panel rates), the
two-cycle at ``--lambda 1e-12`` (a boundary-residual breakdown: exits 2)
and a ring of 4 edges and 8192 cells, whose states are each more than
``network.GROUP_VALUES`` node values and so are solved one at a time.
Then eight more: ``--help`` of the CLI and of each of its six
subcommands, and ``simulate`` on a line of 1024 edges k -> k - 1 closed
by a loop at vertex 0, at speeds 1 and sqrt 2 in turn and 4 cells, where
the exact flow traces one time per call and every edge but the loop is
dead.  Then three runs at the default lambdas and seed: ``check
--operator right_translation`` (its range leg, and the report with the
most witnesses), ``check --operator left_shift`` and ``resolvent
--horizon 15 --steps 1`` (a trapezoid of only its two end weights).
Then ``check --network`` on a ring of 4 edges and 4095 cells, whose
states of 16384 node values the verdict solves in groups of 2, 2 and 1
states at each lambda, all in one working set.  Last, four ``simulate``
runs: a graph of 4 vertices and 7 edges, one vertex feeding three edges,
at speed 1 but for one edge at sqrt 2 (no time grid fits them, so the
exact flow traces) and with absorption of both signs that varies along
each edge, under each solver; and the two-cycle with absorption 3000
under each solver, whose gain overflows (exits 2).  Then three more:
``euler --operator left_shift --grid 1000`` (a second FFT size for the
spectral Euler powers), ``check --operator right_translation --samples 6``
(a sample library whose last cycle of four kinds is cut short) and
``simulate --solver upwind --t 3`` on the two-cycle with absorption -300,
a decay under which the factor 1 + dt q at the CFL step would be negative
(the march's exact factor e^{dt q} needs no shorter step): fifty in all.
Every invocation runs with ``COLUMNS=80``, so that the width of
argparse's text does not depend on the terminal.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

TWO_CYCLE = "configs/two_cycle.json"
ABSORBING = "two_cycle_absorption_3000.json"  # written into OUTDIR
DECAYING = "two_cycle_absorption_minus_300.json"  # written into OUTDIR
STRING_VELOCITY = "two_cycle_string_velocity.json"  # written into OUTDIR
MIXED = "mixed_speeds_varying_absorption.json"  # written into OUTDIR
RING = "ring_8192_cells.json"  # written into OUTDIR
RING_GROUPS = "ring_4095_cells.json"  # written into OUTDIR
LINE = "line_1024_edges_mixed_speeds.json"  # written into OUTDIR
FAN_OUT = "fan_out_sqrt2_varying_absorption.json"  # written into OUTDIR

INVOCATIONS = {
    "check_left_shift": ["check", "--operator", "left_shift", "--lambda", "1",
                         "--lambda", "10"],
    "check_laplacian": ["check", "--operator", "laplacian"],
    "check_laplacian_samples_0": ["check", "--operator", "laplacian", "--samples", "0"],
    "check_laplacian_grid_17": ["check", "--operator", "laplacian", "--grid", "17"],
    "check_network": ["check", "--network", TWO_CYCLE],
    "euler": ["euler", "--operator", "left_shift", "--t", "1",
              "--m-ladder", "4,16,64,256"],
    "euler_right_translation": ["euler", "--operator", "right_translation"],
    "counterexample": ["counterexample", "--lambda", "1", "--n", "12"],
    "heat": ["heat", "--lambda", "1", "--n", "2"],
    "simulate": ["simulate", "--network", TWO_CYCLE, "--t", "3",
                 "--solver", "characteristics", "--outputs", "7"],
    "resolvent": ["resolvent", "--operator", "left_shift", "--lambda", "1",
                  "--input", "bump", "--horizon", "15"],
    "resolvent_right_translation": ["resolvent", "--operator", "right_translation",
                                    "--input", "ones", "--horizon", "15"],
    "simulate_upwind": ["simulate", "--network", TWO_CYCLE, "--solver", "upwind",
                        "--t", "3", "--outputs", "7"],
    "simulate_t20": ["simulate", "--network", TWO_CYCLE, "--t", "20", "--outputs", "11"],
    "simulate_t1e9": ["simulate", "--network", TWO_CYCLE, "--t", "1e9"],
    "check_network_absorption_3000": ["check", "--network", ABSORBING],
    "counterexample_underflow": ["counterexample", "--lambda", "50", "--n", "20"],
    "check_network_samples_3": ["check", "--network", TWO_CYCLE, "--samples", "3"],
    "heat_lambda_overflow": ["heat", "--lambda", "1e-310"],
    "resolvent_lambda_overflow": ["resolvent", "--lambda", "1e-310", "--horizon", "15"],
    "counterexample_lambda_overflow": ["counterexample", "--lambda", "1e-310", "--n", "2"],
    "resolvent_expdecay": ["resolvent", "--operator", "left_shift", "--input", "expdecay",
                           "--horizon", "15"],
    "check_network_string_velocity": ["check", "--network", STRING_VELOCITY],
    "heat_argv_over_limit": ["heat", *["--n", "2"] * 2100],
    "resolvent_steps_without_horizon": ["resolvent", "--steps", "0"],
    "simulate_cfl_negative": ["simulate", "--network", TWO_CYCLE, "--cfl", "-5"],
    "simulate_cfl_tiny": ["simulate", "--network", TWO_CYCLE, "--solver", "upwind",
                          "--cfl", "1e-300", "--t", "1", "--outputs", "2"],
    "check_seed_negative": ["check", "--operator", "left_shift", "--seed", "-1"],
    "check_network_mixed_varying": ["check", "--network", MIXED],
    "check_network_lambda_tiny": ["check", "--network", TWO_CYCLE, "--lambda", "1e-12"],
    "check_network_ring_8192": ["check", "--network", RING],
    "help": ["--help"],
    **{f"{command}_help": [command, "--help"] for command in
       ("check", "euler", "counterexample", "heat", "simulate", "resolvent")},
    "simulate_line_1024": ["simulate", "--network", LINE, "--t", "1.1", "--outputs", "3"],
    "check_right_translation": ["check", "--operator", "right_translation"],
    "check_left_shift_defaults": ["check", "--operator", "left_shift"],
    "resolvent_steps_1": ["resolvent", "--horizon", "15", "--steps", "1"],
    "check_network_ring_4095": ["check", "--network", RING_GROUPS],
    **{f"simulate_fan_out_{solver}": ["simulate", "--network", FAN_OUT, "--t", "3",
                                      "--solver", solver, "--outputs", "7"]
       for solver in ("characteristics", "upwind")},
    **{f"simulate_absorption_3000_{solver}": ["simulate", "--network", ABSORBING,
                                              "--t", "3", "--solver", solver]
       for solver in ("characteristics", "upwind")},
    "euler_grid_1000": ["euler", "--operator", "left_shift", "--grid", "1000"],
    "check_right_translation_samples_6": ["check", "--operator", "right_translation",
                                          "--samples", "6"],
    "simulate_absorption_minus_300_upwind": ["simulate", "--network", DECAYING, "--t", "3",
                                             "--solver", "upwind"],
}
WRITTEN = (ABSORBING, DECAYING, STRING_VELOCITY, MIXED, RING, LINE, RING_GROUPS, FAN_OUT)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, outdir = (Path(a).resolve() for a in argv)
    outdir.mkdir(parents=True)  # a new directory: no file left by an older run
    doc = json.loads((checkout / TWO_CYCLE).read_text())
    (outdir / ABSORBING).write_text(json.dumps({**doc, "absorption": 3000.0}))
    (outdir / DECAYING).write_text(json.dumps({**doc, "absorption": -300.0}))
    (outdir / STRING_VELOCITY).write_text(json.dumps({**doc, "velocities": ["1", True]}))
    (outdir / MIXED).write_text(json.dumps({
        "vertices": 3, "edges": [{"tail": t, "head": h} for t, h in
                                 ((0, 1), (1, 2), (2, 0), (2, 1))],
        "velocities": [1.0, 2.0, 0.5, 1.5],
        "absorption": [[-0.25 * (j + 1) * (1.0 + (i / 40) ** 2) for i in range(41)]
                       for j in range(4)],
        "grid": {"n_cells": 40}}))
    for name, n_cells in ((RING, 8192), (RING_GROUPS, 4095)):
        (outdir / name).write_text(json.dumps({
            "vertices": 4, "edges": [{"tail": k, "head": (k + 1) % 4} for k in range(4)],
            "grid": {"n_cells": n_cells}}))
    (outdir / LINE).write_text(json.dumps({
        "vertices": 1024,
        "edges": [{"tail": k, "head": max(k - 1, 0)} for k in range(1024)],
        "velocities": [2.0 ** (k % 2 / 2) for k in range(1024)],
        "initial": [1.0] * 1024, "grid": {"n_cells": 4}}))
    (outdir / FAN_OUT).write_text(json.dumps({
        "vertices": 4, "edges": [{"tail": t, "head": h} for t, h in
                                 ((0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (1, 2))],
        "velocities": [1.0, 2.0 ** 0.5, 1.0, 1.0, 1.0, 1.0, 1.0],
        "absorption": [[0.1 * (j - 3) * (1.0 + (i / 40) ** 2) for i in range(41)]
                       for j in range(7)],
        "grid": {"n_cells": 40}}))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(checkout / "src") + (os.pathsep + path if path else ""))
    # the longer path first, in case one holds the other
    masks = sorted([(str(checkout), "<checkout>"), (str(outdir), "<outdir>")],
                   key=lambda m: -len(m[0]))
    for name, args in INVOCATIONS.items():
        run = outdir / name
        run.mkdir()
        args = [str(outdir / a) if a in WRITTEN else a for a in args]
        proc = subprocess.run([sys.executable, "-m", "semiflow.cli", *args,
                               "--out", str(run / "out")],
                              cwd=checkout, env=env, capture_output=True, text=True)
        stderr = proc.stderr
        for where, mask in masks:
            stderr = stderr.replace(where, mask)
        stderr = re.sub(r"(\.py):\d+:", r"\1:<line>:", stderr)
        (run / "stdout").write_text(proc.stdout)
        (run / "stderr").write_text(stderr)
        (run / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
