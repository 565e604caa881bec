"""Run the reference CLI invocations on a checkout and keep what each leaves.

    python3 tools/reference_runs.py CHECKOUT OUTDIR

OUTDIR must not exist yet.  Each invocation runs in CHECKOUT with its
``src`` first on ``PYTHONPATH`` and ``--out OUTDIR/NAME/out``, and
OUTDIR/NAME then holds ``stdout``, ``stderr``, ``exit_code`` and the
``--out`` files.  In ``stderr`` the checkout's path reads ``<checkout>``
and OUTDIR's reads ``<outdir>``, so that ``diff -r`` of the output
directories of two checkouts shows every byte in which their runs differ.

The invocations are the eight commands of README's command-line section
and eight more: ``euler`` on the right translation with the default
ladder (up to m = 1024; README's ``euler`` runs the left shift up to
m = 256), ``check --operator laplacian --samples 0`` (the parabola its
only sample: admitted, and exits 1), ``check --operator laplacian --grid
17`` (a grid too coarse for the parabola to fail: exits 2), ``resolvent``
on the right translation with the Laplace cross-check (README's runs the
left shift), two more ``simulate`` runs (the upwind solver, and a longer
orbit whose ``--out`` CSV is large), ``simulate --t 1e9`` (rejected
before any work) and ``check --network`` on the two-cycle with absorption
3000 (a resolvent breakdown, after a warning).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TWO_CYCLE = "configs/two_cycle.json"
ABSORBING = "two_cycle_absorption_3000.json"  # written into OUTDIR

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
}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, outdir = (Path(a).resolve() for a in argv)
    outdir.mkdir(parents=True)  # a new directory: no file left by an older run
    doc = json.loads((checkout / TWO_CYCLE).read_text())
    (outdir / ABSORBING).write_text(json.dumps({**doc, "absorption": 3000.0}))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src") + (os.pathsep + path if path else ""))
    # the longer path first, in case one holds the other
    masks = sorted([(str(checkout), "<checkout>"), (str(outdir), "<outdir>")],
                   key=lambda m: -len(m[0]))
    for name, args in INVOCATIONS.items():
        run = outdir / name
        run.mkdir()
        args = [str(outdir / a) if a == ABSORBING else a for a in args]
        proc = subprocess.run([sys.executable, "-m", "semiflow.cli", *args,
                               "--out", str(run / "out")],
                              cwd=checkout, env=env, capture_output=True, text=True)
        stderr = proc.stderr
        for where, mask in masks:
            stderr = stderr.replace(where, mask)
        (run / "stdout").write_text(proc.stdout)
        (run / "stderr").write_text(stderr)
        (run / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
