"""End-to-end command-line behavior: exit codes, pinned JSON values,
CSV artifacts, and byte-level determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semiflow
from semiflow import cli, load_network, network
from semiflow.cli import build_parser, main

TWO_CYCLE = Path(__file__).resolve().parents[1] / "configs" / "two_cycle.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_heat_defaults(capsys):
    code, out = run_cli(capsys, "heat")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert abs(doc["p2_shifted"] - 2.0) <= 1e-6
    assert abs(doc["inv_lambda_p2_f"] - 4.0) <= 1e-12


def test_counterexample_defaults(capsys):
    code, out = run_cli(capsys, "counterexample")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["p_n_of_f"] == 0.0
    assert doc["p_1_of_Rf"] >= doc["lower_bound"] - 1e-6
    assert doc["lower_bound"] == pytest.approx(0.049787068367863944, rel=1e-12)


def test_counterexample_rejects_bad_n(capsys):
    code, _ = run_cli(capsys, "counterexample", "--n", "0")
    assert code == 2


@pytest.mark.parametrize("lam, n", [("50", "20"), ("1", "760")])
def test_counterexample_whose_bound_underflows_exits_two(capsys, lam, n):
    # exp(-lambda (n + 1)) / lambda is 0 here, and so is p_1 of R f: the run
    # could only report a failed witness (exit 1) that did not fail
    assert main(["counterexample", "--lambda", lam, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the lower bound exp(-lambda (n + 1)) / lambda")
    # lambda (n + 1) = 701 keeps the bound a normal float, and the witness holds
    assert run_cli(capsys, "counterexample", "--lambda", "1", "--n", "700")[0] == 0


@pytest.mark.parametrize("option", [("--grid", "5"), ("--samples", "0"), ("--seed", "7"),
                                    ("--samples=8",)],
                         ids=["grid", "samples", "seed", "samples_default_value"])
def test_check_network_refuses_the_operator_options(capsys, option):
    # the document sets the grid and the verdict its samples and seed, so the
    # options would change nothing, even when given their operator default
    assert main(["check", "--network", str(TWO_CYCLE), *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid, --samples and --seed apply to "
                                   "--operator only")


def test_check_left_shift_passes(capsys):
    code, out = run_cli(capsys, "check", "--operator", "left_shift",
                        "--grid", "1000", "--samples", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_check_laplacian_fails_with_witness_pair(capsys):
    code, out = run_cli(capsys, "check", "--operator", "laplacian",
                        "--grid", "2000")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    leg = [s for s in doc["sub_reports"]
           if s["check_name"] == "bi_dissipative"][0]
    pairs = [(w["lhs"], w["rhs"]) for w in leg["witnesses"]
             if w["input_id"] == "parabola" and w["lambda"] == 1.0
             and w["n"] == 2]
    assert pairs
    assert pairs[0][0] == pytest.approx(2.0, abs=1e-6)
    assert pairs[0][1] == pytest.approx(4.0, abs=1e-12)


def test_check_right_translation_reports_ramp_witness(capsys):
    code, out = run_cli(capsys, "check", "--operator", "right_translation",
                        "--grid", "1000", "--samples", "3")
    assert code == 1
    doc = json.loads(out)
    leg = [s for s in doc["sub_reports"]
           if s["check_name"] == "bi_dissipative"][0]
    assert any(w["input_id"] == "ramp_resolvent" for w in leg["witnesses"])


def test_check_requires_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2


def test_unknown_operator_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--operator", "nosuch"])
    assert exc.value.code == 2


def test_euler_csv_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "euler"
    code, out = run_cli(capsys, "euler", "--m-ladder", "4,16,64",
                        "--grid", "1200", "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["m_ladder"] == [4, 16, 64]
    errs = doc["errors"]
    assert errs[0] > errs[1] > errs[2]
    lines = (out_dir / "euler_convergence.csv").read_text().splitlines()
    assert lines[0] == "m,seminorm_index,error"
    assert len(lines) == 1 + 3 * 5  # ladder x seminorm indices


def test_euler_rejects_bad_ladder(capsys):
    code, _ = run_cli(capsys, "euler", "--m-ladder", "4,0,16")
    assert code == 2


def _write_two_cycle(tmp_path):
    cfg = {
        "vertices": 2,
        "edges": [{"tail": 0, "head": 1}, {"tail": 1, "head": 0}],
        "velocities": [1.0, 1.0],
        "absorption": 0.0,
        "grid": {"n_cells": 200},
    }
    path = tmp_path / "two_cycle.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_csv_and_conservation(tmp_path, capsys):
    path = _write_two_cycle(tmp_path)
    out_dir = tmp_path / "sim"
    code, out = run_cli(capsys, "simulate", "--network", str(path),
                        "--t", "2", "--outputs", "5", "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["mass_drift_rel"] <= 1e-12
    lines = (out_dir / "simulation.csv").read_text().splitlines()
    assert lines[0] == "t,edge,x,u"
    assert len(lines) == 1 + 5 * 2 * 201


def test_simulate_upwind_solver(tmp_path, capsys):
    path = _write_two_cycle(tmp_path)
    code, out = run_cli(capsys, "simulate", "--network", str(path),
                        "--solver", "upwind", "--t", "1", "--outputs", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["solver"] == "upwind"
    assert doc["mass_drift_rel"] <= 1e-3


def test_simulate_missing_file_exits_two(capsys):
    code, _ = run_cli(capsys, "simulate", "--network", "/does/not/exist.json")
    assert code == 2


def test_simulate_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    # truncated JSON, and valid JSON that is not a network object
    for text in ('{"vertices": 2, "edges": [', '[2, 3]'):
        path.write_text(text)
        code, _ = run_cli(capsys, "simulate", "--network", str(path))
        assert code == 2, text


@pytest.mark.parametrize("initial", ["ab", [[1, 2], [0]], [[5], [0]]],
                         ids=["string", "short_row", "one_value_row"])
def test_simulate_rejects_a_malformed_initial_profile(tmp_path, capsys, initial):
    # an entry is a number or a row of n_cells + 1 = 5 numbers
    doc = dict(json.loads(TWO_CYCLE.read_text()), grid={"n_cells": 4}, initial=initial)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--network", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: initial data for edge 0 must be a number or a row of 5 numbers\n")


def test_simulate_starts_from_a_valid_initial_profile(tmp_path, capsys):
    # a constant for edge 0 and a row of n_cells + 1 = 5 values for edge 1
    doc = dict(json.loads(TWO_CYCLE.read_text()), grid={"n_cells": 4},
               initial=[0.5, [0, 1, 2, 3, 4]])
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--network", str(path), "--out", str(out_dir)]) == 0
    rows = [line.split(",") for line in
            (out_dir / "simulation.csv").read_text().splitlines()[1:]]
    start = [(int(edge), float(u)) for t, edge, _, u in rows if float(t) == 0.0]
    assert start == [(0, 0.5)] * 5 + [(1, float(k)) for k in range(5)]


def test_non_object_network_document_gives_one_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for command in ("check", "simulate"):
        assert main([command, "--network", str(path)]) == 2
        assert capsys.readouterr().err == "error: network config must be a JSON object\n"


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so that an uncaught exception
    shows as a traceback on stderr."""
    pkg_root = os.path.dirname(os.path.dirname(semiflow.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=pkg_root + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "semiflow.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv, names", [
    # the coupling system is nearly singular at this lambda, and the solve
    # misses the boundary condition
    (("check", "--network", str(TWO_CYCLE), "--lambda", "1e-12"),
     "network resolvent breaks down at lambda 1e-12: boundary condition residual"),
    # exp(-1e-17) rounds to 1, so the coupling system is exactly singular
    (("check", "--network", str(TWO_CYCLE), "--lambda", "1e-17"),
     "network resolvent breaks down at lambda 1e-17: the vertex coupling system is singular"),
    # edge growth exp(3000 - lambda) overflows ({absorbing}: the two-cycle
    # with absorption 3000)
    (("check", "--network", "{absorbing}"),
     "network resolvent breaks down at lambda 0.1: the solution is not finite"),
    # the exact tracer would follow ~1e9 vertex crossings per point
    (("simulate", "--network", str(TWO_CYCLE), "--t", "1e9"), "characteristic tracing"),
    # 1e8 output times of 802 values each, rejected before the time grid
    (("simulate", "--network", str(TWO_CYCLE), "--outputs", "100000000"),
     "100000000 output times"),
    # the upwind march would take ~3.6e14 cell-steps
    (("simulate", "--network", str(TWO_CYCLE), "--solver", "upwind", "--t", "1e9"),
     "the upwind march"),
], ids=["resolvent_breakdown", "singular_coupling", "absorption_overflow",
        "tracing_over_budget", "too_many_outputs", "upwind_over_budget"])
def test_unsolvable_network_input_exits_two(argv, names, tmp_path):
    absorbing = tmp_path / "absorbing.json"
    absorbing.write_text(json.dumps(dict(json.loads(TWO_CYCLE.read_text()),
                                         absorption=3000.0)))
    proc = run_cli_process(*(a.replace("{absorbing}", str(absorbing)) for a in argv))
    assert proc.returncode == 2, proc.stderr
    assert f"error: {names}" in proc.stderr
    for leak in ("Traceback", "SVD", "Singular matrix", "np.float64(", "encountered in"):
        assert leak not in proc.stderr


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_absorption_whose_integral_overflows_exits_two(command, tmp_path):
    # finite absorption, but the trapezoid sum 1e308 + 1e308 overflows: the
    # network is rejected when it is built, before any solver runs
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(dict(json.loads(TWO_CYCLE.read_text()),
                                    absorption=[1e308, 0.0])))
    proc = run_cli_process(command, "--network", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("error: the absorption integral of edge 0 overflows; "
                           "absorption values must be smaller\n")
    assert proc.stdout == ""


def test_orbit_over_the_frontier_limit_names_the_largest_time(tmp_path):
    # speeds [1, sqrt 2] fit no time grid, so the orbit traces; its 11
    # output times go in blocks, and the first block is already over the
    # limit, but the error names the time that was asked for
    doc = dict(json.loads(TWO_CYCLE.read_text()), velocities=[1.0, 2.0 ** 0.5])
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps(doc))
    proc = run_cli_process("simulate", "--network", str(path), "--t", "1e9")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(
        "error: characteristic tracing to t = 1000000000.0 would create at least ")
    assert "Traceback" not in proc.stderr


def _ring_document(n_edges, n_cells):
    return {"vertices": n_edges,
            "edges": [{"tail": v, "head": (v + 1) % n_edges} for v in range(n_edges)],
            "grid": {"n_cells": n_cells}}


def _two_cycle_document(n_cells):
    return {"vertices": 2,
            "edges": [{"tail": 0, "head": 1}, {"tail": 1, "head": 0}],
            "grid": {"n_cells": n_cells}}


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("doc", [
    # one edge over the edge bound; the coupling solves grow like E^3
    _ring_document(network.DOCUMENT_EDGE_LIMIT + 1, 10),
    # one cell over the node-value bound: 2 (2^20 + 1) values
    _two_cycle_document(network.DOCUMENT_VALUE_LIMIT // 2),
], ids=["ring_edges", "two_cycle_values"])
def test_oversized_network_document_exits_two(tmp_path, command, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    proc = run_cli_process(command, "--network", str(path))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: network document ")
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_network_document_at_the_bounds_loads():
    ring = load_network(_ring_document(
        network.DOCUMENT_EDGE_LIMIT,
        network.DOCUMENT_VALUE_LIMIT // network.DOCUMENT_EDGE_LIMIT - 1))
    cycle = load_network(_two_cycle_document(network.DOCUMENT_VALUE_LIMIT // 2 - 1))
    assert ring.n_edges == network.DOCUMENT_EDGE_LIMIT
    for net in (ring, cycle):
        assert net.n_edges * (net.grid.n_cells + 1) == network.DOCUMENT_VALUE_LIMIT


@pytest.mark.parametrize("argv", [
    # one orbit evaluation per step: ~1e10 node visits
    ("resolvent", "--grid", "100", "--horizon", "15", "--steps", "100000000"),
    ("check", "--operator", "left_shift", "--grid", "100000000"),
    ("check", "--operator", "laplacian", "--samples", "100000000"),
    # 8 samples at 64 lambdas: one row per (sample, lambda) pair
    ("check", "--operator", "left_shift", "--grid", "262144",
     *[arg for k in range(64) for arg in ("--lambda", str(1 + k))]),
    # 5 samples at 20000 lambdas in [1, 21), none of which breaks the
    # resolvent down: about 25 s and exit 0 before the count was bounded
    ("check", "--network", str(TWO_CYCLE),
     *[arg for k in range(20000) for arg in ("--lambda", str(1 + k / 1000))]),
    # the parabola and the ramp resolvent are samples too: with them not
    # counted these ran for 2-10 s at 1.2 GB and exited 1
    ("check", "--operator", "laplacian", "--samples", "0", "--grid", "262144",
     *["--lambda", "1"] * 300),
    ("check", "--operator", "right_translation", "--samples", "-3", "--grid", "262144",
     *["--lambda", "1"] * 300),
    ("euler", "--m-ladder", "4,16,100000000"),
    ("euler", "--n-max", "100000000"),
    ("euler", "--grid", "100000000"),
    ("counterexample", "--grid", "100000000"),
    ("heat", "--grid", "100000000"),
    ("resolvent", "--grid", "100000000"),
], ids=["resolvent_steps", "check_grid", "check_samples", "check_lambdas",
        "check_network_lambdas", "check_laplacian_no_samples",
        "check_right_translation_negative_samples",
        "euler_ladder", "euler_n_max", "euler_grid", "counterexample_grid",
        "heat_grid", "resolvent_grid"])
def test_count_options_over_budget_exit_two(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("exc, err", [
    (MemoryError("Unable to allocate 1.1 GiB"), "error: Unable to allocate 1.1 GiB\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_memory_error_exits_two(monkeypatch, capsys, exc, err):
    # running out of memory is not a failed certificate (exit 1)
    def no_memory(*args):
        raise exc

    monkeypatch.setattr(cli, "euler_apply", no_memory)
    assert main(["euler", "--grid", "200", "--m-ladder", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_lambda_count_over_budget_is_refused_before_parsing(monkeypatch, capsys):
    # argparse takes time quadratic in the option count: 12-14 s on 2 cores
    # for these 40000 arguments
    def no_parser():
        raise AssertionError("the argv was parsed")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    lambdas = [arg for k in range(20000) for arg in ("--lambda", str(1 + k / 1000))]
    assert main(["check", "--network", str(TWO_CYCLE), *lambdas]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 40003 arguments exceed the limit of 4096")


ARGV_PREFIXES = {
    "check": (("check", "--operator", "left_shift"), ("--grid", "100")),
    "euler": (("euler",), ("--grid", "100")),
    "counterexample": (("counterexample",), ("--n", "2")),
    "heat": (("heat",), ("--n", "2")),
    "simulate": (("simulate", "--network", str(TWO_CYCLE)), ("--outputs", "3")),
    "resolvent": (("resolvent",), ("--grid", "100")),
}


@pytest.mark.parametrize("command", sorted(ARGV_PREFIXES))
def test_argv_over_the_limit_is_refused_before_parsing(command, monkeypatch, capsys):
    # the parse alone takes time quadratic in the options, whichever repeat
    def no_parser():
        raise AssertionError("the argv was parsed")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    prefix, pair = ARGV_PREFIXES[command]
    argv = [*prefix, *pair * ((cli.ARGV_LIMIT + 1 - len(prefix)) // 2)]
    assert len(argv) == cli.ARGV_LIMIT + 1
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {cli.ARGV_LIMIT + 1} arguments exceed the limit "
                            f"of {cli.ARGV_LIMIT}\n")


def test_argv_at_the_limit_is_parsed(capsys):
    # the parsed pair bound names the count of --lambda values it read
    n_pairs = (cli.ARGV_LIMIT - 6) // 2
    argv = ["check", "--operator", "left_shift", "--samples", "100000", "--lambda=1",
            *["--lambda", "1"] * n_pairs]
    assert len(argv) == cli.ARGV_LIMIT
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: 100000 samples and {n_pairs + 1} --lambda values ")


def test_network_pair_bound_admits_13107_lambdas_on_the_two_cycle():
    # the two-cycle has 802 node values, under the floor of 2^10: the parsed
    # bound admits 2^30 / (5 * 16 * 2^10) = 13107 lambdas
    assert cli._verdict_network(str(TWO_CYCLE), 13107).n_edges == 2
    with pytest.raises(ValueError, match="5 samples and 13108 --lambda values"):
        cli._verdict_network(str(TWO_CYCLE), 13108)


def test_network_bound_counts_the_coupling_solves(tmp_path, monkeypatch, capsys):
    # on a ring of 1024 edges, 1100 lambdas took 155 s on 2 cores, nearly all
    # of it in the E x E coupling solves; node visits alone admit 1191
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(_ring_document(1024, 10)))
    assert cli._verdict_network(str(path), 3).n_edges == 1024
    assert cli._verdict_network(str(TWO_CYCLE), 2000).n_edges == 2

    def no_solve(*args, **kwargs):
        raise AssertionError("the verdict ran")

    monkeypatch.setattr(network, "network_generation_verdict", no_solve)
    lambdas = [arg for k in range(1100) for arg in ("--lambda", str(1 + k / 100))]
    assert main(["check", "--network", str(path), *lambdas]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 5 samples and 1100 --lambda values ")


@pytest.mark.parametrize("grid", ["0", "1"])
@pytest.mark.parametrize("argv", [("check", "--operator", "left_shift"), ("euler",),
                                  ("counterexample",), ("heat",), ("resolvent",)],
                         ids=lambda argv: argv[0])
def test_grid_below_two_cells_exits_two(argv, grid, capsys):
    # a zero grid is an input error, not a request for the default grid
    assert main([*argv, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid requires an integer n_cells >= 2\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "--network", str(TWO_CYCLE), "--solver", "upwind", "--t", "inf"),
    ("resolvent", "--lambda", "inf"),
    ("check", "--network", str(TWO_CYCLE), "--lambda", "inf"),
], ids=["simulate_t", "resolvent_lambda", "check_lambda"])
def test_non_finite_numbers_exit_two(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "error: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("operator", ["left_shift", "right_translation"])
def test_check_with_huge_lambda_names_the_range_budget(operator):
    # (1 + lambda)^2 overflows; the message names lambda and the budget
    proc = run_cli_process("check", "--operator", operator, "--lambda", "1e300")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: lambda = 1e+300 is too large for the range probe: its tolerance "
        "10 (1 + lambda)^2 h^2 max(1, ||g||) overflows\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("heat", "--lambda", "1e-310"),
    ("resolvent", "--lambda", "1e-310", "--horizon", "15"),
    ("counterexample", "--lambda", "1e-310", "--n", "2"),
    ("heat", "--lambda", "1e308"),
    ("check", "--operator", "laplacian", "--lambda", "1e308"),
], ids=["heat_report_inf", "resolvent_tail_inf", "counterexample_bound_inf",
        "heat_lambda_n2_inf", "check_laplacian_shifted_inf"])
def test_a_run_whose_numbers_overflow_is_refused_with_one_line(argv, tmp_path, capsys):
    # 1/lambda or lambda x^2 passes the float range: the run prints no report
    # (JSON has no inf), no numpy warning and no --out file, only one error line
    out_dir = tmp_path / "out"
    assert main([*argv, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("operator, input_", [
    ("left_shift", "ones"), ("left_shift", "expdecay"),
    ("right_translation", "ones"), ("right_translation", "expdecay"),
])
def test_resolvent_of_ones_and_expdecay_meets_its_closed_form(capsys, operator, input_):
    # lambda = 1, horizon H = 15 in ds = H / 3000, h = 20 / 2000 (left shift
    # on [0, 20], inflow 0) or 10 / 2000 (right translation on [-10, 0], g
    # extended by g(a)); g(a) = 1 for both inputs
    code, out = run_cli(capsys, "resolvent", "--operator", operator,
                        "--input", input_, "--horizon", "15")
    assert code == 0
    doc = json.loads(out)
    lam, horizon, ds, rounding = 1.0, 15.0, 15.0 / 3000, 2000 * 2.0 ** -52
    if operator == "right_translation":
        # R g <= g(a) / lambda, attained at a: exact to rounding
        sup, sup_tol, jump = 1.0 / lam, rounding, 0.0
    elif input_ == "ones":
        # R g (x) = (1 - e^(-lambda (x - a))) / lambda, largest at b: the
        # scheme is exact on linear data
        sup, sup_tol, jump = (1.0 - math.exp(-20.0 * lam)) / lam, rounding, 1.0
    else:
        # R g (x) = (x - a) e^(-(x - a)) at lambda = 1, largest e^-1 at the node
        # x = 1, within linear interpolation's h^2 max|g''| / (8 lambda)
        sup, sup_tol, jump = math.exp(-1.0), (20.0 / 2000) ** 2 / (8 * lam), 1.0
    assert abs(doc["sup_of_result"] - sup) <= sup_tol
    # the left shift's orbit at a jumps from g(a) to the inflow 0 at s = 0,
    # where the true integral is 0 and the trapezoid rule's end weight ds/2
    # is all its error; the smooth part adds its ds^2/12 int |f''| rule with
    # f = e^(-lambda s), and the tail past H its bound
    smooth = doc["laplace_tail_bound"] + ds ** 2 / 12 * lam * (1 - math.exp(-lam * horizon))
    diff = doc["laplace_crosscheck_diff"]
    assert jump * ds / 2 - rounding <= diff <= jump * ds / 2 + smooth


def test_euler_at_tiny_times(capsys):
    # lambda = m/t: 1e303 is solved without a warning, inf is rejected
    code, out = run_cli(capsys, "euler", "--t", "1e-300", "--grid", "200")
    assert code == 0 and json.loads(out)["errors"][-1] < 1e-12
    code = main(["euler", "--t", "5e-324", "--grid", "200"])
    assert code == 2
    assert capsys.readouterr().err == "error: lambda must be finite and positive, got inf\n"


@pytest.mark.parametrize("operator", ["left_shift", "right_translation"])
def test_resolvent_where_lambda_h_overflows(operator):
    # lambda h = 1e309 on two cells of [0, 20] (5e308 on [-10, 0]):
    # R(lambda) g = g / lambda, and the right translation's tail
    # exp(-lambda (x - a)) underflows to 0 where lambda (x - a) overflows
    proc = run_cli_process("resolvent", "--operator", operator, "--grid", "2",
                           "--lambda", "1e308")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sup_of_result"] > 0
    assert "encountered in" not in proc.stderr


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_without_samples_exits_two(samples):
    # a certificate over no sample would pass vacuously
    proc = run_cli_process("check", "--operator", "left_shift", "--samples", samples)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_check_refuses_a_negative_seed(capsys):
    # numpy's own refusal would name neither the option nor the value
    assert main(["check", "--operator", "left_shift", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("cfl", ["1e-300", "5e-324"])
def test_simulate_with_a_tiny_cfl_target_exits_two_with_one_short_line(cfl):
    # the step count overflows (1e-300) or the step underflows to 0 (5e-324)
    proc = run_cli_process("simulate", "--network", str(TWO_CYCLE), "--solver", "upwind",
                           "--cfl", cfl, "--t", "1", "--outputs", "2")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    line, = proc.stderr.splitlines()
    assert line.startswith("error: the upwind march would take ")
    assert f"CFL target {cfl}" in line
    assert f"the limit of {network.UPWIND_CELL_STEP_LIMIT}" in line
    assert len(line) < 200


@pytest.mark.parametrize("argv", [
    ("--operator", "laplacian", "--grid", "4"),
    ("--operator", "left_shift", "--grid", "2", "--samples", "1"),
    ("--operator", "laplacian", "--grid", "17"),
])
def test_check_on_a_grid_too_coarse_to_fail_exits_two(argv, capsys):
    # 10 h^2 >= 1/2: the dissipativity leg passes an lhs at half its rhs, as
    # the laplacian's parabola has on 17 cells, so it certifies almost nothing
    assert main(["check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid step h = ")
    assert "10 h^2" in captured.err


def test_cached_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; the append action and the
    # defaults must not carry one call's --lambda into the next
    assert build_parser() is build_parser()
    base = ["check", "--operator", "left_shift", "--grid", "200", "--samples", "1"]
    for extra, lambdas in ((["--lambda", "2"], [2.0]), ([], [0.1, 1.0, 10.0]),
                           (["--lambda", "3", "--lambda", "4"], [3.0, 4.0]),
                           ([], [0.1, 1.0, 10.0])):
        code, out = run_cli(capsys, *base, *extra)
        assert code == 0
        assert json.loads(out)["parameters"]["lambdas"] == lambdas
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"check", "euler", "counterexample", "heat",
                             "simulate", "resolvent"}


def test_every_float_option_rejects_non_finite(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, sub in commands.items():
        for action in sub._actions:
            assert action.type is not float, (name, action.dest)
    for text in ("nan", "-inf", "1e999"):
        with pytest.raises(SystemExit) as info:
            main(["heat", f"--lambda={text}"])
        assert info.value.code == 2
        assert "must be a finite number" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["heat", "--lambda", "abc"])
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def test_check_network(tmp_path, capsys):
    path = _write_two_cycle(tmp_path)
    code, out = run_cli(capsys, "check", "--network", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["check_name"] == "lumer_phillips_network"
    assert [s["passed"] for s in doc["sub_reports"]] == [True, True, True]


def _network_legs(capsys, argv):
    code, out = run_cli(capsys, *argv)
    return code, {s["check_name"]: s for s in json.loads(out)["sub_reports"]}


def test_check_network_exits_one_on_a_non_contractive_resolvent(monkeypatch, capsys):
    # twice every solution: lambda ||R f|| reaches about twice ||f||
    solve = network._network_resolvents

    def doubled(net, lam, gs):
        for f, budget in solve(net, lam, gs):
            yield f * 2.0, budget

    monkeypatch.setattr(network, "_network_resolvents", doubled)
    code, legs = _network_legs(capsys, ["check", "--network", str(TWO_CYCLE)])
    assert code == 1
    leg = legs["network_resolvent_contraction"]
    assert not leg["passed"] and leg["witnesses"]
    assert all(w["lhs"] > w["rhs"] for w in leg["witnesses"])
    assert legs["adjoint_fixed_vector"]["passed"] and legs["network_range_probe"]["passed"]


def test_check_network_exits_one_on_a_broken_fixed_vector(monkeypatch, capsys):
    monkeypatch.setattr(network, "velocity_fixed_vector_residual", lambda net: 1.0)
    code, legs = _network_legs(capsys, ["check", "--network", str(TWO_CYCLE)])
    assert code == 1
    leg = legs["adjoint_fixed_vector"]
    assert [(w["input_id"], w["lhs"]) for w in leg["witnesses"]] == [
        ("velocity_fixed_vector", 1.0)]
    assert legs["network_resolvent_contraction"]["passed"]


@pytest.mark.parametrize("argv", [("--steps", "0"), ("--grid", "100", "--steps", "-7"),
                                  ("--steps", "3000")], ids=["zero", "negative", "default"])
def test_resolvent_refuses_steps_without_horizon(argv, capsys):
    # only the Laplace cross-check reads --steps, so the run would ignore it
    assert main(["resolvent", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --steps applies to --horizon only")


def test_resolvent_horizon_takes_3000_steps_by_default(capsys):
    code, out = run_cli(capsys, "resolvent", "--horizon", "15")
    assert code == 0
    assert json.loads(out)["laplace_steps"] == 3000


def test_resolvent_with_laplace_crosscheck(tmp_path, capsys):
    out_dir = tmp_path / "res"
    code, out = run_cli(capsys, "resolvent", "--operator", "left_shift",
                        "--input", "bump", "--grid", "1000",
                        "--horizon", "15", "--steps", "1500",
                        "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["laplace_crosscheck_diff"] < 1e-3
    assert (out_dir / "resolvent.csv").exists()
    header = (out_dir / "resolvent.csv").read_text().splitlines()[0]
    assert header == "x,value"


def test_output_determinism_byte_identical(tmp_path, capsys):
    _, out1 = run_cli(capsys, "heat")
    _, out2 = run_cli(capsys, "heat")
    assert out1 == out2
    _, chk1 = run_cli(capsys, "check", "--operator", "laplacian",
                      "--grid", "800")
    _, chk2 = run_cli(capsys, "check", "--operator", "laplacian",
                      "--grid", "800")
    assert chk1 == chk2
    path = _write_two_cycle(tmp_path)
    _, sim1 = run_cli(capsys, "simulate", "--network", str(path), "--t", "1")
    _, sim2 = run_cli(capsys, "simulate", "--network", str(path), "--t", "1")
    assert sim1 == sim2


def test_json_floats_have_17_significant_digits(capsys):
    _, out = run_cli(capsys, "counterexample")
    # the frozen lower bound must appear at full precision
    assert "0.049787068367863944" in out


def test_json_text_of_an_empty_object_and_an_unsupported_value():
    assert cli.json_text({}) == "{}"
    with pytest.raises(TypeError, match="cannot serialize <class 'complex'>"):
        cli._fmt(1j)


def test_overflowed_damping_warning_quotes_q_inf(tmp_path):
    # the two-cycle with absorption 3000: every nu_j = exp(2999.9) overflows,
    # and the warning quotes q = inf (it read nan) before the breakdown
    absorbing = tmp_path / "absorbing.json"
    absorbing.write_text(json.dumps(dict(json.loads(TWO_CYCLE.read_text()),
                                         absorption=3000.0)))
    proc = run_cli_process("check", "--network", str(absorbing))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0].endswith(
        "RuntimeWarning: vertex coupling is not strictly damped (q = max_k sum_j "
        "nu_j B_jk = inf, not below 1); attempting a direct solve; increase lambda "
        "for a guaranteed solve")
    assert lines[-1] == ("error: network resolvent breaks down at lambda 0.1: "
                         "the solution is not finite")
    assert "nan" not in proc.stderr
