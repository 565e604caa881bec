"""End-to-end command-line behavior: exit codes, pinned JSON values,
CSV artifacts, and byte-level determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semiflow
from semiflow import load_network, network
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
    ("euler", "--m-ladder", "4,16,100000000"),
    ("euler", "--n-max", "100000000"),
    ("euler", "--grid", "100000000"),
    ("counterexample", "--grid", "100000000"),
    ("heat", "--grid", "100000000"),
    ("resolvent", "--grid", "100000000"),
], ids=["resolvent_steps", "check_grid", "check_samples", "euler_ladder",
        "euler_n_max", "euler_grid", "counterexample_grid", "heat_grid",
        "resolvent_grid"])
def test_count_options_over_budget_exit_two(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


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


def test_euler_at_tiny_times(capsys):
    # lambda = m/t: 1e303 is solved without a warning, inf is rejected
    code, out = run_cli(capsys, "euler", "--t", "1e-300", "--grid", "200")
    assert code == 0 and json.loads(out)["errors"][-1] < 1e-12
    code = main(["euler", "--t", "5e-324", "--grid", "200"])
    assert code == 2
    assert capsys.readouterr().err == "error: lambda must be finite and positive, got inf\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_without_samples_exits_two(samples):
    # a certificate over no sample would pass vacuously
    proc = run_cli_process("check", "--operator", "left_shift", "--samples", samples)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


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
