"""Acceptance gate: ten desk-scale criteria, each with pinned tolerances and
a wall-clock budget.  Every test prints one summary line; the kernels are
plain numpy, so nothing is compiled before a timer starts."""

import json
import time
import warnings

import numpy as np
import pytest

import semiflow as sf
from semiflow.cli import main as cli_main

E_MINUS_3 = 0.049787068367863944


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_second_derivative_witness(capsys):
    t0 = time.perf_counter()
    grid = sf.Grid(-2.0, 2.0, 4000)
    gen = sf.laplacian_generator()
    fam = sf.CompactSeminormFamily(sf.WindowOrientation.SYMMETRIC, 2)
    f = sf.GridFunction.from_callable(grid, lambda x: x ** 2)
    lam = 1.0
    shifted = sf.eval_pn(fam, 2, f * lam - gen.apply(f))
    scaled = sf.eval_pn(fam, 2, f) / lam
    code = cli_main(["check", "--operator", "laplacian"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    leg = [s for s in doc["sub_reports"] if s["check_name"] == "bi_dissipative"][0]
    witnessed = any(w["input_id"] == "parabola" and w["n"] == 2
                    and w["lambda"] == 1.0 for w in leg["witnesses"])
    elapsed = time.perf_counter() - t0
    ok = (abs(shifted - 2.0) <= 1e-6 and abs(scaled - 4.0) <= 1e-12
          and code == 1 and witnessed and elapsed < 1.0)
    with capsys.disabled():
        _report("criterion 1 (second-derivative witness)", ok,
                f"p2_shifted={shifted:.9f} p2_scaled={scaled:.15f} "
                f"cli_exit={code} witnessed={witnessed} t={elapsed:.2f}s")
    assert abs(shifted - 2.0) <= 1e-6
    assert abs(scaled - 4.0) <= 1e-12
    assert code == 1 and witnessed
    assert elapsed < 1.0


def test_criterion_02_windowed_contraction_counterexample(capsys):
    t0 = time.perf_counter()
    grid = sf.Grid(-10.0, 0.0, 4000)
    fam = sf.CompactSeminormFamily(sf.WindowOrientation.LEFT, 2)
    ramp = sf.plateau_ramp(grid, 2)
    p2 = sf.eval_pn(fam, 2, ramp)
    rf = sf.right_translation_resolvent(1.0, ramp)
    p1 = sf.eval_pn(fam, 1, rf)
    elapsed = time.perf_counter() - t0
    ok = p2 == 0.0 and p1 >= E_MINUS_3 - 1e-6 and p1 > 0.0 and elapsed < 1.0
    with capsys.disabled():
        _report("criterion 2 (plateau-ramp counterexample)", ok,
                f"p2={p2} p1={p1:.9f} bound={E_MINUS_3 - 1e-6:.9f} "
                f"t={elapsed:.2f}s")
    assert p2 == 0.0
    assert p1 >= E_MINUS_3 - 1e-6 and p1 > 0.0
    assert elapsed < 1.0


def test_criterion_03_shift_windowed_contraction(capsys):
    t0 = time.perf_counter()
    grid = sf.Grid(0.0, 20.0, 2000)
    gen = sf.left_shift_generator()
    fam = sf.CompactSeminormFamily(sf.WindowOrientation.RIGHT, 10)
    samples = sf.sample_functions(grid, 20, seed=42)
    worst = -np.inf
    for lam in (0.1, 1.0, 10.0):
        for _, g in samples:
            f = gen.resolve(lam, g)
            for n in range(1, 11):
                excess = lam * sf.eval_pn(fam, n, f) - sf.eval_pn(fam, n, g)
                worst = max(worst, excess)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    with capsys.disabled():
        _report("criterion 3 (windowed resolvent contraction)", ok,
                f"worst_excess={worst:.3e} (allowed 1e-9) t={elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_04_resolvent_power_bound(capsys):
    t0 = time.perf_counter()
    m = sf.upwind_discretize(100, 0.01)
    lambdas = [0.5, 1.0, 2.0, 10.0]
    rep = sf.check_hy_powers(m, lambdas, 20, rel_tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 2.0
    with capsys.disabled():
        _report("criterion 4 (resolvent power bound, size 100)", ok,
                f"passed={rep.passed} witnesses={len(rep.witnesses)} "
                f"t={elapsed:.2f}s")
    assert rep.passed, [w.to_dict() for w in rep.witnesses[:3]]
    assert elapsed < 2.0


def test_criterion_05_euler_convergence_ladder(capsys):
    t0 = time.perf_counter()
    grid = sf.Grid(0.0, 6.0, 4000)
    gen = sf.left_shift_generator()
    sg = sf.shift_semigroup()
    f = sf.smooth_bump(grid, 2.5, 1.0)
    fam = sf.CompactSeminormFamily(sf.WindowOrientation.RIGHT, 5)
    exact = sg.apply(1.0, f)
    ladder = [4, 16, 64, 256, 1024]
    errs = [sf.eval_pn(fam, 5, sf.euler_apply(gen, 1.0, m, f) - exact)
            for m in ladder]
    elapsed = time.perf_counter() - t0
    monotone = all(b <= a * 1.05 for a, b in zip(errs, errs[1:]))
    final_ok = errs[-1] <= 0.02 * f.norm()
    ok = monotone and final_ok and elapsed < 30.0
    with capsys.disabled():
        _report("criterion 5 (Euler power convergence)", ok,
                "errors=" + "/".join(f"{e:.4f}" for e in errs)
                + f" final<=0.02: {final_ok} t={elapsed:.2f}s")
    assert monotone, errs
    assert final_ok, errs[-1]
    assert elapsed < 30.0


def test_criterion_06_laplace_transform_agreement(capsys):
    t0 = time.perf_counter()
    grid = sf.Grid(0.0, 20.0, 2000)
    gen = sf.left_shift_generator()
    sg = sf.shift_semigroup()
    f = sf.smooth_bump(grid, 2.0, 1.0)
    approx, tail = sf.laplace_resolvent(sg, 1.0, f, 15.0, 3000)
    exact = gen.resolve(1.0, f)
    diff = approx - exact
    err = sf.window_sup(diff, 0.0, 5.0)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-3 and elapsed < 10.0
    with capsys.disabled():
        _report("criterion 6 (Laplace-transform resolvent)", ok,
                f"window_error={err:.3e} tail_bound={tail:.3e} "
                f"t={elapsed:.2f}s")
    assert err <= 1e-3
    assert elapsed < 10.0


def test_criterion_07_orbit_integral_identity(capsys):
    t0 = time.perf_counter()
    grid = sf.Grid(0.0, 10.0, 2000)
    gen = sf.left_shift_generator()
    sg = sf.shift_semigroup()
    f = sf.smooth_bump(grid, 4.0, 2.0)
    residual = sf.orbit_integral_residual(gen, sg, 0.5, f, steps=2000)
    elapsed = time.perf_counter() - t0
    bound = 1e-3 * f.norm()
    ok = residual <= bound and elapsed < 10.0
    with capsys.disabled():
        _report("criterion 7 (orbit integral identity)", ok,
                f"residual={residual:.3e} bound={bound:.3e} t={elapsed:.2f}s")
    assert residual <= bound
    assert elapsed < 10.0


def test_criterion_08_network_conservation_periodicity(capsys):
    t0 = time.perf_counter()
    net = sf.make_network(2, [(0, 1), (1, 0)], velocities=[1.0, 1.0],
                          n_cells=400)
    st = sf.initial_state(net)
    mass_dev = max(abs(sf.total_mass(sf.step_characteristics(net, st, t)) - 0.5)
                   for t in np.linspace(0.0, 10.0, 21))
    period_err = float(np.max(np.abs(
        sf.step_characteristics(net, st, 2.0).values - st.values)))
    _, states = sf.simulate_flow(net, st, 10.0, "upwind", cfl=0.9,
                                 n_outputs=6)
    m0 = sf.total_mass(states[0])
    drift = max(abs(sf.total_mass(s) - m0) for s in states) / m0
    elapsed = time.perf_counter() - t0
    ok = (mass_dev <= 1e-12 and period_err <= 1e-9 and drift <= 1e-3
          and elapsed < 10.0)
    with capsys.disabled():
        _report("criterion 8 (network conservation/periodicity)", ok,
                f"mass_dev={mass_dev:.2e} period_err={period_err:.2e} "
                f"upwind_drift={drift:.2e} t={elapsed:.2f}s")
    assert mass_dev <= 1e-12
    assert period_err <= 1e-9
    assert drift <= 1e-3
    assert elapsed < 10.0


def test_criterion_09_fixed_vector_identity_bulk(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        n_edges = 3 + (seed * 7) % 198  # spread over 3..200
        net = sf.random_flow_network(n_edges, seed=seed, n_cells=8,
                                     velocity_range=(0.5, 4.0))
        worst = max(worst, sf.velocity_fixed_vector_residual(net))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    with capsys.disabled():
        _report("criterion 9 (adjoint fixed-vector identity)", ok,
                f"worst_residual={worst:.3e} over 50 networks t={elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_10_network_resolvent_contraction(capsys):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(5):
            net = sf.random_flow_network(3, seed=seed, n_cells=200,
                                         velocity_range=(1.0, 1.0))
            for _, g in sf.sample_states(net, 2, seed):
                for lam in (1.0, 5.0):
                    f = sf.network_resolvent(net, lam, g)
                    worst_ratio = max(worst_ratio,
                                      lam * f.norm() / g.norm())
    cyc = sf.make_network(2, [(0, 1), (1, 0)], velocities=[1.0, 1.0],
                          n_cells=400)
    ones = sf.EdgeState(cyc.grid, np.ones((2, 401)))
    closed_dev = 0.0
    bc_res = 0.0
    bc = sf.weighted_bc(cyc)
    for lam in (1.0, 5.0):
        f = sf.network_resolvent(cyc, lam, ones)
        closed_dev = max(closed_dev, float(np.max(np.abs(f.values - 1.0 / lam))))
        bc_res = max(bc_res, float(np.max(np.abs(
            f.values[:, -1] - bc @ f.values[:, 0]))))
    elapsed = time.perf_counter() - t0
    ok = (worst_ratio <= 1.0 + 1e-6 and closed_dev <= 1e-8
          and bc_res <= 1e-9 and elapsed < 5.0)
    with capsys.disabled():
        _report("criterion 10 (network resolvent contraction)", ok,
                f"worst_ratio={worst_ratio:.9f} closed_form_dev={closed_dev:.2e} "
                f"bc_residual={bc_res:.2e} t={elapsed:.2f}s")
    assert worst_ratio <= 1.0 + 1e-6
    assert closed_dev <= 1e-8
    assert bc_res <= 1e-9
    assert elapsed < 5.0
