"""Certificate-style checks: windowed dissipativity, resolvent contraction,
resolvent-power bounds, subdifferential membership, and the combined
verdict."""

import re

import numpy as np
import pytest

from semiflow import (CheckReport, CompactSeminormFamily, Generator, Grid,
                      GridFunction, Witness, WindowOrientation,
                      check_bi_dissipative, check_hy_powers,
                      check_resolvent_contraction, eval_pn,
                      laplacian_generator, left_shift_generator,
                      lumer_phillips_verdict, plateau_ramp,
                      right_translation_generator,
                      right_translation_resolvent, sample_functions,
                      seminorm_ladder, smooth_bump, subdifferential_test,
                      upwind_discretize)

E_MINUS_3 = 0.049787068367863944        # e^{-3}
ONE_MINUS_E_MINUS_3 = 0.950212931632136  # 1 - e^{-3}


def _left_shift_setup(n_cells=2000):
    g = Grid(0.0, 20.0, n_cells)
    gen = left_shift_generator()
    fam = CompactSeminormFamily(WindowOrientation.RIGHT, 10)
    return g, gen, fam


def test_dissipative_rejects_out_of_domain_sample():
    g, gen, fam = _left_shift_setup(200)
    bad = GridFunction(g, np.ones(201))
    with pytest.raises(ValueError, match="outside the domain"):
        check_bi_dissipative(gen, fam, [("ones", bad)], [1.0])


def test_bi_dissipative_left_shift_passes():
    g, gen, fam = _left_shift_setup()
    samples = sample_functions(g, 6, seed=0, vanish_left=True)
    rep = check_bi_dissipative(gen, fam, samples, [0.1, 1.0, 10.0])
    assert rep.passed, [w.to_dict() for w in rep.witnesses[:3]]


def test_bi_dissipative_laplacian_fails_with_witness():
    g = Grid(-2.0, 2.0, 4000)
    gen = laplacian_generator()
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    f = GridFunction.from_callable(g, lambda x: x ** 2)
    rep = check_bi_dissipative(gen, fam, [("parabola", f)], [1.0])
    assert not rep.passed
    pair = [(w.lhs, w.rhs) for w in rep.witnesses if w.n == 2]
    assert pair and pair[0][0] == pytest.approx(2.0, abs=1e-6)
    assert pair[0][1] == pytest.approx(4.0, abs=1e-12)


def test_bi_dissipative_evaluates_each_sample_seminorm_once(monkeypatch):
    # the ladder p_1..p_N of f is taken once and shared by every lambda, so
    # each sample costs one ladder pass for f plus one for the stack of
    # (lambda - A) f over all lambdas
    import semiflow.generation as generation

    shapes = []

    def counting_ladder(family, grid, values):
        shapes.append(np.shape(values))
        return seminorm_ladder(family, grid, values)

    monkeypatch.setattr(generation, "seminorm_ladder", counting_ladder)
    g = Grid(0.0, 10.0, 500)
    gen = left_shift_generator()
    fam = CompactSeminormFamily(WindowOrientation.RIGHT, 10)
    samples = sample_functions(g, 3, seed=0, vanish_left=True)
    lambdas = [0.5, 2.0]
    rep = check_bi_dissipative(gen, fam, samples, lambdas)
    assert rep.passed
    assert shapes == [(501,), (len(lambdas), 501)] * len(samples)


def test_bi_dissipative_zero_sample():
    g, gen, fam = _left_shift_setup(500)
    z = GridFunction(g, np.zeros(501))
    rep = check_bi_dissipative(gen, fam, [("zero", z)], [1.0])
    assert rep.passed


def test_contraction_left_shift_ones_closed_form():
    g, gen, fam = _left_shift_setup()
    ones = GridFunction(g, np.ones(g.n_cells + 1))
    f = gen.resolve(1.0, ones)
    val = eval_pn(fam, 3, f)
    assert val == pytest.approx(ONE_MINUS_E_MINUS_3, abs=1e-6)
    rep = check_resolvent_contraction(gen, fam, [("ones", ones)], [1.0])
    assert rep.passed


def test_contraction_zero_input():
    g, gen, fam = _left_shift_setup(500)
    z = GridFunction(g, np.zeros(501))
    rep = check_resolvent_contraction(gen, fam, [("zero", z)], [0.5, 5.0])
    assert rep.passed


def test_windowed_contraction_counterexample_ramp():
    # the plateau ramp vanishes on the window yet its resolvent does not:
    # no single-window comparison chain can control the resolvent
    g = Grid(-10.0, 0.0, 4000)
    fam = CompactSeminormFamily(WindowOrientation.LEFT, 2)
    ramp = GridFunction(g, np.clip(-g.nodes - 2.0, 0.0, 1.0))
    assert eval_pn(fam, 2, ramp) == 0.0
    rf = right_translation_resolvent(1.0, ramp)
    p1 = eval_pn(fam, 1, rf)
    assert p1 >= E_MINUS_3 - 1e-6
    assert p1 > 0.0


def test_contraction_reports_ramp_witnesses():
    # p_1 and p_2 of the plateau ramp vanish, while its half-line resolvent
    # is e^{-1}(1 - e^{-1}) at x = -1 and 1 - e^{-1} at x = -2
    g = Grid(-10.0, 0.0, 2000)
    gen = right_translation_generator()
    fam = CompactSeminormFamily(WindowOrientation.LEFT, 2)
    rep = check_resolvent_contraction(gen, fam, [("ramp", plateau_ramp(g, 2))], [1.0])
    assert not rep.passed
    assert [(w.input_id, w.lam, w.n, w.rhs) for w in rep.witnesses] == [
        ("ramp", 1.0, 1, 0.0), ("ramp", 1.0, 2, 0.0)]
    one_minus = 1.0 - np.exp(-1.0)
    assert rep.witnesses[0].lhs == pytest.approx(np.exp(-1.0) * one_minus, abs=1e-9)
    assert rep.witnesses[1].lhs == pytest.approx(one_minus, abs=1e-9)


def test_hy_powers_upwind_passes():
    m = upwind_discretize(100, 0.01)
    rep = check_hy_powers(m, [1.0], 20)
    assert rep.passed and not rep.witnesses
    assert rep.parameters == {"size": 100, "lambdas": [1.0], "n_max": 20}


def test_hy_powers_single_power_closed_form():
    h = 2.0
    m = upwind_discretize(1, h)
    lam = 0.75
    rep = check_hy_powers(m, [lam], 1)
    assert rep.passed
    # ||R|| = 1/(lam + 1/h) <= 1/lam, equality approached as h grows
    r = np.linalg.inv(lam * np.eye(1) - m)
    assert r[0, 0] == pytest.approx(1.0 / (lam + 1.0 / h), rel=1e-12)


def test_hy_powers_flags_violations():
    nilpotent = np.array([[0.0, 3.0], [0.0, 0.0]])  # not dissipative
    rep = check_hy_powers(nilpotent, [0.5], 3)
    assert not rep.passed
    assert rep.witnesses


def test_subdifferential_interior_max():
    g, gen, fam = _left_shift_setup()
    f = smooth_bump(g, 3.0, 1.5)
    rep = subdifferential_test(gen, fam, f, 5)
    assert rep.passed


def test_subdifferential_boundary_max():
    g, gen, fam = _left_shift_setup()
    f = GridFunction.from_callable(g, lambda x: np.tanh(x))  # increasing
    rep = subdifferential_test(gen, fam, f, 5)
    assert rep.passed


def test_subdifferential_laplacian_concave_peak():
    # downward parabola whose peak dominates the window: the functional sits
    # at the interior maximum and reads off the curvature, -2 <= 0
    g = Grid(-2.0, 2.0, 2000)
    gen = laplacian_generator()
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    f = GridFunction.from_callable(g, lambda x: 4.0 - x ** 2)
    rep = subdifferential_test(gen, fam, f, 2)
    assert rep.passed
    assert rep.parameters["location"] == pytest.approx(0.0, abs=1e-12)
    assert rep.parameters["pairing"] == pytest.approx(4.0, abs=1e-12)
    assert rep.parameters["generator_pairing"] == pytest.approx(-2.0, abs=1e-6)


def test_subdifferential_reports_the_first_of_two_maximal_nodes():
    # |f| = 1 at x = -0.5 and x = 0.5 inside window 1 = [-1, 1], which starts
    # at node 100; the larger value at x = -1.5 lies outside it
    g = Grid(-2.0, 2.0, 400)
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    values = np.zeros(401)
    values[[50, 150, 250]] = [3.0, -1.0, 1.0]
    rep = subdifferential_test(laplacian_generator(), fam, GridFunction(g, values), 1)
    assert rep.parameters["location"] == g.nodes[150] == -0.5
    assert rep.parameters["sign"] == -1.0 and rep.parameters["pairing"] == 1.0


def test_subdifferential_laplacian_edge_max_fails():
    # when |f| peaks at the window edge the same functional exposes the
    # second derivative's positive pairing: the check reports a witness
    g = Grid(-2.0, 2.0, 2000)
    gen = laplacian_generator()
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    f = GridFunction.from_callable(g, lambda x: -(x ** 2))
    rep = subdifferential_test(gen, fam, f, 2)
    assert not rep.passed
    assert rep.parameters["location"] == pytest.approx(-2.0, abs=1e-12)


def test_verdict_left_shift_generator():
    g, gen, fam = _left_shift_setup()
    samples = sample_functions(g, 5, seed=0, vanish_left=True)
    probes = sample_functions(g, 3, seed=9)
    rep = lumer_phillips_verdict(gen, fam, samples, [0.1, 1.0, 10.0], probes)
    assert rep.passed
    names = [s.check_name for s in rep.sub_reports]
    assert "bi_dissipative" in names and "range_density_probe" in names


def test_verdict_range_leg_reports_domain_and_range_witnesses():
    # g / lambda solves no resolvent equation of the shift: it breaks the
    # boundary condition f(0) = 0 and leaves a defect of order ||g'||
    g, ls, fam = _left_shift_setup()
    bad = Generator("bad_left_shift", ls.apply, lambda lam, h: h / lam,
                    ls.domain_check)
    samples = sample_functions(g, 2, seed=0, vanish_left=True)
    probes = sample_functions(g, 2, seed=1)
    rep = lumer_phillips_verdict(bad, fam, samples, [1.0], probes)
    dissipative, range_leg = rep.sub_reports
    assert dissipative.check_name == "bi_dissipative" and dissipative.passed
    assert range_leg.check_name == "range_density_probe" and not range_leg.passed
    kinds = {w.input_id.split(":")[0] for w in range_leg.witnesses}
    assert kinds == {"domain", "range"}


@pytest.mark.parametrize("lam", [1e154, 1e300], ids=["product_overflow", "square_overflow"])
def test_verdict_rejects_lambda_whose_range_budget_overflows(lam):
    # 10 (1 + lambda)^2 h^2 is inf at 1e154 and raises OverflowError at
    # 1e300; an infinite budget would pass any defect, so the verdict
    # refuses the lambda before it solves anything
    g, ls, fam = _left_shift_setup(200)

    def unreachable(lam, f):
        raise AssertionError("solved before the budget was checked")

    gen = Generator("left_shift", ls.apply, unreachable, ls.domain_check)
    samples = sample_functions(g, 2, seed=0, vanish_left=True)
    probes = sample_functions(g, 2, seed=1)
    message = f"lambda = {lam!r} is too large for the range probe: its tolerance "
    with pytest.raises(ValueError, match=re.escape(message)):
        lumer_phillips_verdict(gen, fam, samples, [1.0, lam], probes)
    # without range probes there is no budget to overflow
    assert lumer_phillips_verdict(gen, fam, samples, [lam]).passed


def test_verdict_rejects_no_samples():
    # a certificate over no input would pass vacuously, and so would each of
    # the two seminorm checks
    g, gen, fam = _left_shift_setup(n_cells=200)
    probes = sample_functions(g, 2, seed=1)
    with pytest.raises(ValueError, match="at least one sample"):
        lumer_phillips_verdict(gen, fam, [], [1.0], probes)
    for check in (check_bi_dissipative, check_resolvent_contraction):
        with pytest.raises(ValueError, match="at least one sample"):
            check(gen, fam, [], [1.0])


def test_verdict_rejects_no_lambdas():
    # with no lambda the dissipativity leg compares nothing, so even the
    # second derivative, which generates no contraction semigroup, would pass
    g = Grid(-2.0, 2.0, 400)
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    samples = [("parabola", GridFunction.from_callable(g, lambda x: x ** 2))]
    with pytest.raises(ValueError, match="at least one lambda"):
        lumer_phillips_verdict(laplacian_generator(), fam, samples, [])


def test_bi_dissipative_rejects_a_grid_whose_tolerance_certifies_nothing():
    # with 10 h^2 >= 1/2 the test lhs < rhs (1 - 10 h^2) lets lhs fall to half
    # of rhs, so the parabola (p_2 lhs 2 against rhs 4) would pass on 12 to 17
    # cells of [-2, 2]; 18 cells is the coarsest grid on which it fails
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    gen = laplacian_generator()
    for n_cells in (4, 12, 13, 17):
        g = Grid(-2.0, 2.0, n_cells)
        samples = [("parabola", GridFunction.from_callable(g, lambda x: x ** 2))]
        message = f"grid step h = {g.h} gives the relative tolerance 10 h^2 = {10 * g.h ** 2}"
        for check in (check_bi_dissipative, lumer_phillips_verdict):
            with pytest.raises(ValueError, match=re.escape(message)):
                check(gen, fam, samples, [1.0])
    for n_cells in (18, 400):
        g = Grid(-2.0, 2.0, n_cells)
        samples = [("parabola", GridFunction.from_callable(g, lambda x: x ** 2))]
        assert not check_bi_dissipative(gen, fam, samples, [1.0]).passed


def test_bi_dissipative_rejects_a_lambda_whose_shift_overflows():
    # lambda f overflows where f = x^2 > 1.8, so (lambda - A) f has no finite
    # node values to take seminorms of
    g = Grid(-2.0, 2.0, 400)
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    samples = [("parabola", GridFunction.from_callable(g, lambda x: x ** 2))]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="node values must be finite"):
        check_bi_dissipative(laplacian_generator(), fam, samples, [1.0, 1e308])


def test_verdict_laplacian_fails_first_leg():
    g = Grid(-2.0, 2.0, 4000)
    gen = laplacian_generator()
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    samples = [("parabola", GridFunction.from_callable(g, lambda x: x ** 2))]
    rep = lumer_phillips_verdict(gen, fam, samples, [1.0], [])
    assert not rep.passed
    leg1 = [s for s in rep.sub_reports if s.check_name == "bi_dissipative"][0]
    assert not leg1.passed


def test_report_serialization_round_trip_keys():
    w = Witness("input", 1.0, 2, 1.5, 2.5)
    d = w.to_dict()
    assert d == {"input_id": "input", "lambda": 1.0, "n": 2,
                 "lhs": 1.5, "rhs": 2.5}
    rep = CheckReport("demo", {"p": 1}, 1e-9, [w],
                      [CheckReport("leaf", {}, 0.0, [])])
    doc = rep.to_dict()
    assert doc["check_name"] == "demo"
    assert doc["passed"] is False
    assert doc["sub_reports"][0]["check_name"] == "leaf"
    assert doc["sub_reports"][0]["passed"] is True
