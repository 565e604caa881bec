"""Dissipativity and generation certificates.

Each check evaluates an inequality family on concrete inputs and returns a
:class:`CheckReport` whose witnesses record every violating tuple.  The
checks split into two precision classes:

* exact-arithmetic claims: 1e-9 absolute for the panel-exact resolvent
  contraction and 1e-10 relative (the default) for the matrix
  resolvent-power bounds;
* discretized-operator claims (anything applying a difference stencil):
  10 h^2 relative, the documented scheme error.

Dissipativity is checked seminorm by seminorm (``check_bi_dissipative``),
the form the bi-continuous Lumer-Phillips theorem asks for.
``lumer_phillips_verdict`` combines that check with a range/surjectivity
probe into a single generation verdict, the numerical counterpart of
proving that a dissipative operator with dense range of (lambda - A)
generates a contraction semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .grid import GridFunction, check_integer, check_lambdas, window_runs
from .operators import Generator
from .samples import probe_functions
from .seminorms import CompactSeminormFamily, eval_pn, seminorm_ladder


@dataclass(frozen=True)
class Witness:
    """One violating tuple: which input, which parameters, both sides."""

    input_id: str
    lam: Optional[float]
    n: Optional[int]
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {
            "input_id": self.input_id,
            "lambda": self.lam,
            "n": self.n,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class CheckReport:
    """Outcome of one certificate check; passed is true iff no witnesses."""

    check_name: str
    parameters: dict
    tolerance: float
    witnesses: list[Witness] = field(default_factory=list)
    sub_reports: list["CheckReport"] = field(default_factory=list)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.passed = not self.witnesses and all(r.passed for r in self.sub_reports)

    def to_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "parameters": self.parameters,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }
        if self.sub_reports:
            out["sub_reports"] = [r.to_dict() for r in self.sub_reports]
        return out


def _require_samples(samples: Sequence, what: str) -> None:
    """A check over no sample certifies nothing: reject an empty list."""
    if not samples:
        raise ValueError(f"{what} needs at least one sample")


def check_bi_dissipative(gen: Generator, family: CompactSeminormFamily,
                         samples: Sequence[tuple[str, GridFunction]],
                         lambdas: Sequence[float]) -> CheckReport:
    """Seminorm-wise dissipativity: p_n((lambda - A) f) >= lambda p_n(f) for
    every window index, sample and lambda.

    The tolerance is 10 h^2 relative (difference-stencil claim), with h the
    first sample's grid step; a grid with 10 h^2 >= 1/2 is rejected, since
    there an lhs at half its rhs passes (the parabola's under the laplacian)
    and the check certifies almost nothing.  At least one sample is
    required.  Each sample costs one seminorm ladder for f and one for the
    stack of (lambda - A) f over all lambdas, formed in place: at most two
    such stacks are held at once, this one with the ladder's |.| of it or
    with the next sample's lambda f, which replaces it.
    """
    _require_samples(samples, "the dissipativity check")
    lambdas = check_lambdas(lambdas)
    h = samples[0][1].grid.h
    tol = 10.0 * h ** 2
    if not tol < 0.5:
        raise ValueError(f"grid step h = {h} gives the relative tolerance 10 h^2 = "
                         f"{tol} >= 1/2, under which an lhs at half its rhs passes; "
                         "use a finer grid")
    for k, (sid, f) in enumerate(samples):
        if not gen.domain_check(f):
            raise ValueError(
                f"sample {k} ('{sid}') is outside the domain of '{gen.label}'")
    lams = np.array(lambdas)[:, None]
    witnesses = []
    for sid, f in samples:
        pf = seminorm_ladder(family, f.grid, f.values)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            shifted = f.values * lams
            shifted -= gen.apply(f).values
        if not np.all(np.isfinite(shifted)):
            raise ValueError("node values must be finite")
        lhs, rhs = seminorm_ladder(family, f.grid, shifted), lams * pf
        for i, n in zip(*np.nonzero(lhs < rhs * (1.0 - tol))):
            witnesses.append(Witness(sid, lambdas[i], int(n) + 1,
                                     float(lhs[i, n]), float(rhs[i, n])))
    return CheckReport(
        "bi_dissipative",
        {"generator": gen.label, "orientation": family.orientation.value,
         "max_index": family.max_index, "lambdas": lambdas,
         "n_samples": len(samples)},
        float(tol), witnesses)


def check_resolvent_contraction(gen: Generator, family: CompactSeminormFamily,
                                samples: Sequence[tuple[str, GridFunction]],
                                lambdas: Sequence[float]) -> CheckReport:
    """Windowed resolvent contraction: lambda p_n(R(lambda) f) <= p_n(f) + 1e-9
    for every window index, sample and lambda.  The panel-exact quadrature
    makes this hold structurally for the shift; failures are genuine
    counterexamples (e.g. the plateau ramp under the translation without a
    boundary condition).  At least one sample is required.  Each sample
    costs one seminorm ladder for f and one for the stack of R(lambda) f."""
    _require_samples(samples, "the resolvent contraction check")
    lambdas = check_lambdas(lambdas)
    abs_tol = 1e-9
    lams = np.array(lambdas)[:, None]
    witnesses = []
    for sid, f in samples:
        pf = seminorm_ladder(family, f.grid, f.values)
        resolved = np.stack([gen.resolve(lam, f).values for lam in lambdas])
        lhs = lams * seminorm_ladder(family, f.grid, resolved)
        for i, n in zip(*np.nonzero(lhs > pf + abs_tol)):
            witnesses.append(Witness(sid, lambdas[i], int(n) + 1,
                                     float(lhs[i, n]), float(pf[n])))
    return CheckReport(
        "resolvent_contraction",
        {"generator": gen.label, "orientation": family.orientation.value,
         "max_index": family.max_index, "lambdas": lambdas,
         "n_samples": len(samples)},
        abs_tol, witnesses)


def check_hy_powers(matrix: np.ndarray, lambdas: Sequence[float], n_max: int,
                    rel_tol: float = 1e-10) -> CheckReport:
    """Resolvent power bounds for a square matrix A, such as the upwind
    matrix of :func:`~semiflow.operators.upwind_discretize`:

        || (lambda - A)^{-n} ||_inf  <=  (1 + tol) / lambda^n,  n = 1..n_max.
    """
    n_max = check_integer(n_max, 1, "n_max must be an integer >= 1")
    lambdas = check_lambdas(lambdas)
    size = matrix.shape[0]
    eye = np.eye(size)
    witnesses = []
    for lam in lambdas:
        r = np.linalg.solve(lam * eye - matrix, eye)
        power = eye
        for n in range(1, n_max + 1):
            power = power @ r
            norm = float(np.max(np.sum(np.abs(power), axis=1)))
            bound = lam ** (-n)
            if norm > bound * (1.0 + rel_tol):
                witnesses.append(Witness(f"matrix:size={size}", lam,
                                         n, norm, bound))
    return CheckReport(
        "hy_powers", {"size": size, "lambdas": lambdas, "n_max": n_max},
        rel_tol, witnesses)


def subdifferential_test(gen: Generator, family: CompactSeminormFamily,
                         f: GridFunction, n: int) -> CheckReport:
    """Pointwise dissipativity witness via a norming functional.

    Scans the n-th window for the first node i (increasing x) where |f|
    attains p_n(f) and takes the evaluation functional phi = sign f(x_i)
    there, whose pairing with f is p_n(f) by construction.  Records its
    pairings with 100 probe functions of seed 0 against their sup norms (a
    node evaluation never exceeds the sup norm), then requires

        <A f, phi>  <=  tol.

    p_n(f) must be positive.  The tolerance is the difference-stencil budget
    10 h^2 (1 + ||A f||).
    """
    if not eval_pn(family, n, f) > 0:
        raise ValueError("subdifferential test needs p_n(f) > 0")
    g = f.grid
    start, stop = window_runs(g, *family.window(n))
    i = int(start + np.argmax(np.abs(f.values[start:stop])))
    location = float(g.nodes[i])
    sign = 1.0 if f.values[i] >= 0 else -1.0

    witnesses = []
    pairing = sign * float(f.values[i])
    probes, seed = 100, 0
    for k, y in enumerate(probe_functions(g, probes, seed)):
        if abs(float(y.values[i])) > y.norm():
            witnesses.append(Witness(f"membership:probe:k={k}", None, n,
                                     abs(float(y.values[i])), y.norm()))
    af = gen.apply(f)
    tol = 10.0 * g.h ** 2 * (1.0 + af.norm())
    value = sign * float(af.values[i])
    if value > tol:
        witnesses.append(Witness("generator_pairing", None, n, value, tol))
    return CheckReport(
        "subdifferential",
        {"generator": gen.label, "n": int(n), "location": location,
         "sign": sign, "pairing": pairing, "generator_pairing": value,
         "probes": probes, "probe_seed": seed},
        float(tol), witnesses)


def _range_tolerance(lam: float, g: GridFunction) -> float:
    """The range leg's consistency budget 10 (1 + lambda)^2 h^2 max(1, ||g||).
    ``ValueError`` where it overflows: an infinite budget passes any defect."""
    try:
        tol = 10.0 * (1.0 + lam) ** 2 * g.grid.h ** 2 * max(1.0, g.norm())
    except OverflowError:
        tol = math.inf
    if tol == math.inf:
        raise ValueError(f"lambda = {lam} is too large for the range probe: its "
                         "tolerance 10 (1 + lambda)^2 h^2 max(1, ||g||) overflows")
    return tol


def lumer_phillips_verdict(gen: Generator, family: CompactSeminormFamily,
                           samples: Sequence[tuple[str, GridFunction]],
                           lambdas: Sequence[float],
                           surjectivity_probes: Sequence[tuple[str, GridFunction]] = ()
                           ) -> CheckReport:
    """Generation verdict: seminorm-wise dissipativity plus a surjectivity
    probe of (lambda - A).

    The surjectivity leg solves f = R(lambda) g for each probe g, requires f
    to satisfy the domain predicate and the defect ||lambda f - A f - g|| to
    stay within the consistency budget of the discretization,
    10 (1 + lambda)^2 h^2 relative.  A verdict over no sample or no lambda
    certifies nothing, so an empty sample or lambda list is rejected, and so
    is a lambda whose range budget overflows, before any solve.
    """
    _require_samples(samples, "the generation verdict")
    lambdas = check_lambdas(lambdas)
    tols = [[_range_tolerance(lam, g) for lam in lambdas]
            for _, g in surjectivity_probes]
    sub = [check_bi_dissipative(gen, family, samples, lambdas)]
    if surjectivity_probes:
        range_witnesses = []
        tol_used = 0.0
        for (sid, g), probe_tols in zip(surjectivity_probes, tols):
            for lam, tol in zip(lambdas, probe_tols):
                fsol = gen.resolve(lam, g)
                tol_used = max(tol_used, tol)
                if not gen.domain_check(fsol):
                    range_witnesses.append(Witness(f"domain:{sid}", lam,
                                                   None, 1.0, 0.0))
                defect = float(np.max(np.abs(
                    fsol.values * lam - gen.apply(fsol).values - g.values)))
                if not math.isfinite(defect):
                    raise ValueError("node values must be finite")
                if defect > tol:
                    range_witnesses.append(Witness(f"range:{sid}", lam,
                                                   None, defect, tol))
        sub.append(CheckReport(
            "range_density_probe",
            {"generator": gen.label, "lambdas": lambdas,
             "n_probes": len(surjectivity_probes)},
            tol_used, range_witnesses))
    return CheckReport(
        "lumer_phillips",
        {"generator": gen.label, "lambdas": lambdas},
        sub[0].tolerance, [], sub)


__all__ = [
    "Witness", "CheckReport",
    "check_bi_dissipative", "check_resolvent_contraction",
    "check_hy_powers", "subdifferential_test", "lumer_phillips_verdict",
]
