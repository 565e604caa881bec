"""Dissipativity and generation certificates.

Each check evaluates an inequality family on concrete inputs and returns a
:class:`CheckReport` whose witnesses record every violating tuple.  The
checks split into two precision classes:

* exact-arithmetic claims (matrix resolvent bounds, panel-exact resolvent
  contraction): default tolerances 1e-9 .. 1e-10;
* discretized-operator claims (anything applying a difference stencil):
  default tolerance 10 h^2 relative, the documented scheme error.

``lumer_phillips_verdict`` combines the seminorm-wise dissipativity check
with a range/surjectivity probe into a single generation verdict, the
numerical counterpart of proving that a dissipative operator with dense
range of (lambda - A) generates a contraction semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .grid import GridFunction, window_mask
from .operators import Generator, UpwindMatrix
from .samples import probe_functions
from .seminorms import CompactSeminormFamily, eval_pn, grid_in_window

SampleLike = Union[GridFunction, tuple[str, GridFunction]]


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


@dataclass(frozen=True)
class PointFunctional:
    """Evaluation functional f -> sign * f(location) at a grid node."""

    location: float
    sign: float

    def pair(self, f: GridFunction) -> float:
        nodes = f.grid.nodes
        i = int(round((self.location - f.grid.a) / f.grid.h))
        if not 0 <= i <= f.grid.n_cells or abs(nodes[i] - self.location) > 1e-9 * max(1.0, f.grid.h):
            raise ValueError(f"location {self.location} is not a grid node")
        return self.sign * float(f.values[i])


def _with_ids(samples: Sequence[SampleLike]) -> list[tuple[str, GridFunction]]:
    out = []
    for k, s in enumerate(samples):
        if isinstance(s, GridFunction):
            out.append((f"sample:k={k}", s))
        else:
            out.append((s[0], s[1]))
    return out


def _check_domain(gen: Generator, samples: list[tuple[str, GridFunction]]) -> None:
    for k, (sid, f) in enumerate(samples):
        if not gen.domain_check(f):
            raise ValueError(
                f"sample {k} ('{sid}') is outside the domain of '{gen.label}'")


def check_dissipative(gen: Generator, samples: Sequence[SampleLike],
                      lambdas: Sequence[float],
                      rel_tol: float = 1e-9) -> CheckReport:
    """Sup-norm dissipativity: ||(lambda - A) f|| >= lambda ||f|| for every
    domain sample and every lambda, up to the relative tolerance."""
    named = _with_ids(samples)
    _check_domain(gen, named)
    witnesses = []
    for sid, f in named:
        af = gen.apply(f)
        for lam in lambdas:
            if not lam > 0:
                raise ValueError("lambda values must be positive")
            lhs = (f * lam - af).norm()
            rhs = lam * f.norm()
            if lhs < rhs * (1.0 - rel_tol):
                witnesses.append(Witness(sid, float(lam), None, lhs, rhs))
    return CheckReport(
        "dissipative",
        {"generator": gen.label, "lambdas": list(map(float, lambdas)),
         "n_samples": len(named)},
        rel_tol, witnesses)


def check_bi_dissipative(gen: Generator, family: CompactSeminormFamily,
                         samples: Sequence[SampleLike], lambdas: Sequence[float],
                         rel_tol: Optional[float] = None) -> CheckReport:
    """Seminorm-wise dissipativity: p_n((lambda - A) f) >= lambda p_n(f) for
    every window index, sample and lambda.

    The default tolerance is 10 h^2 relative (difference-stencil claim).
    Samples whose grid lies inside the largest window are additionally
    required to have zero norming residual: there the family already
    recovers the sup norm exactly.
    """
    named = _with_ids(samples)
    _check_domain(gen, named)
    witnesses = []
    tol = rel_tol
    for sid, f in named:
        if tol is None:
            tol = 10.0 * f.grid.h ** 2
        if grid_in_window(family, f):
            best = max(eval_pn(family, n, f) for n in range(1, family.max_index + 1))
            if abs(best - f.norm()) > 1e-12:
                witnesses.append(Witness(f"norming:{sid}", None, family.max_index,
                                         best, f.norm()))
        af = gen.apply(f)
        for lam in lambdas:
            if not lam > 0:
                raise ValueError("lambda values must be positive")
            shifted = f * lam - af
            for n in range(1, family.max_index + 1):
                lhs = eval_pn(family, n, shifted)
                rhs = lam * eval_pn(family, n, f)
                if lhs < rhs * (1.0 - tol):
                    witnesses.append(Witness(sid, float(lam), n, lhs, rhs))
    return CheckReport(
        "bi_dissipative",
        {"generator": gen.label, "orientation": family.orientation.value,
         "max_index": family.max_index, "lambdas": list(map(float, lambdas)),
         "n_samples": len(named)},
        float(tol if tol is not None else 0.0), witnesses)


def check_resolvent_contraction(gen: Generator, family: CompactSeminormFamily,
                                samples: Sequence[SampleLike],
                                lambdas: Sequence[float],
                                abs_tol: float = 1e-9) -> CheckReport:
    """Windowed resolvent contraction: lambda p_n(R(lambda) f) <= p_n(f) + tol
    for every window index, sample and lambda.  The panel-exact quadrature
    makes this hold structurally for the shift; failures are genuine
    counterexamples (e.g. the plateau ramp under the translation without a
    boundary condition)."""
    named = _with_ids(samples)
    witnesses = []
    for sid, f in named:
        for lam in lambdas:
            rf = gen.resolve(lam, f)
            for n in range(1, family.max_index + 1):
                lhs = lam * eval_pn(family, n, rf)
                rhs = eval_pn(family, n, f)
                if lhs > rhs + abs_tol:
                    witnesses.append(Witness(sid, float(lam), n, lhs, rhs))
    return CheckReport(
        "resolvent_contraction",
        {"generator": gen.label, "orientation": family.orientation.value,
         "max_index": family.max_index, "lambdas": list(map(float, lambdas)),
         "n_samples": len(named)},
        abs_tol, witnesses)


def check_hy_powers(matrix: UpwindMatrix, lambdas: Sequence[float], n_max: int,
                    rel_tol: float = 1e-10) -> CheckReport:
    """Resolvent power bounds for the upwind matrix:

        || (lambda - A)^{-n} ||_inf  <=  (1 + tol) / lambda^n,  n = 1..n_max.
    """
    if int(n_max) != n_max or n_max < 1:
        raise ValueError("n_max must be an integer >= 1")
    a = matrix.matrix
    eye = np.eye(matrix.size)
    witnesses = []
    for lam in lambdas:
        if not lam > 0:
            raise ValueError("lambda values must be positive")
        r = np.linalg.solve(lam * eye - a, eye)
        power = eye
        for n in range(1, int(n_max) + 1):
            power = power @ r
            norm = float(np.max(np.sum(np.abs(power), axis=1)))
            bound = lam ** (-n)
            if norm > bound * (1.0 + rel_tol):
                witnesses.append(Witness(f"matrix:size={matrix.size}", float(lam),
                                         n, norm, bound))
    return CheckReport(
        "hy_powers",
        {"size": matrix.size, "h": matrix.h,
         "lambdas": list(map(float, lambdas)), "n_max": int(n_max)},
        rel_tol, witnesses)


def subdifferential_test(gen: Generator, family: CompactSeminormFamily,
                         f: GridFunction, n: int, probes: int = 100,
                         seed: int = 0, tol: Optional[float] = None) -> CheckReport:
    """Pointwise dissipativity witness via a norming functional.

    Scans the n-th window for the first node (increasing x) where |f|
    attains p_n(f), builds the evaluation functional phi there with the sign
    of f, verifies the two membership conditions (the pairing reproduces
    p_n(f); probe pairings are dominated by the sup norm), then requires

        <A f, phi>  <=  tol.

    p_n(f) must be positive.  The default tolerance is the difference-stencil
    budget 10 h^2 (1 + ||A f||).
    """
    pn = eval_pn(family, n, f)
    if not pn > 0:
        raise ValueError("subdifferential test needs p_n(f) > 0")
    g = f.grid
    idx_window = np.nonzero(window_mask(g, *family.window(n)))[0]
    absvals = np.abs(f.values[idx_window])
    i_local = int(np.argmax(absvals == np.max(absvals)))
    i = int(idx_window[i_local])
    location = float(g.nodes[i])
    sign = 1.0 if f.values[i] >= 0 else -1.0
    phi = PointFunctional(location, sign)

    witnesses = []
    pairing = phi.pair(f)
    if abs(pairing - pn) > 1e-12 * max(1.0, pn):
        witnesses.append(Witness("membership:pairing", None, n, pairing, pn))
    for k, y in enumerate(probe_functions(g, probes, seed)):
        if abs(phi.pair(y)) > y.norm():
            witnesses.append(Witness(f"membership:probe:k={k}", None, n,
                                     abs(phi.pair(y)), y.norm()))
    af = gen.apply(f)
    if tol is None:
        tol = 10.0 * g.h ** 2 * (1.0 + af.norm())
    value = phi.pair(af)
    if value > tol:
        witnesses.append(Witness("generator_pairing", None, n, value, tol))
    return CheckReport(
        "subdifferential",
        {"generator": gen.label, "n": int(n), "location": location,
         "sign": sign, "pairing": pairing, "generator_pairing": value,
         "probes": int(probes), "probe_seed": int(seed)},
        float(tol), witnesses)


def lumer_phillips_verdict(gen: Generator, family: CompactSeminormFamily,
                           samples: Sequence[SampleLike],
                           lambdas: Sequence[float],
                           surjectivity_probes: Sequence[SampleLike] = ()
                           ) -> CheckReport:
    """Generation verdict: seminorm-wise dissipativity plus a surjectivity
    probe of (lambda - A).

    The surjectivity leg solves f = R(lambda) g for each probe g, requires f
    to satisfy the domain predicate and the defect ||lambda f - A f - g|| to
    stay within the consistency budget of the discretization,
    10 (1 + lambda)^2 h^2 relative.  A verdict over no sample certifies
    nothing, so an empty sample list is rejected.
    """
    if not samples:
        raise ValueError("the generation verdict needs at least one sample")
    sub = [check_bi_dissipative(gen, family, samples, lambdas)]
    witnesses = []
    named_probes = _with_ids(surjectivity_probes)
    if named_probes and gen.has_resolvent:
        range_witnesses = []
        tol_used = 0.0
        for sid, g in named_probes:
            for lam in lambdas:
                fsol = gen.resolve(lam, g)
                tol = 10.0 * (1.0 + lam) ** 2 * g.grid.h ** 2 * max(1.0, g.norm())
                tol_used = max(tol_used, tol)
                if not gen.domain_check(fsol):
                    range_witnesses.append(Witness(f"domain:{sid}", float(lam),
                                                   None, 1.0, 0.0))
                defect = (fsol * lam - gen.apply(fsol) - g).norm()
                if defect > tol:
                    range_witnesses.append(Witness(f"range:{sid}", float(lam),
                                                   None, defect, tol))
        sub.append(CheckReport(
            "range_density_probe",
            {"generator": gen.label, "lambdas": list(map(float, lambdas)),
             "n_probes": len(named_probes)},
            tol_used, range_witnesses))
    elif named_probes:
        witnesses.append(Witness("range:resolvent_unavailable", None, None, 1.0, 0.0))
    return CheckReport(
        "lumer_phillips",
        {"generator": gen.label, "lambdas": list(map(float, lambdas))},
        sub[0].tolerance, witnesses, sub)


__all__ = [
    "Witness", "CheckReport", "PointFunctional",
    "check_dissipative", "check_bi_dissipative", "check_resolvent_contraction",
    "check_hy_powers", "subdifferential_test", "lumer_phillips_verdict",
]
