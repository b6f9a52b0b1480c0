"""Cyclic-vector machinery: iterated covariant derivatives, Wronskians,
generation indices, the generation-number bound, scalar equation
extraction, Fuchs checks, residue identities and apparent singularities.

The scalar equation is kept in the normalized form
y^(alpha) = sum_k c_k y^(k); the top log-derivative coefficient
c_{alpha-1} equals A'/A + tr M exactly, where A is the Wronskian.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .bundle import (
    Divisor,
    Section,
    _monomial_basis,
    chern,
    section_space_basis,
)
from .connection import Connection, covariant_derivative
from .errors import (
    DegenerateSection,
    NotCyclic,
    SingularEvaluationPoint,
    SingularMatrix,
    ZeroSection,
)
from .exactalg import (
    GaussRat,
    Poly,
    RatFun,
    _coerce,
    _row_echelon,
    det_ratfun,
    linear_root,
    max_zero_multiplicity,
    rational_roots,
    residue,
    solve_linear,
    squarefree_decompose,
    valuation,
)

__all__ = [
    "ScalarODE", "ApparentReport", "ApparentRecord", "HBoundReport",
    "ResidueCheckRecord", "iterated", "wronskian_determinant", "h_bound",
    "generation_bound", "generation_index_at", "estimate_H", "cyclic_reduce",
    "fuchs_check", "residue_identity_check", "apparent_singularities",
    "spanning_sections",
]


@dataclass(frozen=True)
class ScalarODE:
    """y^(order) = sum_k coeffs[k] * y^(k), coefficients reduced."""

    order: int
    coeffs: tuple

    def __init__(self, order, coeffs):
        coeffs = tuple(coeffs)
        if order < 1 or len(coeffs) != order:
            raise ValueError("need one coefficient per derivative below the order")
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "coeffs", coeffs)

    def ceval_coeffs(self, z: complex):
        return [c.ceval(z) for c in self.coeffs]


def iterated(conn: Connection, section: Section, k: int):
    """[omega, grad omega, ..., grad^k omega]."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = [section]
    for _ in range(k):
        out.append(covariant_derivative(conn, out[-1]))
    return out


def wronskian_determinant(conn: Connection, section: Section) -> RatFun:
    """Determinant of the matrix whose columns are the first rank iterates."""
    if section.is_zero():
        raise ZeroSection("Wronskian of the zero section")
    n = conn.rank
    cols = iterated(conn, section, n - 1)
    if n == 1:
        return cols[0].comps[0]
    rows = [[cols[j].comps[i] for j in range(n)] for i in range(n)]
    return det_ratfun(rows)


def h_bound(conn: Connection, n: int) -> int:
    """Upper bound for the generation number of degree-n sections of an
    irreducible connection."""
    if n < 0:
        raise ValueError("n must be >= 0")
    alpha = conn.rank
    total_m = sum(m for _, m in conn.divisor.finite_entries())
    return ((alpha - 1) * total_m + alpha * (n + 1)
            - alpha * (alpha - 1) // 2 + chern(conn.splitting))


def generation_bound(conn: Connection, section: Section) -> int:
    """mu + alpha, where mu is the largest zero multiplicity of the
    Wronskian away from the singular set; certifies that the first mu+alpha
    iterates span every non-singular fiber."""
    a = wronskian_determinant(conn, section)
    if a.is_zero():
        raise DegenerateSection("Wronskian vanishes identically")
    mu, _ = max_zero_multiplicity(a, conn.singular_points)
    return mu + conn.rank


def generation_index_at(conn: Connection, section: Section, b) -> int:
    """Smallest h such that the first h iterates span the fiber at b."""
    b = _coerce(b)
    if b in set(conn.singular_points):
        raise SingularEvaluationPoint(f"t = {b} is a singular point")
    cap = generation_bound(conn, section)
    n = conn.rank
    vectors = []
    current = section
    for h in range(1, cap + 1):
        vectors.append(current.eval(b))
        pivots, _ = _row_echelon(list(vectors), n)
        if len(pivots) == n:
            return h
        current = covariant_derivative(conn, current)
    raise DegenerateSection(
        f"iterates do not span the fiber at t = {b} within the certified bound"
    )


def spanning_sections(conn: Connection, E: Divisor):
    """A basis of the section space in shifted form: monomial powers of
    (t - p) for a deterministic non-singular rational point p.  Spans the
    same space as section_space_basis and realizes the extremal zero
    multiplicities away from the singular set."""
    sing = set(conn.singular_points)
    k = 0
    while GaussRat(k) in sing:
        k += 1
    return _monomial_basis(conn.splitting, E, GaussRat(k))


@dataclass
class HBoundReport:
    n: int
    bound: int
    samples: int
    max_observed_generation: int
    witness: str
    violated: bool


def _rational_zeros(r: RatFun, excluded):
    """Certified Gaussian-rational zeros of r with multiplicities, skipping
    excluded points."""
    excluded = set(excluded)
    return [(root, mult) for root, mult in rational_roots(r.num)
            if root not in excluded]


def estimate_H(conn: Connection, n: int, E: Divisor, samples: int,
               seed: int) -> HBoundReport:
    """Sampled lower estimate of the generation number for degree-n
    sections, checked against the certified upper bound.

    The deterministic stream first walks the shifted spanning basis, then
    draws Gaussian-integer coefficient combinations from [-9,9]^2 with the
    given seed (zero draws rejected).
    """
    conn.ensure_valid()
    if E.degree > n:
        raise ValueError("the twisting divisor degree must be at most n")
    bound = h_bound(conn, n)
    alpha = conn.rank
    basis = section_space_basis(conn.splitting, E)
    span = spanning_sections(conn, E)
    rng = random.Random(seed)
    max_observed = alpha
    witness = ""
    sing = set(conn.singular_points)
    for k in range(samples):
        if k < len(span):
            omega = span[k]
        elif not basis:
            break
        else:
            while True:
                coeffs = [GaussRat(rng.randint(-9, 9), rng.randint(-9, 9))
                          for _ in basis]
                if any(c for c in coeffs):
                    break
            omega = Section([RatFun.const(0)] * alpha, conn.splitting)
            for c, b in zip(coeffs, basis):
                if c:
                    omega = omega + b.scale(RatFun.const(c))
        if omega.is_zero():
            continue
        a = wronskian_determinant(conn, omega)
        if a.is_zero():
            # reducibility witness; the sampled estimate ignores it
            continue
        observed = alpha
        for root, _ in _rational_zeros(a, sing):
            observed = max(observed,
                           generation_index_at(conn, omega, root))
        if observed > max_observed:
            max_observed = observed
            witness = str(omega)
    return HBoundReport(n=n, bound=bound, samples=samples,
                        max_observed_generation=max_observed,
                        witness=witness, violated=max_observed > bound)


def cyclic_reduce(conn: Connection, section: Section) -> ScalarODE:
    """Scalar equation satisfied by every pairing of a flat dual section
    with the given section: solve [grad^0 w ... grad^(a-1) w] c = grad^a w."""
    alpha = conn.rank
    its = iterated(conn, section, alpha)
    if wronskian_determinant(conn, section).is_zero():
        raise NotCyclic("the section is not cyclic (Wronskian vanishes)")
    mat = [[its[j].comps[i] for j in range(alpha)] for i in range(alpha)]
    rhs = [its[alpha].comps[i] for i in range(alpha)]
    try:
        coeffs = solve_linear(mat, rhs)
    except SingularMatrix as exc:  # pragma: no cover - guarded above
        raise NotCyclic(str(exc)) from exc
    return ScalarODE(alpha, coeffs)


def fuchs_check(ode: ScalarODE, points):
    """Per-point regularity test: the coefficient of y^(k) may have a pole
    of order at most order - k."""
    verdicts = []
    for b in points:
        b = _coerce(b)
        worst = []
        ok = True
        for k, c in enumerate(ode.coeffs):
            if c.is_zero():
                continue
            pole = max(0, -valuation(c, b))
            allowed = ode.order - k
            if pole > allowed:
                ok = False
                worst.append((k, pole, allowed))
        verdicts.append((b, ok, worst))
    return verdicts


@dataclass
class ResidueCheckRecord:
    point: GaussRat
    lhs: GaussRat          # residue of the log-derivative coefficient
    rhs: GaussRat          # valuation of the Wronskian (+ tr M residue on C)
    in_divisor: bool
    equal: bool


def residue_identity_check(conn: Connection, section: Section):
    """Exact identity res(c_{alpha-1}, b) = val(A, b) away from the divisor,
    with the tr M residue correction at divisor points."""
    ode = cyclic_reduce(conn, section)
    p1 = ode.coeffs[-1]
    a = wronskian_determinant(conn, section)
    tr = conn.trace()
    sing = list(conn.singular_points)
    points = []
    seen = set()
    for poly in (a.num, a.den):
        if poly.deg <= 0:
            continue
        for root, _ in rational_roots(poly):
            if root not in seen:
                seen.add(root)
                points.append(root)
    for c in sing:
        if c not in seen:
            seen.add(c)
            points.append(c)
    records = []
    for b in points:
        val = valuation(a, b)
        lhs = residue(p1, b)
        if b in set(sing):
            rhs = GaussRat(val) + residue(tr, b)
            in_div = True
        else:
            rhs = GaussRat(val)
            in_div = False
        records.append(ResidueCheckRecord(point=b, lhs=lhs, rhs=rhs,
                                          in_divisor=in_div, equal=lhs == rhs))
    return records


@dataclass
class ApparentRecord:
    location: object       # GaussRat when exact, complex otherwise
    val_wronskian: int
    res_log_coeff: object  # GaussRat when exact, complex otherwise
    phi_bound: object
    exact: bool


@dataclass
class ApparentReport:
    records: list

    def exact_records(self):
        return [r for r in self.records if r.exact]


def apparent_singularities(conn: Connection, section: Section) -> ApparentReport:
    """Classify the zeros of the Wronskian away from the divisor: exact
    records at Gaussian-rational zeros, clustered double-precision records
    (flagged) elsewhere."""
    ode = cyclic_reduce(conn, section)
    p1 = ode.coeffs[-1]
    a = wronskian_determinant(conn, section)
    alpha = conn.rank
    sing = set(conn.singular_points)
    records = []
    for factor, mult in squarefree_decompose(a.num):
        for root, _ in rational_roots(factor):
            factor = factor // Poly([-root, GaussRat(1)])
            if root in sing:
                continue
            res = residue(p1, root)
            phi = int(res.re) + alpha - 1 if res.im == 0 and res.re.denominator == 1 \
                else res + GaussRat(alpha - 1)
            records.append(ApparentRecord(location=root, val_wronskian=mult,
                                          res_log_coeff=res, phi_bound=phi,
                                          exact=True))
        if factor.deg >= 1:
            coeffs = [c.to_complex() for c in reversed(factor.coeffs)]
            roots = np.roots(coeffs)
            # squarefree factors have simple roots; cluster defensively
            kept = []
            for z in sorted(roots, key=lambda z: (z.real, z.imag)):
                if all(abs(z - w) > 1e-8 for w in kept):
                    kept.append(complex(z))
            for z in kept:
                num, den = p1.num, p1.den
                resz = num.ceval(z) / den.derivative().ceval(z)
                records.append(ApparentRecord(location=z, val_wronskian=mult,
                                              res_log_coeff=resz,
                                              phi_bound=resz.real + alpha - 1,
                                              exact=False))
    return ApparentReport(records=records)
