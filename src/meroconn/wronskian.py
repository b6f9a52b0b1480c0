"""Cyclic-vector machinery: iterated covariant derivatives, Wronskians,
generation indices, the generation-number bound, scalar equation
extraction, Fuchs checks, residue identities and apparent singularities.

The scalar equation is kept in the normalized form
y^(alpha) = sum_k c_k y^(k); the top log-derivative coefficient
c_{alpha-1} equals A'/A + tr M exactly, where A is the Wronskian.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

from .bundle import (
    Divisor,
    Section,
    _monomial_basis,
    chern,
    section_space_basis,
)
from .connection import Connection, covariant_derivative, covariant_jet
from .errors import (
    DegenerateSection,
    InvalidArgument,
    NotCyclic,
    SingularEvaluationPoint,
    ZeroSection,
)
from .exactalg import (
    GaussRat,
    RatFun,
    _back_substitute,
    _coerce,
    _pivot_product,
    _root_factors,
    _row_echelon,
    det_ratfun,
    max_zero_multiplicity,
    rational_roots,
    residue,
    valuation,
)

__all__ = [
    "ScalarODE", "ApparentReport", "ApparentRecord", "HBoundReport",
    "ResidueCheckRecord", "iterated", "wronskian_determinant", "h_bound",
    "generation_bound", "generation_index_at", "estimate_H", "cyclic_reduce",
    "ode_residual", "fuchs_check", "residue_identity_check",
    "apparent_singularities", "spanning_sections",
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


def iterated(conn: Connection, section: Section, k: int):
    """[omega, grad omega, ..., grad^k omega]."""
    if k < 0:
        raise InvalidArgument(f"k must be >= 0, got {k}")
    out = [section]
    for _ in range(k):
        out.append(covariant_derivative(conn, out[-1]))
    return out


def wronskian_determinant(conn: Connection, section: Section) -> RatFun:
    """Determinant of the matrix whose columns are the first rank iterates."""
    if section.is_zero():
        raise ZeroSection("Wronskian of the zero section")
    n = conn.rank
    its = iterated(conn, section, n - 1)
    return det_ratfun([[its[j].comps[i] for j in range(n)] for i in range(n)])


def h_bound(conn: Connection, n: int) -> int:
    """Upper bound for the generation number of degree-n sections of an
    irreducible connection."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    alpha = conn.rank
    total_m = sum(m for _, m in conn.divisor.finite_entries())
    return ((alpha - 1) * total_m + alpha * (n + 1)
            - alpha * (alpha - 1) // 2 + chern(conn.splitting))


def _check_twist(n: int, E: Divisor):
    """Refuse a negative n and a twisting divisor of degree above n."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    if E.degree > n:
        raise InvalidArgument("the twisting divisor degree must be at most n")


def _generation_cap(conn: Connection, a: RatFun) -> int:
    """generation_bound from the section's Wronskian a."""
    if a.is_zero():
        raise DegenerateSection("Wronskian vanishes identically")
    mu, _ = max_zero_multiplicity(a, conn.singular_points)
    return mu + conn.rank


def generation_bound(conn: Connection, section: Section) -> int:
    """mu + alpha, where mu is the largest zero multiplicity of the
    Wronskian away from the singular set; certifies that the first mu+alpha
    iterates span every non-singular fiber."""
    return _generation_cap(conn, wronskian_determinant(conn, section))


def _index_at(conn: Connection, section: Section, b: GaussRat,
              cap: int) -> int:
    """Smallest h <= cap such that grad^0 w(b), ..., grad^(h-1) w(b) span
    the fiber at b, read from the section's Taylor jet at b (covariant_jet).

    A cap of ord_b W + rank always suffices, W the Wronskian: in a
    suitable flat frame near b the section's components vanish at b to
    distinct orders e_1 < ... < e_rank, the index is e_rank + 1, and
    e_rank - (rank - 1) <= sum_i (e_i - (i - 1)) = ord_b W."""
    # columns are the values grad^k w(b); the pivot columns are the first
    # values outside the span of the earlier ones
    values = covariant_jet(conn, section, b, cap)
    pivots, _ = _row_echelon([list(row) for row in zip(*values)], cap)
    if len(pivots) == conn.rank:
        return pivots[-1] + 1
    raise DegenerateSection(
        f"iterates do not span the fiber at t = {b} within the certified bound"
    )


def _evaluation_point(conn: Connection, sections, b) -> GaussRat:
    """b as an exact point, each part of a float read as the decimal Python
    prints it; refuses non-finite and singular points and section poles."""
    if not isinstance(b, (GaussRat, int, Fraction)):
        z = complex(b)
        if not cmath.isfinite(z):
            raise InvalidArgument(f"point {b} is not finite")
        b = GaussRat(Fraction(repr(z.real)), Fraction(repr(z.imag)))
    b = _coerce(b)
    if b in set(conn.singular_points):
        raise SingularEvaluationPoint(f"t = {b} is a singular point")
    if any(c.den.eval(b).is_zero() for s in sections for c in s.comps):
        raise SingularEvaluationPoint(f"t = {b} is a pole of the section")
    return b


def generation_index_at(conn: Connection, section: Section, b) -> int:
    """Smallest h such that the first h iterates span the fiber at b, read
    from the section's Taylor jet at b up to the cap ord_b W + rank."""
    b = _evaluation_point(conn, [section], b)
    a = wronskian_determinant(conn, section)
    if a.is_zero():
        raise DegenerateSection("Wronskian vanishes identically")
    return _index_at(conn, section, b, a.num.root_multiplicity(b) + conn.rank)


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


def estimate_H(conn: Connection, n: int, E: Divisor, samples: int,
               seed: int) -> HBoundReport:
    """Sampled lower estimate of the generation number for degree-n
    sections, checked against the certified upper bound.

    The deterministic stream first walks the shifted spanning basis, then
    draws Gaussian-integer coefficient combinations from [-9,9]^2 with the
    given seed (zero draws rejected).
    """
    conn.ensure_valid()
    _check_twist(n, E)
    bound = h_bound(conn, n)
    if samples < 0:
        raise InvalidArgument(f"samples must be >= 0, got {samples}")
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
        # the index at every rational zero b off the singular set, each
        # capped by its own multiplicity (see _index_at)
        observed = max((_index_at(conn, omega, b, mult + alpha)
                        for _, mult, roots, _ in _root_factors(a.num)
                        for b in roots if b not in sing), default=alpha)
        if observed > max_observed:
            max_observed = observed
            witness = str(omega)
    return HBoundReport(n=n, bound=bound, samples=samples,
                        max_observed_generation=max_observed,
                        witness=witness, violated=max_observed > bound)


def _reduce(conn: Connection, section: Section):
    """(Wronskian, scalar equation) of a section, from one elimination of
    its iterates [grad^0 w ... grad^(a-1) w | grad^a w]: the pivot count
    tests cyclicity, the signed pivot product is the Wronskian (det_ratfun
    finds the same pivots), and back-substitution gives the coefficients."""
    if section.is_zero():
        raise ZeroSection("Wronskian of the zero section")
    alpha = conn.rank
    its = iterated(conn, section, alpha)
    M = [[its[j].comps[i] for j in range(alpha + 1)] for i in range(alpha)]
    pivots, swaps = _row_echelon(M, alpha)
    if len(pivots) < alpha:
        raise NotCyclic("the section is not cyclic (Wronskian vanishes)")
    return (_pivot_product(M, alpha, swaps),
            ScalarODE(alpha, _back_substitute(M, alpha)))


def cyclic_reduce(conn: Connection, section: Section) -> ScalarODE:
    """Scalar equation satisfied by every pairing of a flat dual section
    with the given section."""
    return _reduce(conn, section)[1]


def ode_residual(conn: Connection, section: Section, ode: ScalarODE, t0):
    """grad^a w(b) - sum_k c_k(b) grad^k w(b) at the probe b, over Q(i): 0
    for the section's own equation; refuses a pole of the coefficients,
    such as an apparent singularity at a zero of the Wronskian."""
    conn.ensure_valid()
    b = _evaluation_point(conn, [section], t0)
    if any(c.den.eval(b).is_zero() for c in ode.coeffs):
        raise SingularEvaluationPoint(
            f"t = {b} is a pole of the scalar equation")
    *jet, top = covariant_jet(conn, section, b, conn.rank + 1)
    for c, values in zip(ode.coeffs, jet):
        cb = c.eval(b)
        top = [x - cb * v for x, v in zip(top, values)]
    return top


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
    a, ode = _reduce(conn, section)
    return _residue_records(conn, a, ode, _root_factors(a.num))


def _residue_records(conn: Connection, a: RatFun, ode: ScalarODE,
                     factors: list):
    p1 = ode.coeffs[-1]
    tr_res = conn.validate().trace_residues
    # rational zeros and poles of the Wronskian, then the divisor, each once
    points = dict.fromkeys([root for _, _, roots, _ in factors
                            for root in roots]
                           + [root for root, _ in rational_roots(a.den)]
                           + list(tr_res))
    records = []
    for b in points:
        in_div = b in tr_res
        lhs = residue(p1, b)
        rhs = GaussRat(valuation(a, b)) + tr_res.get(b, 0)
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


def apparent_singularities(conn: Connection, section: Section) -> ApparentReport:
    """Classify the zeros of the Wronskian away from the divisor: exact
    records at Gaussian-rational zeros, double-precision records (flagged
    inexact) at the others."""
    a, ode = _reduce(conn, section)
    return _apparent_report(conn, ode, _root_factors(a.num))


def _apparent_report(conn: Connection, ode: ScalarODE,
                     factors: list) -> ApparentReport:
    p1 = ode.coeffs[-1]
    alpha = conn.rank
    sing = set(conn.singular_points)
    records = []
    for _, mult, roots, other in factors:
        for root in roots:
            if root in sing:
                continue
            res = residue(p1, root)
            phi = int(res.re) + alpha - 1 if res.im == 0 and res.re.denominator == 1 \
                else res + GaussRat(alpha - 1)
            records.append(ApparentRecord(location=root, val_wronskian=mult,
                                          res_log_coeff=res, phi_bound=phi,
                                          exact=True))
        for z in other:
            resz = p1.num.ceval(z) / p1.den.derivative().ceval(z)
            records.append(ApparentRecord(location=z, val_wronskian=mult,
                                          res_log_coeff=resz,
                                          phi_bound=resz.real + alpha - 1,
                                          exact=False))
    return ApparentReport(records=records)
