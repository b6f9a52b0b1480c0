"""Splitting types, divisors and twist-aware sections of a bundle on the
projective line.

A rank-alpha bundle splits as a direct sum of line bundles O(a_i); sections
are stored as vectors of rational functions in the standard affine frame,
with the twist a_i entering only through the pole/zero bookkeeping at
infinity: a component r of the summand O(a_i) has pole order
infinity_degree(r) - a_i at infinity, so polynomials of degree <= a_i are
holomorphic there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InvalidArgument, ParseError, PoleOutsideAllowedSet,
                     ZeroSection)
from .exactalg import (
    GaussRat,
    Poly,
    RatFun,
    _coerce,
    infinity_degree,
    parse_gaussrat,
    rational_roots,
)

__all__ = [
    "INF",
    "SplittingType",
    "Divisor",
    "Section",
    "chern",
    "pole_profile",
    "section_space_basis",
    "parse_divisor",
]


class _Infinity:
    """Distinguished marker for the point at infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


@dataclass(frozen=True)
class SplittingType:
    """Chern degrees of the line summands O(a_1) + ... + O(a_alpha)."""

    twists: tuple

    def __init__(self, twists):
        ts = tuple(int(a) for a in twists)
        if not ts:
            raise ValueError("splitting type must have rank >= 1")
        object.__setattr__(self, "twists", ts)

    @property
    def rank(self) -> int:
        return len(self.twists)


def chern(s: SplittingType) -> int:
    """Total Chern degree: the sum of the twists."""
    return sum(s.twists)


class Divisor:
    """Effective divisor: pairwise-distinct points with positive orders.

    Points are Gaussian rationals or the INF marker.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        norm = []
        seen = set()
        for point, order in entries:
            if point is not INF:
                point = _coerce(point)
            order = int(order)
            if order < 1:
                raise InvalidArgument(f"divisor order must be >= 1, got {order}")
            if point in seen:
                raise InvalidArgument(f"duplicate divisor point {point}")
            seen.add(point)
            norm.append((point, order))
        self.entries = tuple(norm)

    @property
    def degree(self) -> int:
        return sum(order for _, order in self.entries)

    def finite_entries(self):
        return [(p, o) for p, o in self.entries if p is not INF]

    def order_at(self, point) -> int:
        if point is not INF:
            point = _coerce(point)
        return dict(self.entries).get(point, 0)

    def finite_support(self):
        return [p for p, _ in self.entries if p is not INF]

    def __eq__(self, other):
        return isinstance(other, Divisor) and set(self.entries) == set(other.entries)

    def __repr__(self):
        return "Divisor(" + ", ".join(f"{p}^{o}" for p, o in self.entries) + ")"

    def __str__(self):
        return ",".join(f"{p}^{o}" for p, o in self.entries)


def parse_divisor(text: str) -> Divisor:
    """Parse the textual divisor form, e.g. ``0^1,1^1,inf^2``."""
    entries = []
    text = text.strip()
    if not text:
        return Divisor([])
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "^" in chunk:
            point_s, order_s = chunk.rsplit("^", 1)
            try:
                order = int(order_s)
            except ValueError:
                raise ParseError(f"bad divisor order {order_s!r}")
        else:
            point_s, order = chunk, 1
        point_s = point_s.strip()
        point = INF if point_s == "inf" else parse_gaussrat(point_s)
        entries.append((point, order))
    return Divisor(entries)


@dataclass(frozen=True)
class Section:
    """Vector of rational functions in the standard affine frame."""

    comps: tuple
    splitting: SplittingType

    def __init__(self, comps, splitting: SplittingType):
        comps = tuple(comps)
        if len(comps) != splitting.rank:
            raise InvalidArgument("component count does not match the rank")
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "splitting", splitting)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other: "Section") -> "Section":
        return Section([a + b for a, b in zip(self.comps, other.comps)], self.splitting)

    def __neg__(self) -> "Section":
        return Section([-a for a in self.comps], self.splitting)

    def __sub__(self, other: "Section") -> "Section":
        return self + (-other)

    def scale(self, f) -> "Section":
        """Multiply every component by a scalar rational function."""
        return Section([c * f for c in self.comps], self.splitting)

    def eval(self, c):
        return [comp.eval(c) for comp in self.comps]

    def ceval(self, z: complex):
        return [comp.ceval(z) for comp in self.comps]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"


def _finite_pole_points(r: RatFun):
    """Exact Gaussian-rational poles of r with orders, plus any residual
    denominator factor whose roots are not Gaussian-rational."""
    den = r.den
    points = {}
    for root, _ in rational_roots(den):
        points[root], den = den.split_root(root)
    return points, den


def pole_profile(section: Section, allowed):
    """Pole orders of a section at finite points and (twist-aware) at
    infinity, together with its total degree.

    `allowed` is the set of finite points where poles are permitted; a pole
    anywhere else raises PoleOutsideAllowedSet naming the offenders.
    """
    if section.is_zero():
        raise ZeroSection("pole profile of the zero section")
    allowed = {_coerce(c) for c in allowed}
    orders: dict = {}
    offenders = []
    for comp in section.comps:
        if comp.is_zero():
            continue
        points, residual = _finite_pole_points(comp)
        if residual.deg > 0:
            offenders.append(f"roots of {residual}")
        for point, order in points.items():
            if point not in allowed:
                offenders.append(str(point))
            else:
                orders[point] = max(orders.get(point, 0), order)
    if offenders:
        raise PoleOutsideAllowedSet(sorted(set(offenders)))
    inf_order = max(
        infinity_degree(comp) - a
        for comp, a in zip(section.comps, section.splitting.twists)
        if not comp.is_zero()
    )
    degree = sum(orders.values()) + max(0, inf_order)
    return orders, inf_order, degree


def _monomial_basis(splitting: SplittingType, E: Divisor, centre: GaussRat):
    """Summand i contributes max(0, a_i + deg E + 1) sections of the form
    prefactor * (t - centre)^j * e_i, where the prefactor carries the
    finite poles allowed by E."""
    prefactor = RatFun.const(1)
    for point, order in E.finite_entries():
        prefactor = prefactor / RatFun(Poly([-point, GaussRat(1)])) ** order
    deg_e = E.degree
    shifted = RatFun(Poly([-centre, GaussRat(1)]))
    basis = []
    zero = RatFun.const(0)
    for i, a in enumerate(splitting.twists):
        d_i = max(0, a + deg_e + 1)
        for j in range(d_i):
            comps = [zero] * splitting.rank
            comps[i] = prefactor * shifted ** j
            basis.append(Section(comps, splitting))
    return basis


def section_space_basis(splitting: SplittingType, E: Divisor):
    """Basis of the space of global sections of V twisted by O(E): the
    sections prefactor * t^j * e_i, where summand i contributes
    max(0, a_i + deg E + 1) of them and the prefactor carries the finite
    poles allowed by E.
    """
    return _monomial_basis(splitting, E, GaussRat(0))
