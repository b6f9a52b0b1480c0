"""Meromorphic connections on the projective line.

A connection is stored by its rank, splitting type, finite pole divisor and
an exact rational connection matrix M (column convention: the covariant
derivative of a coordinate vector r is r' + M r, so flat sections solve
r' = -M r).  Validation checks the pole constraint at the finite divisor
and holomorphy of the connection form at infinity in the twisted frame.

Pole orders are split off each entry's denominator one divisor point at
a time (Poly.split_root, in Z[i]); a factor left over has poles off the
divisor.  The report keeps each entry's order at each point, the largest
entry order at each point and the residues of tr M, taken only from the
diagonal entries with a pole there.  The transport builds its q and
P = q M from the orders, and the det check reads the residues.
In the frame f_i = t^(a_i) e_i the matrix is N_ki = M_ki t^(a_i - a_k) +
(a_i / t) delta_ki, and each entry needs degree <= -2 at infinity.  N is
never formed: entry (k,i) has degree infinity_degree(M_ki) + a_i - a_k,
save a twisted diagonal entry, whose sum M_kk + a_k / t may cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import Divisor, Section, SplittingType, chern
from .errors import NotASingularPoint, ValidationFailed
from .exactalg import (
    GaussRat,
    Poly,
    RatFun,
    _coerce,
    infinity_degree,
    laurent_coefficients,
    residue,
    taylor_coefficients,
)

__all__ = ["Connection", "ValidationReport", "LocalData",
           "validate", "covariant_derivative", "covariant_jet",
           "dual_connection", "det_connection", "local_data"]


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    # divisor point -> largest pole order of an entry there (0 when none)
    pole_orders: dict = field(default_factory=dict)
    # entry_orders[i][j][p]: pole order of entry (i, j) at the p-th divisor
    # point (the order of conn.singular_points)
    entry_orders: list = field(default_factory=list)
    # divisor point -> res(tr M, c); filled when the degree checks pass
    trace_residues: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


class Connection:
    """Rank-alpha meromorphic connection with prescribed pole divisor."""

    def __init__(self, splitting: SplittingType, divisor: Divisor, matrix):
        if divisor.finite_entries() != list(divisor.entries):
            raise ValueError("the pole divisor must be supported at finite points")
        self.splitting = splitting
        self.divisor = divisor
        rows = [tuple(row) for row in matrix]
        if len(rows) != splitting.rank or any(len(r) != splitting.rank for r in rows):
            raise ValueError("connection matrix shape does not match the rank")
        self.matrix = tuple(rows)
        self._report = None

    @property
    def rank(self) -> int:
        return self.splitting.rank

    @property
    def singular_points(self):
        return self.divisor.finite_support()

    def trace(self) -> RatFun:
        return sum((self.matrix[k][k] for k in range(self.rank)), RatFun.const(0))

    def validate(self) -> ValidationReport:
        if self._report is None:
            self._report = validate(self)
        return self._report

    def ensure_valid(self):
        report = self.validate()
        if not report.ok:
            raise ValidationFailed(report)

    def __repr__(self):
        return (f"Connection(rank={self.rank}, splitting={self.splitting.twists}, "
                f"divisor={self.divisor})")


def _entry_poles(conn: Connection):
    """(violations, orders, entry_orders): every matrix entry must have
    finite poles only in C, of order <= m_c; entry_orders[i][j] holds the
    orders of entry (i, j) at the divisor points, in the divisor's order,
    and orders[c] is the largest entry order at c."""
    out = []
    points = conn.divisor.finite_entries()
    top = [0] * len(points)
    entry_orders = []
    for i, row in enumerate(conn.matrix):
        entry_orders.append([])
        for j, entry in enumerate(row):
            ks = [0] * len(points)
            entry_orders[i].append(ks)
            if entry.is_zero():
                continue
            den = entry.den
            for p, (c, m) in enumerate(points):
                ks[p], den = den.split_root(c)
                if ks[p] > m:
                    out.append(
                        f"entry ({i},{j}) has pole order {ks[p]} > {m} "
                        f"at t={c}"
                    )
            if den.deg > 0:
                out.append(
                    f"entry ({i},{j}) has poles outside the divisor (factor {den})"
                )
            top = list(map(max, top, ks))
    return out, dict(zip(conn.singular_points, top)), entry_orders


def validate(conn: Connection) -> ValidationReport:
    """Pole constraint at the divisor plus holomorphy of the form at
    infinity; also asserts the residue-theorem identity
    sum_c res(tr M, c) = -c(V) for accepted connections."""
    violations, orders, entry_orders = _entry_poles(conn)
    a = conn.splitting.twists
    for k, row in enumerate(conn.matrix):
        for i, entry in enumerate(row):
            if i == k and a[k]:
                entry = entry + RatFun(Poly.const(a[k]), Poly.x())
            if entry.is_zero():
                continue
            d = infinity_degree(entry) + a[i] - a[k]
            if d > -2:
                violations.append(
                    f"infinity condition fails for entry ({k},{i}): "
                    f"twisted degree {d} > -2"
                )
    warnings = []
    if not conn.divisor.entries:
        warnings.append("empty pole divisor: monodromy is necessarily trivial")
    report = ValidationReport(ok=not violations, violations=violations,
                              warnings=warnings, pole_orders=orders,
                              entry_orders=entry_orders)
    if report.ok:
        # residue theorem: implied by the two degree checks, asserted anyway;
        # the residue is linear, so res(tr M, c) sums the residues of the
        # diagonal entries with a pole at c
        report.trace_residues = {
            c: sum((residue(conn.matrix[k][k], c) for k in range(conn.rank)
                    if entry_orders[k][k][p]), GaussRat(0))
            for p, c in enumerate(conn.singular_points)}
        total = sum(report.trace_residues.values(), GaussRat(0))
        if total != GaussRat(-chern(conn.splitting)):
            report.ok = False
            report.violations.append(
                f"residue sum {total} != -c(V) = {-chern(conn.splitting)}"
            )
    return report


def covariant_derivative(conn: Connection, section: Section) -> Section:
    """Apply the connection along d/dt: componentwise omega' + M omega."""
    conn.ensure_valid()
    if section.splitting != conn.splitting:
        raise ValueError("section splitting does not match the connection")
    comps = []
    for i in range(conn.rank):
        acc = section.comps[i].derivative()
        for j in range(conn.rank):
            m = conn.matrix[i][j]
            if not m.is_zero() and not section.comps[j].is_zero():
                acc = acc + m * section.comps[j]
        comps.append(acc)
    return Section(comps, conn.splitting)


def covariant_jet(conn: Connection, section: Section, b, depth: int) -> list:
    """[grad^k omega (b) for k < depth] at a point b that is neither a
    singular point nor a pole of the section.

    M and omega are expanded in s = t - b to depth terms; each application
    of d/ds + M(b + s) to the truncated series loses one term, and the
    constant term of the k-th result is grad^k omega (b)."""
    conn.ensure_valid()
    if section.splitting != conn.splitting:
        raise ValueError("section splitting does not match the connection")
    n = conn.rank
    w = [taylor_coefficients(c.num, c.den, b, depth) for c in section.comps]
    m = [[(j, taylor_coefficients(e.num, e.den, b, depth - 1))
          for j, e in enumerate(row) if not e.is_zero()]
         for row in conn.matrix]
    out = []
    for k in range(depth):
        out.append([wi[0] for wi in w])
        nxt = []
        for i in range(n):
            row = [w[i][p + 1] * (p + 1) for p in range(depth - k - 1)]
            for j, mij in m[i]:
                wj = w[j]
                for p in range(len(row)):
                    for q in range(p + 1):
                        row[p] = row[p] + mij[q] * wj[p - q]
            nxt.append(row)
        w = nxt
    return out


def dual_connection(conn: Connection) -> Connection:
    """Dual connection: splitting negated, matrix -M^T; flat dual vectors
    solve delta' = M^T delta."""
    conn.ensure_valid()
    n = conn.rank
    mat = [[-conn.matrix[j][i] for j in range(n)] for i in range(n)]
    dual = Connection(SplittingType([-a for a in conn.splitting.twists]),
                      conn.divisor, mat)
    dual.ensure_valid()
    return dual


def det_connection(conn: Connection) -> Connection:
    """Induced connection on the top exterior power: rank one, twist c(V),
    matrix tr M."""
    conn.ensure_valid()
    if conn.rank == 1:
        return conn
    det = Connection(SplittingType([chern(conn.splitting)]), conn.divisor,
                     [[conn.trace()]])
    det.ensure_valid()
    return det


@dataclass
class LocalData:
    """Laurent principal part of the connection matrix at a singular point."""

    point: GaussRat
    laurent: list          # laurent[j-1] = exact matrix coefficient of (t-c)^(-j)
    exponents: list        # LAPACK eigenvalues of the residue matrix C_1
    effective_order: int   # largest j with C_j != 0 (0 when M has no pole)
    leading_nilpotent: bool  # C_j^rank = 0 at j = effective_order, exactly


def local_data(conn: Connection, c) -> LocalData:
    """Exact Laurent matrices C_1..C_m at a singular point c, with the
    eigenvalues of the residue C_1 in double precision, the effective pole
    order and whether its leading matrix is nilpotent.  At an effective
    order >= 2 the eigenvalues of C_1 need not be the local exponents: a
    leading matrix that is not nilpotent makes c irregular (Moser, 1960),
    and a nilpotent one leaves the question to a Moser reduction."""
    c = _coerce(c)
    m = conn.divisor.order_at(c)
    if m == 0:
        raise NotASingularPoint(f"t = {c} is not in the pole divisor")
    n = conn.rank
    laurent = []
    per_entry = [[laurent_coefficients(conn.matrix[i][j], c, m)
                  for j in range(n)] for i in range(n)]
    for j in range(1, m + 1):
        laurent.append([[per_entry[i][k][j - 1] for k in range(n)]
                        for i in range(n)])
    c1 = np.array([[z.to_complex() for z in row] for row in laurent[0]])
    k = max((j for j, C in enumerate(laurent, 1)
             if any(e for row in C for e in row)), default=0)
    lead = laurent[k - 1]          # all zero when k = 0
    power = lead
    for _ in range(n - 1):
        power = [[sum((row[p] * lead[p][j] for p in range(n)), GaussRat(0))
                  for j in range(n)] for row in power]
    return LocalData(point=c, laurent=laurent,
                     exponents=sorted(np.linalg.eigvals(c1),
                                      key=lambda z: (z.real, z.imag)),
                     effective_order=k,
                     leading_nilpotent=not any(e for row in power
                                               for e in row))
