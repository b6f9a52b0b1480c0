"""Seeded random generators and an in-process CLI runner shared across the
test modules."""

import contextlib
import io
import json
import random
import zlib
from fractions import Fraction

import numpy as np

from meroconn import (
    Connection,
    Divisor,
    GaussRat,
    Poly,
    RatFun,
    Section,
    SplittingType,
    period_jet,
)
from meroconn.cli import main

ZERO = GaussRat(0)

# a pole of order 2 at t = 0 with C_2 = diag(1, -1), not nilpotent: t = 0 is
# irregular, and C_1 there has the eigenvalues 0, 0, which are no exponents
IRREGULAR_CONN = (
    "rank 2\nsplitting 0 0\npoint 0 order 2\npoint 1 order 1\n"
    "point 2 order 1\nmatrix\n1/t^2 1/(t*(t-1))\n"
    "1/((t-1)*(t-2)) -1/t^2\nend\n")

# triangle-diag in the frame diag(1, t - 1), on O(0) + O(-1): its monodromy
# is the fixture's, and at t = 1 it has C_2 = [[0, 0], [1/16, 0]], nilpotent,
# and a C_1 with the eigenvalues 0, 1, which would predict a generator trace
# of 2 where the generator's trace is 0
GAUGE_TWIN_CONN = (
    "rank 2\nsplitting 0 -1\npoint 0 order 1\npoint 1 order 2\n"
    "point 2 order 1\nmatrix\n1/(4*t)-1/(4*(t-2)) -1/(t-2)\n"
    "-1/(16*(t-1)^2*(t-2)) -1/(4*t)+1/(4*(t-2))+1/(t-1)\nend\n")


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def run_json(argv):
    """Run one CLI subcommand in process with JSON output; returns
    (exit code, parsed report).  A report holding NaN or Infinity fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *argv])
    return code, json.loads(out.getvalue(), parse_constant=_not_json)


def rand_gauss(rng, lo=-9, hi=9, nonzero=False):
    while True:
        g = GaussRat(rng.randint(lo, hi), rng.randint(lo, hi))
        if g or not nonzero:
            return g


def rand_fraction(rng, num=4, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def lin(c) -> RatFun:
    """(t - c)."""
    return RatFun(Poly([-GaussRat(c), GaussRat(1)]))


def random_rank1_connection(rng, twist=None):
    """Valid rank-1 connection: simple poles with residues summing to -a."""
    a = rng.randint(-2, 2) if twist is None else twist
    count = rng.randint(2, 4)
    points = rng.sample(range(-3, 6), count)
    lams = [GaussRat(rand_fraction(rng)) for _ in range(count - 1)]
    lams.append(GaussRat(-a) - sum(lams, ZERO))
    m = RatFun.const(0)
    for c, lam in zip(points, lams):
        if lam:
            m = m + RatFun.const(lam) / lin(c)
    conn = Connection(SplittingType([a]),
                      Divisor([(GaussRat(c), 1) for c in points]), [[m]])
    conn.ensure_valid()
    return conn


def random_rank2_connection(rng):
    """Valid rank-2 connection with trivial splitting: three simple poles
    with residue matrices summing to zero."""
    points = rng.sample(range(-2, 5), 3)
    K0 = [[rand_fraction(rng, 3, 2) for _ in range(2)] for _ in range(2)]
    K1 = [[rand_fraction(rng, 3, 2) for _ in range(2)] for _ in range(2)]
    K2 = [[-(K0[i][j] + K1[i][j]) for j in range(2)] for i in range(2)]
    mat = [[RatFun.const(0)] * 2 for _ in range(2)]
    for c, K in zip(points, (K0, K1, K2)):
        lf = lin(c)
        for i in range(2):
            for j in range(2):
                if K[i][j]:
                    mat[i][j] = mat[i][j] + RatFun.const(K[i][j]) / lf
    conn = Connection(SplittingType([0, 0]),
                      Divisor([(GaussRat(c), 1) for c in points]), mat)
    conn.ensure_valid()
    return conn


def random_connection(rng):
    return random_rank2_connection(rng) if rng.random() < 0.5 \
        else random_rank1_connection(rng)


def random_pole_data_connection(rng, rank=None):
    """Valid connection with trivial splitting, of the given rank or else
    of rank 1 or 2 drawn from rng, built for
    the pole-data kernels: two or three divisor points, most of them
    Gaussian rationals with denominators 2-7 such as (1+2i)/3 and -1/2,
    with orders 1-3, and in half the draws numerator coefficients of height
    up to 10^30.  Entry (0, 0) has the divisor's full order at every point;
    each other entry N / prod (t - c)^(k_c) draws k_c in 0..m_c.  With
    deg N <= sum k_c - 2 every entry has degree <= -2 at infinity, so the
    residues of each entry sum to zero, as the trivial splitting needs."""
    points, count = [], rng.randint(2, 3)
    while len(points) < count:
        den = rng.randint(2, 7) if rng.random() < 0.7 else 1
        c = GaussRat(Fraction(rng.randint(-7, 7), den),
                     Fraction(rng.randint(-3, 3), den))
        if c not in points:
            points.append(c)
    orders = [rng.randint(1, 3) for _ in points]
    height = 10 ** 30 if rng.random() < 0.5 else 9
    if rank is None:
        rank = rng.randint(1, 2)
    matrix = []
    for i in range(rank):
        row = []
        for j in range(rank):
            ks = orders if (i, j) == (0, 0) else \
                [rng.randint(0, m) for m in orders]
            if sum(ks) < 2 or ((i, j) != (0, 0) and rng.random() < 0.15):
                row.append(RatFun.const(0))
                continue
            num = Poly([GaussRat(rng.randint(-height, height),
                                 rng.randint(-height, height))
                        for _ in range(rng.randint(1, sum(ks) - 1))])
            den = Poly.from_roots([c for c, k in zip(points, ks)
                                   for _ in range(k)])
            row.append(RatFun(num, den))
        matrix.append(row)
    conn = Connection(SplittingType([0] * rank),
                      Divisor(list(zip(points, orders))), matrix)
    conn.ensure_valid()
    return conn


def period_jet_residual(conn, section, ode, t0, tol=1e-12) -> float:
    """Float defect of a scalar equation on the numeric period jet of depth
    rank + 1 at t0, normalized by the jet's size: each column of the jet
    is a period, a solution of the equation, so it is roundoff when the
    equation is right."""
    jet = period_jet(conn, section, t0, conn.rank + 1, tol).jet
    coeffs = np.array([c.ceval(complex(t0)) for c in ode.coeffs])
    top = jet[conn.rank] - coeffs @ jet[:conn.rank]
    return float(np.max(np.abs(top))) / (1.0 + float(np.max(np.abs(jet))))


def random_poly_section(rng, conn, deg=2):
    """Nonzero section with polynomial components of bounded degree."""
    while True:
        comps = [RatFun(Poly([rand_gauss(rng, -5, 5)
                              for _ in range(deg + 1)]))
                 for _ in range(conn.rank)]
        s = Section(comps, conn.splitting)
        if not s.is_zero():
            return s


def random_ratfun(rng, deg=3, nonzero=False):
    while True:
        num = Poly([rand_gauss(rng, -5, 5) for _ in range(deg + 1)])
        den = Poly([rand_gauss(rng, -5, 5) for _ in range(deg)] + [GaussRat(1)])
        if den.is_zero():
            continue
        if num.is_zero() and nonzero:
            continue
        try:
            return RatFun(num, den)
        except ZeroDivisionError:
            continue


def rng_for(name: str) -> random.Random:
    return random.Random(zlib.crc32(name.encode()))
