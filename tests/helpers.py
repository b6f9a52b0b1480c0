"""Seeded random generators and an in-process CLI runner shared across the
test modules."""

import contextlib
import io
import json
import random
import zlib
from fractions import Fraction

from meroconn import (
    Connection,
    Divisor,
    GaussRat,
    Poly,
    RatFun,
    Section,
    SplittingType,
)
from meroconn.cli import main

ZERO = GaussRat(0)


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
