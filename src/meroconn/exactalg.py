"""Exact arithmetic over the Gaussian rationals Q(i) and the rational
function field Q(i)(t).

Everything here is immutable and pure; polynomials are dense coefficient
lists (lowest degree first) and rational functions are kept reduced with a
monic denominator so that structural equality is canonical equality.

Where gcds are taken: ``RatFun(num, den)`` reduces an arbitrary pair with
one gcd of the whole numerator against the whole denominator.  Sums,
differences and products of two ``RatFun``s instead use Henrici's
reduction, as ``fractions.Fraction`` does: since both operands are already
reduced, only factors that can share roots are compared (the two
denominators for a sum, each numerator against the other denominator for a
product), no gcd is taken when one side is constant, and the result goes
through ``RatFun._reduced``, which trusts that its pair is already coprime
with a monic denominator.  The parser forms unreduced pairs in Z[i][t] with
integer arithmetic and reduces a pair (each power's base, and the finished
expression) by one image mod a fixed prime p = 1 mod 4: a constant gcd mod
p with both leading coefficients surviving certifies that the pair is
coprime, so it only needs dividing by the denominator's leading
coefficient; any other pair goes through ``RatFun(num, den)``.

Root splitting, Taylor shifts, series quotients and evaluation at a point
c = g/d run on Python ints: a polynomial is put over one common
denominator and homogenised at d, so that t - c becomes the monic T - g
and a Horner pass stays in Z[i]; a series quotient is fraction free, and
GaussRats are built only for the values returned (none when
``split_root`` finds no root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ParseError,
    SingularMatrix,
    ZeroFunction,
    ZeroPolynomial,
)

__all__ = [
    "GaussRat",
    "Poly",
    "RatFun",
    "squarefree_decompose",
    "valuation",
    "infinity_degree",
    "residue",
    "solve_linear",
    "max_zero_multiplicity",
    "rational_roots",
    "parse_ratfun",
    "parse_gaussrat",
]


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


@dataclass(frozen=True)
class GaussRat:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    # canonical-form accessors per the stated field contract
    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "GaussRat") -> "GaussRat":
        other = _coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "GaussRat":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "GaussRat":
        other = _coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "GaussRat":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "GaussRat":
        return _coerce(other) * self.inverse()

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        def part(f: Fraction) -> str:
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        if self.im == 0:
            return part(self.re)
        im = part(abs(self.im)) + "i"
        if abs(self.im) == 1:
            im = "i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return ("-" if self.im < 0 else "") + im
        return f"{part(self.re)}{sign}{im}"

    def __repr__(self) -> str:
        return f"GaussRat({self})"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


def _coerce(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"cannot coerce {x!r} to GaussRat")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over Q(i), lowest degree first.

    The zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([_coerce(c)])

    @classmethod
    def x(cls) -> "Poly":
        return cls([ZERO, ONE])

    @classmethod
    def from_roots(cls, roots) -> "Poly":
        p = cls.const(1)
        for r in roots:
            p = p * cls([-_coerce(r), ONE])
        return p

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> GaussRat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def lead(self) -> GaussRat:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (GaussRat, int, Fraction)):
            c = _coerce(other)
            return Poly([a * c for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [ZERO] * max(0, self.deg - other.deg + 1)
        r = list(self.coeffs)
        inv = other.lead().inverse()
        while len(r) >= len(other.coeffs) and r:
            k = len(r) - len(other.coeffs)
            c = r[-1] * inv
            q[k] = c
            for j, b in enumerate(other.coeffs):
                r[k + j] = r[k + j] - c * b
            while r and r[-1].is_zero():
                r.pop()
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.lead().inverse()

    def derivative(self) -> "Poly":
        return Poly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def eval(self, c) -> GaussRat:
        if self.is_zero():
            return ZERO
        g, d = _split_point(_coerce(c))
        h, m = _homogenised(self.coeffs, d)
        re, im = _divide_linear(h, g)[1]
        m *= d ** self.deg
        return GaussRat(Fraction(re, m), Fraction(im, m))

    def ceval(self, z: complex) -> complex:
        acc = 0j
        for a in reversed(self.coeffs):
            acc = acc * z + a.to_complex()
        return acc

    def shifted(self, c) -> "Poly":
        """Coefficients of self in powers of (t - c) (Taylor shift)."""
        g, d = _split_point(_coerce(c))
        h, m = _homogenised(self.coeffs, d)
        return Poly(_dehomogenised(_taylor_head(h, g, len(h)), m, d))

    def split_root(self, c):
        """(k, self / (t - c)^k) with k the multiplicity of c as a root (0
        when p(c) != 0), divided in Z[i]: for k = 0, self itself."""
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial")
        g, d = _split_point(_coerce(c))
        h, m = _homogenised(self.coeffs, d)
        k, h = _split_linear(h, g)
        return k, Poly(_dehomogenised(h, m, d)) if k else self

    def root_multiplicity(self, c) -> int:
        """Multiplicity of c as a root (0 when p(c) != 0)."""
        return self.split_root(c)[0]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            if k == 0:
                parts.append(str(a))
            else:
                tk = "t" if k == 1 else f"t^{k}"
                coeff = "" if a == ONE else f"({a})*"
                parts.append(f"{coeff}{tk}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


_POLY_ONE = Poly.const(1)     # shared: a Poly is never mutated


# ---------------------------------------------------------------------------
# Z[i][t]: integer kernels
# ---------------------------------------------------------------------------
#
# A polynomial in Z[i][t] is a tuple (or list) of (re, im) int pairs, lowest
# degree first, with a non-zero top coefficient; the zero polynomial is ().
# The parser forms its unreduced pairs in this form.  Root splitting, Taylor
# shifts and evaluation work here too, on a polynomial over Q(i) put over
# one common denominator m and homogenised at the point c = g/d: with
# p = z/m of degree n, h_j = z_j d^(n-j) gives p(t) = h(d t) / (m d^n).  At
# T = d t the point is T = g, and T - g = d (t - c) is monic in T, so
# synthetic division by it stays in Z[i] (fraction free, as in Bareiss's
# elimination).  GaussRats are built only for the values returned.

_Z_ONE = ((1, 0),)


def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, (re, im) in enumerate(b):
        out[k] = (out[k][0] + re, out[k][1] + im)
    while out and out[-1] == (0, 0):
        out.pop()
    return tuple(out)


def _zneg(a):
    return tuple((-re, -im) for re, im in a)


def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _zmul(a, b):
    if not a or not b:
        return ()
    re = [0] * (len(a) + len(b) - 1)
    im = re[:]
    for j, (br, bi) in enumerate(b):
        for k, (ar, ai) in enumerate(a, j):
            re[k] += ar * br - ai * bi
            im[k] += ar * bi + ai * br
    return tuple(zip(re, im))       # Z[i] has no zero divisors: no trim


def _zpow(a, k: int):
    out = _Z_ONE
    while k:
        if k & 1:
            out = _zmul(out, a)
        k >>= 1
        if k:
            a = _zmul(a, a)
    return out


def _common_denominator(coeffs):
    """(z, m) with the given GaussRats equal to z / m: z in Z[i], m the lcm
    of their denominators (1 for none)."""
    m = math.lcm(*(c.re.denominator for c in coeffs),
                 *(c.im.denominator for c in coeffs))
    return tuple((c.re.numerator * (m // c.re.denominator),
                  c.im.numerator * (m // c.im.denominator))
                 for c in coeffs), m


def _split_point(c: GaussRat):
    """(g, d) with c = g/d, g in Z[i] and d >= 1."""
    (g,), d = _common_denominator((c,))
    return g, d


def _homogenised(coeffs, d: int):
    """(h, m) with p(t) = h(d t) / (m d^n), for p of degree n with the given
    coefficients: h_j = z_j d^(n-j) for p = z/m."""
    z, m = _common_denominator(coeffs)
    if d == 1:
        return z, m
    h, scale = [], 1
    for re, im in reversed(z):
        h.append((re * scale, im * scale))
        scale *= d
    return h[::-1], m


def _dehomogenised(h, m: int, d: int) -> list:
    """The GaussRat coefficients of h(d t) / (m d^n), n = len(h) - 1:
    h_j / (m d^(n-j))."""
    out = []
    for re, im in reversed(h):
        out.append(GaussRat(Fraction(re, m), Fraction(im, m)))
        m *= d
    return out[::-1]


def _divide_linear(h, g):
    """(quotient, h(g)) of h / (T - g) in Z[i][T], for non-empty h: one
    Horner pass from the top."""
    gr, gi = g
    ar = ai = 0
    q = []
    for hr, hi in reversed(h):
        ar, ai = ar * gr - ai * gi + hr, ar * gi + ai * gr + hi
        q.append((ar, ai))
    return q[-2::-1], q[-1]


def _split_linear(h, g):
    """(k, h / (T - g)^k) with k the multiplicity of g as a root of the
    non-zero h: one synthetic division per factor of (T - g)."""
    k = 0
    while True:
        q, value = _divide_linear(h, g)
        if value != (0, 0):
            return k, h
        k, h = k + 1, q


def _taylor_head(h, g, order: int) -> list:
    """The first `order` coefficients of h in powers of (T - g): one Horner
    pass each, fewer when h runs out."""
    out = []
    while h and len(out) < order:
        h, value = _divide_linear(h, g)
        out.append(value)
    return out


def gcd_poly(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm over the field Q(i)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFun:
    """Reduced fraction of polynomials over Q(i) with a monic denominator;
    zero is 0/1.

    ``RatFun(num, den)`` accepts any pair and reduces it with one gcd.
    ``_reduced`` takes no gcd: its caller must pass a numerator coprime to
    a monic denominator.  ``+``, ``-`` and ``*`` build their results that
    way, from gcds of the operands' factors (Henrici's reduction), and so
    does negation, which keeps the reduced pair.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _POLY_ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = Poly()
            self.den = _POLY_ONE
            return
        if num.deg > 0 and den.deg > 0:     # else the gcd is 1
            g = gcd_poly(num, den)
            if g.deg > 0:
                num = num // g
                den = den // g
        lead_inv = den.lead().inverse()
        self.num = num * lead_inv
        self.den = den * lead_inv

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFun":
        """num/den for num coprime to den and den monic: no gcd is taken."""
        r = object.__new__(cls)
        r.num = num
        r.den = _POLY_ONE if num.is_zero() else den
        return r

    @classmethod
    def const(cls, c) -> "RatFun":
        return cls(Poly.const(c))

    @classmethod
    def t(cls) -> "RatFun":
        return cls(Poly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.deg <= 0 and self.den.deg == 0

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = gcd_poly(b, d) if b.deg > 0 and d.deg > 0 else _POLY_ONE
        if g.deg == 0:
            return RatFun._reduced(a * d + c * b, b * d)
        b, d = b // g, d // g
        s = a * d + c * b
        g2 = gcd_poly(s, g) if s.deg > 0 else _POLY_ONE
        if g2.deg > 0:
            s, g = s // g2, g // g2
        return RatFun._reduced(s, b * d * g)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun._reduced(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other) -> "RatFun":
        return _coerce_rf(other) + (-self)

    def __mul__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.deg > 0 and d.deg > 0:
            g = gcd_poly(a, d)
            if g.deg > 0:
                a, d = a // g, d // g
        if c.deg > 0 and b.deg > 0:
            g = gcd_poly(c, b)
            if g.deg > 0:
                c, b = c // g, b // g
        return RatFun._reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFun":
        return _coerce_rf(other) / self

    def __pow__(self, k: int) -> "RatFun":
        if k < 0:
            return (RatFun.const(1) / self) ** (-k)
        return RatFun(self.num ** k, self.den ** k)

    def inverse(self) -> "RatFun":
        return RatFun.const(1) / self

    def derivative(self) -> "RatFun":
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def eval(self, c) -> GaussRat:
        c = _coerce(c)
        d = self.den.eval(c)
        if d.is_zero():
            raise ZeroDivisionError(f"pole at t = {c}")
        return self.num.eval(c) / d

    def ceval(self, z: complex) -> complex:
        return self.num.ceval(z) / self.den.ceval(z)

    def __str__(self) -> str:
        if self.den.deg == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


def _coerce_rf(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, Poly):
        return RatFun(x)
    if isinstance(x, (GaussRat, int, Fraction)):
        return RatFun.const(x)
    raise TypeError(f"cannot coerce {x!r} to RatFun")


# ---------------------------------------------------------------------------
# named operations
# ---------------------------------------------------------------------------

def squarefree_decompose(p: Poly):
    """Yun's squarefree decomposition; factors monic, pairwise coprime.

    The product of factor^mult equals p up to the leading scalar.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    p = p.monic()
    if p.deg == 0:
        return []
    out = []
    dp = p.derivative()
    g = gcd_poly(p, dp)
    w = p // g
    y = dp // g
    z = y - w.derivative()
    i = 1
    while w.deg > 0:
        gi = gcd_poly(w, z)
        if gi.deg > 0:
            out.append((gi, i))
        w = w // gi
        y = z // gi
        z = y - w.derivative()
        i += 1
    return out


def valuation(r: RatFun, c) -> int:
    """Order of vanishing of r at c; negative for a pole."""
    if r.is_zero():
        raise ZeroFunction("valuation of the zero function")
    c = _coerce(c)
    return r.num.root_multiplicity(c) - r.den.root_multiplicity(c)


def infinity_degree(r: RatFun) -> int:
    """deg(num) - deg(den): pole order at infinity (negative = zero)."""
    if r.is_zero():
        raise ZeroFunction("infinity_degree of the zero function")
    return r.num.deg - r.den.deg


def _series_quotient(a, ma: int, b, mb: int, g, d: int, order: int) -> list:
    """Coefficients of s^0 .. s^(order-1), s = t - c, in the expansion of
    p/r at c = g/d, for p = (a, ma) and r = (b, mb) homogenised at d and
    r(c) != 0.  With u = d s, p(c + s) = A(u) / (ma d^deg p) and
    r(c + s) = B(u) / (mb d^deg r), where A and B are the heads of a and b
    in powers of (T - g).  Fraction free: A/B = sum_k R_k u^k / B_0^(k+1),
    with R_k = B_0^k A_k - sum_(j<k) B_0^j B_(j+1) R_(k-1-j) in Z[i]."""
    A = _taylor_head(a, g, order)
    B = _taylor_head(b, g, order)
    b0 = B[0]
    if b0 == (0, 0):
        raise ZeroDivisionError("the denominator vanishes at the point")
    # 1/B_0 = conj(B_0)/|B_0|^2, or 1/B_0 for a real B_0
    inv, norm = ((b0[0], -b0[1]), b0[0] ** 2 + b0[1] ** 2) if b0[1] \
        else ((1, 0), b0[0])
    pw = [(1, 0)]               # B_0^k
    for _ in range(order - 1):
        pw.append(_gmul(pw[-1], b0))
    bs = [_gmul(pw[j], B[j + 1]) for j in range(len(B) - 1)]
    R, out = [], []
    ip, nk, shift = inv, norm, len(b) - len(a)     # inv^(k+1), norm^(k+1)
    for k in range(order):
        re, im = _gmul(pw[k], A[k]) if k < len(A) else (0, 0)
        for j in range(min(k, len(bs))):
            x = _gmul(bs[j], R[k - 1 - j])
            re, im = re - x[0], im - x[1]
        R.append((re, im))
        # R_k / B_0^(k+1) d^k (mb d^deg r) / (ma d^deg p)
        re, im = _gmul((re * mb, im * mb), ip)
        den, e = nk * ma, k + shift
        if e >= 0:
            re, im = re * d ** e, im * d ** e
        else:
            den *= d ** -e
        out.append(GaussRat(Fraction(re, den), Fraction(im, den)))
        ip, nk = _gmul(ip, inv), nk * norm
    return out


def taylor_coefficients(num: Poly, den: Poly, c, order: int) -> list:
    """Coefficients of (t-c)^0 .. (t-c)^(order-1) in the expansion of
    num/den at c; den(c) != 0.  Only the first `order` coefficients of
    num and den in powers of (t - c) are read, so only those are shifted."""
    if order <= 0:
        return []
    g, d = _split_point(_coerce(c))
    return _series_quotient(*_homogenised(num.coeffs, d),
                            *_homogenised(den.coeffs, d), g, d, order)


def laurent_coefficients(r: RatFun, c, jmax: int) -> list:
    """Coefficients of (t-c)^(-j) for j = 1..jmax in the expansion of r at c."""
    if r.is_zero():
        return [ZERO] * jmax
    g, d = _split_point(_coerce(c))
    den, m = _homogenised(r.den.coeffs, d)
    k, den = _split_linear(den, g)
    if k == 0:
        return [ZERO] * jmax
    # r = (num / den) * s^(-k), den with the s^k factor split off (still
    # homogenised at d over m); need the Taylor coefficients of num / den
    # up to s^(k-1)
    taylor = _series_quotient(*_homogenised(r.num.coeffs, d), den, m, g, d,
                              k)
    out = []
    for j in range(1, jmax + 1):
        idx = k - j
        out.append(taylor[idx] if 0 <= idx < len(taylor) else ZERO)
    return out


def residue(r: RatFun, c) -> GaussRat:
    """Exact coefficient of (t-c)^(-1) in the Laurent expansion at c."""
    return laurent_coefficients(r, c, 1)[0]


def _row_echelon(M, ncols: int):
    """Gaussian elimination in place over a field (entries GaussRat or
    RatFun): afterwards row k of M has its pivot in column pivots[k], every
    entry below a pivot is zero, and the rows past the pivots are zero in
    the first ncols columns.  Returns (pivots, number of row swaps)."""
    pivots = []
    swaps = 0
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(M))
                      if not M[r][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != top:
            M[top], M[pivot] = M[pivot], M[top]
            swaps += 1
        inv = M[top][col].inverse()
        for r in range(top + 1, len(M)):
            if not M[r][col].is_zero():
                f = M[r][col] * inv
                M[r] = [a - f * bb for a, bb in zip(M[r], M[top])]
        pivots.append(col)
    return pivots, swaps


def _pivot_product(M, n: int, swaps: int) -> RatFun:
    """Determinant of the first n columns of M after _row_echelon found n
    pivots with `swaps` row swaps."""
    det = RatFun.const(-1 if swaps % 2 else 1)
    for k in range(n):
        det = det * M[k][k]
    return det


def _back_substitute(M, n: int) -> list:
    """x with M[:, :n] x = M[:, n] after _row_echelon found n pivots."""
    x = [None] * n
    for k in reversed(range(n)):
        acc = M[k][n]
        for j in range(k + 1, n):
            acc = acc - M[k][j] * x[j]
        x[k] = acc / M[k][k]
    return x


def solve_linear(A, b):
    """Exact solution of A x = b over Q(i)(t) by Gaussian elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    if len(b) != n:
        raise ValueError("dimension mismatch")
    M = [[_coerce_rf(e) for e in row] + [_coerce_rf(v)]
         for row, v in zip(A, b)]
    pivots, _ = _row_echelon(M, n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular over the function field")
    return _back_substitute(M, n)


def det_ratfun(A) -> RatFun:
    """Exact determinant of a square RatFun matrix (elimination based)."""
    n = len(A)
    M = [[_coerce_rf(e) for e in row] for row in A]
    pivots, swaps = _row_echelon(M, n)
    if len(pivots) < n:
        return RatFun(Poly())
    return _pivot_product(M, n, swaps)


def rational_roots(p: Poly):
    """Gaussian-rational roots of p with multiplicities.

    Candidates come from numeric root finding on each squarefree factor,
    rationalized through limit_denominator, then each is certified by exact
    evaluation, so every returned root is genuine.  Rational roots whose
    coordinates have denominators beyond the rationalization window are not
    representable at desk scale and are treated as irrational.
    """
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has every point as a root")
    return [(root, mult) for _, mult, roots, _ in _root_factors(p)
            for root in roots]


def _root_factors(p: Poly) -> list:
    """(factor, multiplicity, rational roots, other roots) for each Yun
    factor of p: the rational roots found and certified as in
    rational_roots, and the numeric roots that no window certified, as
    complex numbers sorted by (real, imag)."""
    out = []
    windows = (10, 10 ** 2, 10 ** 4, 10 ** 6, 10 ** 9)
    # the roots of a squarefree factor are simple, so np.roots finds them to
    # near full precision; each root of factor has multiplicity mult in p
    for factor, mult in squarefree_decompose(p):
        coeffs = [factor[k].to_complex() for k in range(factor.deg, -1, -1)]
        roots, other, seen = [], [], set()
        for z in np.roots(coeffs):
            for window in windows:
                cand = GaussRat(Fraction(z.real).limit_denominator(window),
                                Fraction(z.imag).limit_denominator(window))
                if cand in seen:
                    continue
                seen.add(cand)
                if factor.eval(cand).is_zero():
                    roots.append(cand)
                    break
            else:
                other.append(complex(z))
        out.append((factor, mult, roots,
                    sorted(other, key=lambda z: (z.real, z.imag))))
    return out


def max_zero_multiplicity(r: RatFun, excluded=()):
    """Maximal zero multiplicity of r away from `excluded`, plus the
    squarefree profile (factor, mult) of the numerator with the excluded
    roots divided out; factors left constant are dropped."""
    if r.is_zero():
        raise ZeroFunction("zero function has no zero multiplicities")
    excluded = {_coerce(e) for e in excluded}
    profile = []
    for factor, mult in squarefree_decompose(r.num):
        for e in excluded:
            factor = factor.split_root(e)[1]
        if factor.deg > 0:
            profile.append((factor, mult))
    return max((mult for _, mult in profile), default=0), profile


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------
#
# Grammar: integers, fractions p/q, the imaginary unit i, the variable t,
# operators + - * / ^ (integer exponents), parentheses; whitespace is
# insignificant.  Juxtaposition multiplies (so 1/2i parses as (1/2)*i).

_TOK_INT = "int"
_TOK_SYM = "sym"
_TOK_OP = "op"


def _tokenize(text: str):
    toks = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            toks.append((_TOK_INT, int(text[k:j]), k))
            k = j
        elif ch in "it":
            toks.append((_TOK_SYM, ch, k))
            k += 1
        elif ch in "+-*/^()":
            toks.append((_TOK_OP, ch, k))
            k += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=k)
    return toks


# The grammar has only integers, i and t, and '/' only swaps numerator and
# denominator, so every unreduced pair the parser forms lies in Z[i][t].

def _sum(a, b):
    """a + b on unreduced (numerator, denominator) pairs."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return _zadd(an, bn), ad
    return _zadd(_zmul(an, bd), _zmul(bn, ad)), _zmul(ad, bd)


# A prime p = 1 mod 4 and a square root r of -1 mod p: i -> r maps Z[i]
# onto Z/p.  If a common factor of num and den over Q(i) has positive
# degree, Gauss's lemma puts one in Z[i][t] that divides both there; when
# both leading coefficients survive the map, so does its degree, and the
# images of num and den share a factor of positive degree mod p.  So a
# constant gcd of the images certifies that the pair is coprime.
_P = 2 ** 61 - 31
_R = 583529827753931384


def _image(a) -> list:
    return [(re + im * _R) % _P for re, im in a]


def _rem_mod_p(a: list, b: list) -> list:
    """a mod b in Z/p[t], lowest degree first; both tops non-zero."""
    a = a[:]
    inv = pow(b[-1], -1, _P)
    top = len(b) - 1
    while len(a) > top:
        c = a.pop() * inv % _P
        k = len(a) - top
        for j in range(top):
            a[k + j] = (a[k + j] - c * b[j]) % _P
        while a and a[-1] == 0:
            a.pop()
    return a


def _coprime(num, den) -> bool:
    """True when the pair is certified coprime over Q(i): a side of degree
    <= 0, or images mod p with both tops and a constant gcd.  False asks
    for Euclid over Q(i): the pair may still be coprime."""
    if len(num) <= 1 or len(den) <= 1:
        return True
    a, b = _image(num), _image(den)
    if a[-1] == 0 or b[-1] == 0:
        return False
    while b:
        a, b = b, _rem_mod_p(a, b)
    return len(a) == 1


def _zpoly(a) -> Poly:
    return Poly([GaussRat(re, im) for re, im in a])


def _coprime_pair(num, den):
    """A coprime Z[i] pair with the same quotient as num/den: the pair
    itself when certified, else the Euclid result scaled back into Z[i] by
    the lcm of its coefficient denominators."""
    if _coprime(num, den):
        return num, den
    r = RatFun(_zpoly(num), _zpoly(den))
    z, _ = _common_denominator(r.num.coeffs + r.den.coeffs)
    return z[:len(r.num.coeffs)], z[len(r.num.coeffs):]


def _reduced_pair(num, den) -> RatFun:
    """The RatFun of a Z[i] pair: the coprime pair divided by the top
    coefficient c + d i of its denominator."""
    num, den = _coprime_pair(num, den)
    c, d = den[-1]
    n = c * c + d * d

    def divided(a):     # (x + y i) / (c + d i)
        return Poly([GaussRat(Fraction(x * c + y * d, n),
                              Fraction(y * c - x * d, n)) for x, y in a])

    return RatFun._reduced(divided(num), divided(den))


class _Parser:
    """Recursive descent over unreduced (numerator, denominator) pairs in
    Z[i][t]: only a power's base and the finished expression are reduced,
    each by one certificate mod p, with Euclid over Q(i) only where the
    certificate fails."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression", column=len(self.text))
        self.pos += 1
        return t

    def expect_op(self, op):
        t = self.take()
        if t[0] != _TOK_OP or t[1] != op:
            raise ParseError(f"expected {op!r}", column=t[2])

    def parse(self) -> RatFun:
        num, den = self.expr()
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t[1]!r}", column=t[2])
        return _reduced_pair(num, den)

    def expr(self):
        v = self.term()
        while True:
            t = self.peek()
            if t and t[0] == _TOK_OP and t[1] in "+-":
                self.take()
                num, den = self.term()
                v = _sum(v, (num, den) if t[1] == "+" else (_zneg(num), den))
            else:
                return v

    def _starts_factor(self, t) -> bool:
        return t is not None and (
            t[0] == _TOK_INT
            or t[0] == _TOK_SYM
            or (t[0] == _TOK_OP and t[1] == "(")
        )

    def term(self):
        num, den = self.unary()
        while True:
            t = self.peek()
            if t and t[0] == _TOK_OP and t[1] in "*/":
                self.take()
                rn, rd = self.unary()
                if t[1] == "/":
                    if not rn:
                        raise ParseError("division by zero", column=t[2])
                    rn, rd = rd, rn
            elif self._starts_factor(t):
                rn, rd = self.unary()  # juxtaposition
            else:
                return num, den
            num, den = _zmul(num, rn), _zmul(den, rd)

    def unary(self):
        t = self.peek()
        if t and t[0] == _TOK_OP and t[1] == "-":
            self.take()
            num, den = self.unary()
            return _zneg(num), den
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t and t[0] == _TOK_OP and t[1] == "^":
            self.take()
            sign = 1
            t2 = self.peek()
            if t2 and t2[0] == _TOK_OP and t2[1] == "-":
                self.take()
                sign = -1
            t3 = self.take()
            if t3[0] != _TOK_INT:
                raise ParseError("exponent must be an integer", column=t3[2])
            exp = sign * t3[1]
            if exp < 0 and not base[0]:
                raise ParseError("zero to a negative power", column=t3[2])
            if exp == 1:
                return base
            num, den = _coprime_pair(*base)     # so the power adds no degree
            if exp < 0:
                num, den = den, num
            return _zpow(num, abs(exp)), _zpow(den, abs(exp))
        return base

    def atom(self):
        t = self.take()
        if t[0] == _TOK_INT:
            return (((t[1], 0),) if t[1] else ()), _Z_ONE
        if t[0] == _TOK_SYM:
            return ((0, 1),) if t[1] == "i" else ((0, 0), (1, 0)), _Z_ONE
        if t[0] == _TOK_OP and t[1] == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise ParseError(f"unexpected token {t[1]!r}", column=t[2])


def parse_ratfun(text: str) -> RatFun:
    """Parse an expression in t over Q(i) into an exact rational function."""
    return _Parser(text).parse()


def parse_gaussrat(text: str) -> GaussRat:
    """Parse a constant expression into a Gaussian rational."""
    v = parse_ratfun(text)
    if not v.is_constant():
        raise ParseError(f"expected a constant, got {v}")
    return v.constant_value()
