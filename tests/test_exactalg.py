"""Exact arithmetic layer: polynomials, rational functions, residues."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meroconn import (
    GaussRat,
    Poly,
    RatFun,
    det_ratfun,
    infinity_degree,
    laurent_coefficients,
    max_zero_multiplicity,
    parse_gaussrat,
    parse_ratfun,
    rational_roots,
    residue,
    solve_linear,
    squarefree_decompose,
    valuation,
)
from meroconn import exactalg
from meroconn.exactalg import _row_echelon, gcd_poly
from meroconn.errors import (
    ParseError,
    SingularMatrix,
    ZeroFunction,
    ZeroPolynomial,
)

T = Poly([GaussRat(0), GaussRat(1)])
ONE = Poly([GaussRat(1)])


def expand(factors):
    out = ONE
    for p, k in factors:
        out = out * p ** k
    return out


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------

class TestSquarefree:
    def test_factored_cubic(self):
        p = Poly.from_roots([0, 0, 0, 1])  # t^3 (t-1)
        got = {(f, k) for f, k in squarefree_decompose(p)}
        assert got == {(T, 3), (T - ONE, 1)}

    def test_repeated_quadratic(self):
        q = Poly([GaussRat(1), GaussRat(0), GaussRat(1)])  # t^2 + 1
        got = squarefree_decompose(q ** 2)
        assert [(f.monic(), k) for f, k in got] == [(q, 2)]

    def test_dense_input(self):
        # t^5 - 2 t^4 + t^3, fed as a raw coefficient list
        p = Poly([0, 0, 0, 1, -2, 1])
        got = squarefree_decompose(p)
        assert {(f, k) for f, k in got} == {(T, 3), (T - ONE, 2)}
        # oracle: re-expansion reproduces the input up to a scalar
        back = expand(got)
        assert back.monic() == p.monic()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_decompose(Poly([]))


class TestSplitRoot:
    def test_gaussian_root(self):
        c = GaussRat(Fraction(1, 3), -2)
        rest = Poly([GaussRat(5), GaussRat(0), GaussRat(1)])  # t^2 + 5
        assert (Poly([-c, GaussRat(1)]) ** 3 * rest).split_root(c) == (3, rest)

    def test_not_a_root(self):
        p = Poly.from_roots([1, 2])
        assert p.split_root(3) == (0, p)
        assert Poly.const(7).split_root(0) == (0, Poly.const(7))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            Poly([]).split_root(0)
        with pytest.raises(ZeroPolynomial):
            Poly([]).root_multiplicity(0)


# ---------------------------------------------------------------------------
# valuation, degrees, residues
# ---------------------------------------------------------------------------

class TestValuation:
    def test_visible_pole(self):
        r = RatFun(ONE, T * (T - ONE))
        assert valuation(r, 0) == -1

    def test_zero_order(self):
        r = RatFun(T ** 2 * (T - ONE))
        assert valuation(r, 0) == 2

    def test_regular_point(self):
        r = RatFun(T ** 2 + ONE, T - Poly.const(2))
        assert valuation(r, 5) == 0

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            valuation(RatFun(Poly([])), 0)


class TestInfinityDegree:
    def test_pole_at_infinity(self):
        assert infinity_degree(RatFun(T ** 3, T - ONE)) == 2

    def test_zero_at_infinity(self):
        assert infinity_degree(RatFun(ONE, T * (T - ONE))) == -2

    def test_constant(self):
        assert infinity_degree(RatFun.const(Fraction(7, 3))) == 0


class TestResidue:
    def test_partial_fractions(self):
        r = RatFun(ONE, T * (T - ONE))
        assert residue(r, 0) == GaussRat(-1)
        assert residue(r, 1) == GaussRat(1)

    def test_double_pole(self):
        r = RatFun(Poly([1, 2]), T ** 2)  # (2t+1)/t^2
        assert residue(r, 0) == GaussRat(2)

    def test_regular_point_gives_zero(self):
        assert residue(RatFun(T), 1) == GaussRat(0)

    def test_laurent_coefficients(self):
        # 1/(t(t-1)) = -1/t - 1 - t - ... at 0; jmax=2 returns [c_1, c_2]
        r = RatFun(ONE, T * (T - ONE))
        assert laurent_coefficients(r, 0, 2) == [GaussRat(-1), GaussRat(0)]


# ---------------------------------------------------------------------------
# linear algebra over the function field
# ---------------------------------------------------------------------------

class TestSolveLinear:
    def test_identity(self):
        one = RatFun.const(1)
        zero = RatFun.const(0)
        b = [RatFun.t(), one / (RatFun.t() - one)]
        x = solve_linear([[one, zero], [zero, one]], b)
        assert x == b

    def test_diagonal(self):
        t = RatFun.t()
        zero = RatFun.const(0)
        one = RatFun.const(1)
        x = solve_linear([[t, zero], [zero, t]], [one, one])
        assert x == [one / t, one / t]

    def test_singular(self):
        one = RatFun.const(1)
        with pytest.raises(SingularMatrix):
            solve_linear([[one, one], [one, one]], [RatFun.t(), one])


# ---------------------------------------------------------------------------
# maximal zero multiplicity with exclusions
# ---------------------------------------------------------------------------

class TestMaxZeroMultiplicity:
    def test_no_exclusion(self):
        r = RatFun(T ** 3 * (T - ONE), T - Poly.const(2))
        mu, profile = max_zero_multiplicity(r)
        assert mu == 3
        assert {(f, k) for f, k in profile} == {(T, 3), (T - ONE, 1)}

    def test_exclusion_removes_factor(self):
        r = RatFun(T ** 3 * (T - ONE))
        mu, profile = max_zero_multiplicity(r, {GaussRat(0)})
        assert mu == 1
        assert [(f, k) for f, k in profile] == [(T - ONE, 1)]

    def test_irrational_roots(self):
        q = T ** 2 - Poly.const(2)
        mu, profile = max_zero_multiplicity(RatFun(q ** 2))
        assert mu == 2
        assert [(f.monic(), k) for f, k in profile] == [(q, 2)]
        # oracle: numeric clustering of the expanded numerator roots
        coeffs = [(q ** 2)[k].to_complex() for k in range((q ** 2).deg, -1, -1)]
        roots = sorted(np.roots(coeffs).real)
        assert np.allclose(roots, [-2 ** 0.5, -2 ** 0.5, 2 ** 0.5, 2 ** 0.5])

    def test_mixed_factor_divides_out(self):
        # t(t-1) stays a single squarefree factor; the excluded root is
        # divided out of it exactly
        r = RatFun(T * (T - ONE))
        assert max_zero_multiplicity(r, {GaussRat(0)}) == (1, [(T - ONE, 1)])


class TestRationalRoots:
    def test_repeated_rational_root(self):
        # np.roots of the expanded quartic scatters the fourfold root by
        # about eps^(1/4), beyond every rationalization window
        root = GaussRat(Fraction(101, 997))
        p = Poly([-root, GaussRat(1)]) ** 4
        assert rational_roots(p) == [(root, 4)]
        got = rational_roots(p * (T - Poly.const(2)) * (T ** 2 - Poly.const(2)))
        assert sorted(got, key=lambda rk: rk[1]) == [(GaussRat(2), 1), (root, 4)]


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_int = st.integers(min_value=-5, max_value=5)
small_poly = st.lists(small_int, min_size=1, max_size=4).map(
    lambda cs: Poly([GaussRat(c) for c in cs])
).filter(lambda p: not p.is_zero())
roots = st.lists(small_int, min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(small_poly, small_poly)
def test_squarefree_reexpansion(p, q):
    prod = p * q ** 2
    got = squarefree_decompose(prod)
    assert expand(got).monic() == prod.monic()
    for f, _ in got:
        assert f.deg >= 1


@settings(max_examples=60, deadline=None)
@given(small_int, st.integers(min_value=0, max_value=4), roots,
       small_int.filter(bool))
def test_split_root_against_from_roots(c, k, others, lead):
    others = [r for r in others if r != c]
    cofactor = Poly.from_roots(others) * lead
    p = Poly.from_roots([c] * k) * cofactor
    assert p.split_root(c) == (k, cofactor)
    assert p.root_multiplicity(c) == k


gauss_rat = st.builds(
    GaussRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(gauss_rat, st.integers(min_value=1, max_value=3),
                          st.booleans()),
                max_size=4, unique_by=lambda rmx: rmx[0]),
       st.integers(min_value=0, max_value=3), gauss_rat.filter(bool))
def test_max_zero_multiplicity_by_construction(linear, quad_mult, lead):
    # r = lead * (t^2 - 2)^quad_mult * prod (t - root)^mult; the roots
    # drawn as excluded leave the profile, each other root stays in the
    # factor of its multiplicity
    quad = T ** 2 - Poly.const(2)
    num = quad ** quad_mult * lead
    factors = {quad_mult: quad} if quad_mult else {}
    for root, mult, excluded in linear:
        num = num * Poly.from_roots([root]) ** mult
        if not excluded:
            factors[mult] = factors.get(mult, ONE) * Poly.from_roots([root])
    mu, profile = max_zero_multiplicity(
        RatFun(num), {root for root, _, excluded in linear if excluded})
    assert mu == max(factors, default=0)
    assert profile == sorted(((f, m) for m, f in factors.items()),
                             key=lambda fm: fm[1])


@settings(max_examples=40, deadline=None)
@given(small_poly, small_int)
def test_shifted_re_expands(p, c):
    s = Poly([-GaussRat(c), GaussRat(1)])
    back = Poly()
    for j, a in enumerate(p.shifted(c).coeffs):
        back = back + s ** j * a
    assert back == p


# ---------------------------------------------------------------------------
# Z[i] kernels against the GaussRat Horner
# ---------------------------------------------------------------------------
#
# The oracle: synthetic division by (t - c) in GaussRat arithmetic, one
# Horner pass per division, and the series quotient over Q(i).

def _horner_divide(coeffs, c):
    """(quotient coefficients, p(c)) of p / (t - c), in GaussRat."""
    acc, q = GaussRat(0), []
    for a in reversed(coeffs):
        acc = acc * c + a
        q.append(acc)
    return q[-2::-1], q[-1]


def _horner_split_root(p, c):
    k, r = 0, list(p.coeffs)
    while True:
        q, value = _horner_divide(r, c)
        if value:
            return k, Poly(r)
        k, r = k + 1, q


def _horner_shift_head(coeffs, c, order):
    coeffs, out = list(coeffs), []
    while coeffs and len(out) < order:
        coeffs, value = _horner_divide(coeffs, c)
        out.append(value)
    return out


def _horner_series_quotient(num, den, order):
    """Taylor coefficients up to (excluding) `order` of the quotient of two
    series with the given coefficients; den[0] != 0."""
    inv0 = den[0].inverse()
    q = []
    for m in range(order):
        acc = num[m] if m < len(num) else GaussRat(0)
        for j in range(min(m, len(den) - 1)):
            acc = acc - q[m - 1 - j] * den[j + 1]
        q.append(acc * inv0)
    return q


def _horner_taylor(num, den, c, order):
    if order <= 0:
        return []
    return _horner_series_quotient(
        _horner_shift_head(num.coeffs, c, order) or [GaussRat(0)],
        _horner_shift_head(den.coeffs, c, order), order)


def _horner_laurent(r, c, jmax):
    k, den = _horner_split_root(r.den, c)
    if k == 0:
        return [GaussRat(0)] * jmax
    taylor = _horner_taylor(r.num, den, c, k)
    return [taylor[k - j] if k - j >= 0 else GaussRat(0)
            for j in range(1, jmax + 1)]


_kernel_int = st.one_of(st.integers(-9, 9),
                        st.integers(-10 ** 30, 10 ** 30))
_kernel_den = st.one_of(st.just(1), st.integers(1, 7),
                        st.integers(1, 10 ** 6))
# c = g/d with d up to 10^6 (the lcm of two such denominators in some draws)
_kernel_gauss = st.builds(
    lambda a, b, d, e: GaussRat(Fraction(a, d), Fraction(b, e)),
    _kernel_int, _kernel_int, _kernel_den, _kernel_den)
_kernel_poly = st.lists(_kernel_gauss, min_size=1, max_size=4).map(Poly)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_kernel_gauss, st.integers(min_value=0, max_value=4),
       _kernel_poly.filter(lambda p: not p.is_zero()))
def test_split_root_matches_horner(c, k, cofactor):
    p = Poly([-c, GaussRat(1)]) ** k * cofactor
    got = p.split_root(c)
    assert got == _horner_split_root(p, c)
    assert got[0] >= k
    assert p.eval(c) == _horner_divide(p.coeffs, c)[1]
    assert p.shifted(c) == Poly(_horner_shift_head(p.coeffs, c, p.deg + 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_kernel_gauss, st.integers(min_value=0, max_value=4), _kernel_poly,
       _kernel_poly.filter(lambda p: not p.is_zero()))
def test_taylor_and_laurent_match_horner(c, k, num, den):
    value = _horner_divide(den.coeffs, c)[1]
    if not value:
        den = den + Poly([GaussRat(1)])         # now den(c) = 1
    for order in range(max(num.deg, den.deg) + 3):
        assert exactalg.taylor_coefficients(num, den, c, order) == \
            _horner_taylor(num, den, c, order)
    r = RatFun(num, den * Poly([-c, GaussRat(1)]) ** k)
    assert laurent_coefficients(r, c, k + 1) == _horner_laurent(r, c, k + 1)
    assert residue(r, c) == _horner_laurent(r, c, 1)[0]


_gauss_poly = st.lists(st.builds(GaussRat, small_int, small_int),
                       min_size=1, max_size=5).map(Poly)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_gauss_poly, _gauss_poly.filter(lambda p: not p.is_zero()),
       st.builds(GaussRat, small_int, small_int))
def test_truncated_taylor_matches_full_shift(num, den, c):
    if den.eval(c).is_zero():
        den = den + Poly([1 - den.eval(c)])      # now den(c) = 1
    top = max(num.deg, den.deg) + 2
    full = _horner_series_quotient(list(num.shifted(c).coeffs) or
                                   [GaussRat(0)],
                                   list(den.shifted(c).coeffs), top)
    for order in range(top + 1):
        assert exactalg.taylor_coefficients(num, den, c, order) == \
            full[:order]


@settings(max_examples=40, deadline=None)
@given(roots, roots, small_int)
def test_valuation_antisymmetry(num_roots, den_roots, c):
    num, den = Poly.from_roots(num_roots), Poly.from_roots(den_roots)
    if (num % den).is_zero() and den.deg > 0:
        return  # avoid exact cancellation making 1/r lose the point
    r = RatFun(num, den)
    assert valuation(r, c) + valuation(r.inverse(), c) == 0


@settings(max_examples=40, deadline=None)
@given(roots, roots, small_int)
def test_log_derivative_residue(num_roots, den_roots, c):
    r = RatFun(Poly.from_roots(num_roots), Poly.from_roots(den_roots))
    assert residue(r.derivative() / r, c) == GaussRat(valuation(r, c))


@settings(max_examples=40, deadline=None)
@given(roots, roots, roots, roots)
def test_infinity_degree_additive(a, b, c, d):
    r = RatFun(Poly.from_roots(a), Poly.from_roots(b))
    s = RatFun(Poly.from_roots(c), Poly.from_roots(d))
    assert infinity_degree(r * s) == infinity_degree(r) + infinity_degree(s)


def _linear_matrix(n, entries, singular):
    """n x n matrix with entries c + d t; when `singular`, the last row is
    t times the first row plus row 1 % (n - 1)."""
    t = RatFun.t()
    A = [[RatFun.const(entries[n * i + j]) + t * entries[9 + n * i + j]
          for j in range(n)] for i in range(n)]
    if singular:
        A[-1] = [t * a + b for a, b in zip(A[0], A[1 % (n - 1)])]
    return A


def _sympy_ratfun(r, t):
    import sympy

    def poly(p):
        return sum((sympy.Rational(c.re_num, c.re_den)
                    + sympy.I * sympy.Rational(c.im_num, c.im_den)) * t ** k
                   for k, c in enumerate(p.coeffs))

    return poly(r.num) / poly(r.den)


matrix_case = (st.integers(min_value=2, max_value=3),
               st.lists(small_int, min_size=18, max_size=18),
               st.booleans())


@settings(max_examples=25, deadline=None)
@given(*matrix_case, st.lists(small_int, min_size=3, max_size=3))
def test_solve_multiply_back(n, mat_entries, singular, rhs):
    A = _linear_matrix(n, mat_entries, singular)
    b = [RatFun.const(v) for v in rhs[:n]]
    if det_ratfun(A).is_zero():
        with pytest.raises(SingularMatrix):
            solve_linear(A, b)
        return
    x = solve_linear(A, b)
    for i in range(n):
        back = sum((A[i][j] * x[j] for j in range(n)), RatFun.const(0))
        assert back == b[i]


@settings(max_examples=25, deadline=None)
@given(*matrix_case)
def test_det_against_sympy(n, mat_entries, singular):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    A = _linear_matrix(n, mat_entries, singular)
    want = sympy.Matrix([[_sympy_ratfun(e, t) for e in row] for row in A]).det()
    assert sympy.cancel(_sympy_ratfun(det_ratfun(A), t) - want) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=4),
       st.lists(st.tuples(small_int, small_int), min_size=32, max_size=32))
def test_rank_against_sympy(rows, cols, inner, entries):
    # a rows x inner times inner x cols product has rank <= inner
    sympy = pytest.importorskip("sympy")
    left = [[entries[inner * i + k] for k in range(inner)] for i in range(rows)]
    right = [[entries[16 + cols * k + j] for j in range(cols)]
             for k in range(inner)]
    prod = [[sum((complex(*left[i][k]) * complex(*right[k][j])
                  for k in range(inner)), 0j) for j in range(cols)]
            for i in range(rows)]
    M = [[GaussRat(int(z.real), int(z.imag)) for z in row] for row in prod]
    want = sympy.Matrix([[int(z.real) + sympy.I * int(z.imag) for z in row]
                         for row in prod]).rank()
    pivots, _ = _row_echelon(M, cols)
    assert len(pivots) == want


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

class TestParsing:
    def test_gaussrat_forms(self):
        assert parse_gaussrat("3/4+1/2i") == GaussRat(Fraction(3, 4), Fraction(1, 2))
        assert parse_gaussrat("i") == GaussRat(0, 1)
        assert parse_gaussrat("-i") == GaussRat(0, -1)
        assert parse_gaussrat("7") == GaussRat(7)

    def test_ratfun_expression(self):
        r = parse_ratfun("1/(2*t*(t-1))")
        assert r == RatFun(ONE, (T * (T - ONE))) * RatFun.const(Fraction(1, 2))

    def test_negative_exponent(self):
        assert parse_ratfun("t^-2") == RatFun(ONE, T ** 2)

    def test_str_round_trip(self):
        import random

        from helpers import random_ratfun

        rng = random.Random(5)
        for _ in range(25):
            r = random_ratfun(rng, nonzero=True)
            assert parse_ratfun(str(r)) == r

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_ratfun("t +* 2")
        with pytest.raises(ParseError):
            parse_ratfun("(t")
        with pytest.raises(ParseError):
            parse_gaussrat("t+1")

    def test_zero_divisor_errors_keep_their_column(self):
        # both zeros appear only once the sum or difference is formed
        with pytest.raises(ParseError, match="^division by zero$") as exc:
            parse_ratfun("1/(t/t^2-1/t)")
        assert exc.value.column == 1
        with pytest.raises(ParseError,
                           match="^zero to a negative power$") as exc:
            parse_ratfun("(t-t)^-1")
        assert exc.value.column == 7


# Expression trees: ("int", n), ("i",), ("t",), ("paren", a), ("neg", a),
# ("pow", a, k) and (op, a, b) for op in + - * / and "juxt".  Each renders
# with the parentheses its precedence needs, from _EXPR (loosest) to _ATOM.
_EXPR, _TERM, _UNARY, _POWER, _ATOM = range(5)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "juxt": operator.mul}


def _render(node, need=_EXPR) -> str:
    kind = node[0]
    if kind == "int":
        text, level = str(node[1]), _ATOM
    elif kind in ("i", "t"):
        text, level = kind, _ATOM
    elif kind == "paren":
        text, level = f"({_render(node[1])})", _ATOM
    elif kind == "pow":
        text, level = f"{_render(node[1], _ATOM)}^{node[2]}", _POWER
    elif kind == "neg":
        text, level = "-" + _render(node[1], _UNARY), _UNARY
    elif kind in "+-":
        text = _render(node[1], _EXPR) + kind + _render(node[2], _TERM)
        level = _EXPR
    elif kind in "*/":
        text = _render(node[1], _TERM) + kind + _render(node[2], _UNARY)
        level = _TERM
    else:       # juxtaposition: the right factor may not start with '-'
        text = _render(node[1], _TERM) + " " + _render(node[2], _POWER)
        level = _TERM
    return f"({text})" if level < need else text


def _evaluate(node) -> RatFun:
    """The tree's value, one reduced RatFun operation at a time."""
    kind = node[0]
    if kind == "int":
        return RatFun.const(node[1])
    if kind == "i":
        return RatFun.const(GaussRat(0, 1))
    if kind == "t":
        return RatFun.t()
    if kind == "paren":
        return _evaluate(node[1])
    if kind == "neg":
        return -_evaluate(node[1])
    if kind == "pow":
        return _evaluate(node[1]) ** node[2]
    return _BINARY[kind](_evaluate(node[1]), _evaluate(node[2]))


_heights = st.one_of(st.integers(0, 9), st.integers(0, 10 ** 30))
_leaves = st.one_of(
    _heights.map(lambda n: ("int", n)),
    st.just(("i",)),
    st.just(("t",)),
    # a Gaussian coefficient a + b i of height up to 10^30
    st.tuples(_heights, _heights).map(
        lambda ab: ("+", ("int", ab[0]), ("juxt", ("int", ab[1]), ("i",)))),
)


def _extend(inner):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_BINARY)), inner, inner),
        st.tuples(st.just("pow"), inner, st.integers(-3, 3)),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("paren"), inner),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_parser_matches_stepwise_evaluation(tree):
    text = _render(tree)
    try:
        expected = _evaluate(tree)
    except ZeroDivisionError:
        with pytest.raises(ParseError):
            parse_ratfun(text)
        return
    assert parse_ratfun(text) == expected, text


def _reduced_by_gcd(num: Poly, den: Poly):
    g = gcd_poly(num, den)
    num, den = num // g, den // g
    lead_inv = den.lead().inverse()
    return num * lead_inv, den * lead_inv


_P, _R = exactalg._P, exactalg._R


def _parsed_pair(text):
    """The unreduced Z[i] pair the parser builds for `text`."""
    return exactalg._Parser(text).expr()


def _lin(c) -> RatFun:
    return RatFun(Poly.from_roots([c]))


class TestPrimeCertificate:
    def test_constants(self):
        import sympy

        assert sympy.isprime(_P)
        assert _P % 4 == 1
        assert _R * _R % _P == _P - 1

    @pytest.mark.parametrize("text, expected", [
        # a common factor
        ("(t^2-1)/(t*(t-1))", _lin(-1) / _lin(0)),
        # coprime over Q(i), but both images vanish at 1 mod p
        (f"(t-1)/(t-1-{_P})", _lin(1) / _lin(1 + _P)),
        # the numerator's top coefficient maps to 0 mod p
        (f"({_P}*t+1)/(t^2+1)",
         (_lin(0) * _P + 1) / (_lin(GaussRat(0, 1)) * _lin(GaussRat(0, -1)))),
        # a common factor whose image mod p is constant
        (f"(({_P}*t+1)*(t-3))/(({_P}*t+1)*(t-4))", _lin(3) / _lin(4)),
        # its top coefficient r - i lies in the kernel of i -> r
        (f"(({_R}-i)*t+1)/(t-2)",
         (_lin(0) * GaussRat(_R, -1) + 1) / _lin(2)),
    ])
    def test_fallback_matches_euclid(self, text, expected):
        num, den = _parsed_pair(text)
        assert not exactalg._coprime(num, den)
        assert parse_ratfun(text) == RatFun(exactalg._zpoly(num),
                                            exactalg._zpoly(den)) == expected

    @pytest.mark.parametrize("text, expected", [
        ("((t^2-1)/(t-1))^2", _lin(-1) ** 2),
        ("((2*t^2-2)/(3*t-3))^3", _lin(-1) ** 3 * Fraction(8, 27)),
        ("(((1+i)*t^2-1-i)/((2-i)*(t-1)))^-2",
         (_lin(-1) * GaussRat(Fraction(1, 5), Fraction(3, 5))) ** -2),
    ])
    def test_power_base_fallback_scales_into_gaussian_integers(
            self, text, expected):
        base = _parsed_pair(text.rsplit("^", 1)[0])
        assert not exactalg._coprime(*base)
        num, den = exactalg._coprime_pair(*base)
        assert all(isinstance(x, int) for c in num + den for x in c)
        assert exactalg._coprime(num, den)
        assert parse_ratfun(text) == expected

    def test_certified_entries_take_no_gcd(self, monkeypatch):
        expected = {
            "1/(2*t)-1/(2*(t-1))":
                (_lin(0) * _lin(1)).inverse() * Fraction(-1, 2),
            "((3+4i)*t-1)/((1-2i)*t^2+i)":
                (_lin(0) * GaussRat(3, 4) - 1) / (
                    _lin(0) ** 2 * GaussRat(1, -2) + GaussRat(0, 1)),
        }

        def no_gcd(a, b):
            raise AssertionError("gcd_poly called on a certified pair")

        monkeypatch.setattr(exactalg, "gcd_poly", no_gcd)
        for text, value in expected.items():
            assert parse_ratfun(text) == value


class TestReduction:
    def test_powers_reduce_their_base_first(self, monkeypatch):
        seen = []

        def gcd_degrees(a, b):
            seen.append(max(a.deg, b.deg))
            return gcd_poly(a, b)

        monkeypatch.setattr(exactalg, "gcd_poly", gcd_degrees)
        assert parse_ratfun("((t-1)/(t-1))^400") == RatFun.const(1)
        assert parse_ratfun("(t^2/t)^-300") == RatFun(ONE, T ** 300)
        assert seen and max(seen) <= 2

    @pytest.mark.parametrize("num, den", [
        (Poly([2]), Poly([0, 4])),
        (Poly([2]), Poly([4])),
        (Poly([1, 0, 1]), Poly([GaussRat(0, 5)])),
        (Poly([GaussRat(3, 1)]), Poly([2, 0, GaussRat(1, -1)])),
        (Poly([0, Fraction(1, 3)]), Poly([Fraction(1, 2)])),
    ])
    def test_constant_side_matches_gcd_form(self, num, den):
        r = RatFun(num, den)
        assert (r.num, r.den) == _reduced_by_gcd(num, den)


# ---------------------------------------------------------------------------
# RatFun +, - and * reduce from the operands' factors
# ---------------------------------------------------------------------------

_POINTS = [GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1),
           GaussRat(1, 1), GaussRat(2, -1)]
_HEIGHT = 10 ** 30
_big = st.fractions(min_value=-_HEIGHT, max_value=_HEIGHT,
                    max_denominator=_HEIGHT)
_big_gauss = st.builds(GaussRat, _big, _big)
# products of (t - p)^k over a few Gaussian points, so that two draws often
# share factors, times a cofactor that may carry huge coefficients
_point_powers = st.lists(
    st.tuples(st.sampled_from(_POINTS), st.integers(min_value=1, max_value=2)),
    max_size=3)
_cofactor = st.one_of(
    st.just(ONE),
    st.lists(st.one_of(small_int.map(GaussRat), _big_gauss),
             min_size=1, max_size=3).map(Poly).filter(lambda p: not p.is_zero()))
_factored = st.builds(
    lambda powers, cofactor, lead: expand(
        (Poly.from_roots([p]), k) for p, k in powers) * cofactor * lead,
    _point_powers, _cofactor, _big_gauss.filter(bool))
_ratfun = st.one_of(
    st.builds(RatFun, _factored, _factored),
    st.builds(RatFun, _factored),                   # constant denominator
    _big_gauss.map(RatFun.const))


def _assert_canonical(r: RatFun):
    assert r.den.lead() == GaussRat(1)
    assert gcd_poly(r.num, r.den).deg == 0
    if r.num.is_zero():
        assert r.den == ONE


_UNREDUCED = {
    "+": lambda a, b: RatFun(a.num * b.den + b.num * a.den, a.den * b.den),
    "-": lambda a, b: RatFun(a.num * b.den - b.num * a.den, a.den * b.den),
    "*": lambda a, b: RatFun(a.num * b.num, a.den * b.den),
}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# a = r + u and b = v - r, each reduced by the general constructor: the
# poles of r cancel in a + b, so its numerator shares a factor with gcd of
# the denominators
_pair = st.one_of(
    st.tuples(_ratfun, _ratfun),
    st.builds(lambda r, u, v: (_UNREDUCED["+"](r, u), _UNREDUCED["-"](v, r)),
              _ratfun, _ratfun, _ratfun))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_pair, st.sampled_from(sorted(_OPS)))
def test_sum_and_product_match_general_reduction(pair, op):
    a, b = pair
    got = _OPS[op](a, b)
    assert got == _UNREDUCED[op](a, b)
    _assert_canonical(got)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_ratfun)
def test_cancelling_sum_and_product(a):
    for zero in (a + (-a), a - a):
        assert (zero.num, zero.den) == (Poly(), ONE)
    if not a.is_zero():
        unit = a * a.inverse()
        assert (unit.num, unit.den) == (ONE, ONE)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_ratfun)
def test_str_round_trip_at_guard_height(r):
    assert parse_ratfun(str(r)) == r


class TestNegation:
    """-r keeps r's reduced pair: no gcd is taken."""

    def test_takes_no_gcd(self, monkeypatch):
        r = RatFun(Poly.from_roots([1, GaussRat(0, 2)]) * 3,
                   Poly.from_roots([0, 0, 5]))

        def refuse(a, b):
            raise AssertionError("gcd_poly called")

        monkeypatch.setattr(exactalg, "gcd_poly", refuse)
        neg = -r
        assert (neg.num, neg.den) == (-r.num, r.den)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_ratfun)
    def test_matches_general_reduction(self, r):
        assert -r == RatFun(-r.num, r.den)
        _assert_canonical(-r)
