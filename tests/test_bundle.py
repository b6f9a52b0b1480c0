"""Splitting types, divisors, sections and section-space bases."""

import random

import pytest

from meroconn import (
    INF,
    Divisor,
    GaussRat,
    Poly,
    RatFun,
    Section,
    SplittingType,
    chern,
    parse_divisor,
    pole_profile,
    section_space_basis,
)
from meroconn.errors import PoleOutsideAllowedSet, ZeroSection
from helpers import lin, random_ratfun

ONE = RatFun.const(1)
ZERO = RatFun.const(0)
T = RatFun.t()


class TestChern:
    def test_values(self):
        assert chern(SplittingType([0, 0])) == 0
        assert chern(SplittingType([2, -1])) == 1
        assert chern(SplittingType([3])) == 3

    def test_permutation_invariant(self):
        rng = random.Random(3)
        for _ in range(10):
            twists = [rng.randint(-3, 3) for _ in range(4)]
            shuffled = list(twists)
            rng.shuffle(shuffled)
            assert chern(SplittingType(twists)) == chern(SplittingType(shuffled))


class TestDivisor:
    def test_parse_round_trip(self):
        d = parse_divisor("0^1,1^1,inf^2")
        assert d.degree == 4
        assert d.order_at(INF) == 2
        assert d.order_at(GaussRat(1)) == 1
        assert parse_divisor(str(d)).entries == d.entries

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            Divisor([(GaussRat(0), 1), (GaussRat(0), 2)])

    def test_infinity_mixed_with_finite_points(self):
        d = Divisor([(GaussRat(0), 1), (INF, 2), (GaussRat(1, 1), 3)])
        assert d == Divisor([(INF, 2), (GaussRat(1, 1), 3), (GaussRat(0), 1)])
        assert d != Divisor([(INF, 3), (GaussRat(1, 1), 3), (GaussRat(0), 1)])
        assert d.order_at(INF) == 2
        assert d.order_at(GaussRat(1, 1)) == 3
        assert d.order_at(0) == 1
        assert d.order_at(GaussRat(2)) == 0
        assert Divisor([(GaussRat(0), 1)]).order_at(INF) == 0
        with pytest.raises(ValueError, match="duplicate"):
            Divisor([(INF, 1), (GaussRat(0), 1), (INF, 2)])

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            Divisor([(GaussRat(0), 0)])


class TestPoleProfile:
    def test_simple_pole(self):
        s = Section([ONE / T, ONE], SplittingType([0, 0]))
        orders, inf_order, degree = pole_profile(s, {GaussRat(0)})
        assert orders == {GaussRat(0): 1}
        assert inf_order == 0
        assert degree == 1

    def test_polynomial_growth(self):
        s = Section([T ** 2], SplittingType([0]))
        orders, inf_order, degree = pole_profile(s, set())
        assert orders == {} and inf_order == 2 and degree == 2

    def test_twisted_constant_vanishes_at_infinity(self):
        s = Section([ONE], SplittingType([3]))
        orders, inf_order, degree = pole_profile(s, set())
        assert orders == {} and inf_order == -3 and degree == 0

    def test_pole_outside_named(self):
        s = Section([ONE / (T - RatFun.const(7))], SplittingType([0]))
        with pytest.raises(PoleOutsideAllowedSet) as exc:
            pole_profile(s, {GaussRat(0)})
        assert "7" in str(exc.value)

    def test_zero_section_rejected(self):
        with pytest.raises(ZeroSection):
            pole_profile(Section([ZERO], SplittingType([0])), set())


class TestSectionSpaceBasis:
    def test_trivial_rank2_one_infinity(self):
        basis = section_space_basis(SplittingType([0, 0]),
                                    parse_divisor("inf^1"))
        assert len(basis) == 4
        comps = {tuple(str(c) for c in s.comps) for s in basis}
        assert comps == {("1", "0"), ("t", "0"), ("0", "1"), ("0", "t")}

    def test_finite_twist_point(self):
        basis = section_space_basis(SplittingType([0]), parse_divisor("0^1"))
        assert [str(s.comps[0]) for s in basis] == ["(1)/(t)", "1"]

    def test_negative_twist_dimension(self):
        basis = section_space_basis(SplittingType([-2, 0]),
                                    parse_divisor("inf^1"))
        assert len(basis) == 2

    def test_basis_degree_and_independence(self):
        E = parse_divisor("0^1,inf^1")
        splitting = SplittingType([1, -1])
        basis = section_space_basis(splitting, E)
        allowed = {GaussRat(0)}
        seen = set()
        for s in basis:
            _, _, degree = pole_profile(s, allowed)
            assert degree <= E.degree
            key = tuple(str(c) for c in s.comps)
            assert key not in seen  # monomial echelon => independence
            seen.add(key)


def test_scalar_multiple_degree_subadditive():
    rng = random.Random(11)
    splitting = SplittingType([0])
    points = [GaussRat(k) for k in range(-2, 3)]

    def rand_lin_ratfun():
        num = Poly.from_roots([rng.randint(-2, 2)
                               for _ in range(rng.randint(0, 2))])
        den = Poly.from_roots([rng.randint(-2, 2)
                               for _ in range(rng.randint(0, 2))])
        return RatFun(num, den)

    for _ in range(25):
        f, g = rand_lin_ratfun(), rand_lin_ratfun()
        if (f * g).is_zero():
            continue
        allowed = set(points)
        _, _, deg_f = pole_profile(Section([f], splitting), allowed)
        _, _, deg_g = pole_profile(Section([g], splitting), allowed)
        _, _, deg_fg = pole_profile(Section([f * g], splitting), allowed)
        assert deg_fg <= deg_f + deg_g
