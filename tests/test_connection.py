"""Connection validation, covariant derivative, duals, local data."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meroconn import (
    Connection,
    Divisor,
    GaussRat,
    Poly,
    RatFun,
    Section,
    SplittingType,
    chern,
    covariant_derivative,
    covariant_jet,
    det_connection,
    dual_connection,
    fixture,
    fixture_names,
    infinity_degree,
    iterated,
    local_data,
    pole_profile,
    residue,
    validate,
)
from meroconn.cli import parse_connection_file
from meroconn.errors import NotASingularPoint, ValidationFailed
from helpers import (
    GAUGE_TWIN_CONN,
    IRREGULAR_CONN,
    lin,
    rand_fraction,
    rand_gauss,
    random_connection,
    random_pole_data_connection,
    random_poly_section,
    random_rank1_connection,
    random_rank2_connection,
    rng_for,
)

ONE = RatFun.const(1)
ZERO = RatFun.const(0)
T = RatFun.t()


def zero_rank1():
    """M = 0 with a formal simple pole at 0 (plain differentiation)."""
    return Connection(SplittingType([0]), Divisor([(GaussRat(0), 1)]),
                      [[ZERO]])


class TestValidate:
    def test_euler_passes(self):
        conn = fixture("euler-half")
        assert conn.validate().ok

    def test_constant_entry_fails_at_infinity(self):
        conn = Connection(SplittingType([0, 0]),
                          Divisor([(GaussRat(0), 1)]),
                          [[ZERO, -ONE], [ZERO, ZERO]])
        report = conn.validate()
        assert not report.ok
        assert any("infinity" in v for v in report.violations)

    def test_twisted_gauge_cancellation(self):
        # twist 1, M = -1/t: the infinity-frame matrix vanishes identically
        conn = Connection(SplittingType([1]), Divisor([(GaussRat(0), 1)]),
                          [[-ONE / T]])
        assert conn.validate().ok

    def test_pole_order_overflow(self):
        conn = Connection(SplittingType([0]), Divisor([(GaussRat(0), 1)]),
                          [[ONE / T ** 2]])
        report = conn.validate()
        assert not report.ok
        assert any("pole order 2" in v for v in report.violations)

    def test_pole_outside_divisor(self):
        conn = Connection(SplittingType([0]), Divisor([(GaussRat(0), 1)]),
                          [[ONE / (T - RatFun.const(3))]])
        assert not conn.validate().ok

    def test_ensure_valid_raises_with_violations(self):
        conn = Connection(SplittingType([0]), Divisor([(GaussRat(0), 1)]),
                          [[ONE / T ** 2]])
        with pytest.raises(ValidationFailed) as exc:
            conn.ensure_valid()
        assert exc.value.report is conn.validate()
        assert exc.value.report.violations == [
            "entry (0,0) has pole order 2 > 1 at t=0"]
        assert "pole order 2 > 1" in str(exc.value)

    def test_residue_theorem_for_accepted(self):
        rng = rng_for("residue-theorem")
        for _ in range(25):
            conn = random_connection(rng)
            total = sum((residue(conn.trace(), c)
                         for c in conn.singular_points), GaussRat(0))
            assert total == GaussRat(-chern(conn.splitting))


def _per_pole_cases():
    rng = rng_for("per-pole-data")
    cases = [pytest.param(fixture(name), id=name) for name in fixture_names()]
    cases += [pytest.param(random_connection(rng), id=f"random{k}")
              for k in range(12)]
    return cases + _pole_data_cases()


def _pole_data_cases():
    rng = rng_for("pole-data")
    cases = [pytest.param(random_pole_data_connection(rng), id=f"poles{k}")
             for k in range(8)]
    rng = rng_for("pole-data-rank34")
    return cases + [pytest.param(random_pole_data_connection(rng, rank),
                                 id=f"poles-rank{rank}-{k}")
                    for rank in (3, 4) for k in range(4)]


def _sympy_gauss(c):
    import sympy

    return (sympy.Rational(c.re_num, c.re_den)
            + sympy.I * sympy.Rational(c.im_num, c.im_den))


def _sympy_ratfun(r, t):
    def poly(p):
        return sum(_sympy_gauss(c) * t ** k for k, c in enumerate(p.coeffs))

    return poly(r.num) / poly(r.den)


class TestPerPoleData:
    """validate keeps the largest entry pole order and res(tr M, c) at
    each divisor point."""

    @pytest.mark.parametrize("conn", _per_pole_cases())
    def test_trace_residues(self, conn):
        report = conn.validate()
        assert list(report.trace_residues) == conn.singular_points
        for c in conn.singular_points:
            assert report.trace_residues[c] == residue(conn.trace(), c)

    @pytest.mark.parametrize("conn", _per_pole_cases())
    def test_entry_orders(self, conn):
        report = conn.validate()
        assert len(report.entry_orders) == conn.rank
        for row, krow in zip(conn.matrix, report.entry_orders):
            for e, ks in zip(row, krow):
                assert ks == [0 if e.is_zero() else e.den.split_root(c)[0]
                              for c in conn.singular_points]
        assert list(report.pole_orders.values()) == [
            max(ks[p] for krow in report.entry_orders for ks in krow)
            for p in range(len(conn.singular_points))]

    @pytest.mark.parametrize("conn", _pole_data_cases())
    def test_trace_residues_against_sympy(self, conn):
        import sympy

        t = sympy.Symbol("t")
        diagonal = [_sympy_ratfun(conn.matrix[k][k], t)
                    for k in range(conn.rank)]
        report = conn.validate()
        # entry (0, 0) has the divisor's full order, 1-3, at each point
        assert report.pole_orders == dict(conn.divisor.finite_entries())
        for c, m in conn.divisor.finite_entries():
            # res(tr M, c) sums the diagonal's residues, each by Cauchy's
            # formula at a pole of order <= m (sympy.residue's series
            # expansion takes seconds on these coefficients)
            z = _sympy_gauss(c)
            want = sum(sympy.diff(sympy.cancel(e * (t - z) ** m), t, m - 1)
                       .subs(t, z) for e in diagonal) / sympy.factorial(m - 1)
            assert sympy.expand(want - _sympy_gauss(report.trace_residues[c])) \
                == 0

    def test_trace_residue_at_gaussian_double_pole(self):
        import sympy

        c = "(t-(1+2*i)/3)"
        conn = parse_connection_file(
            "rank 2\nsplitting 0 0\npoint (1+2*i)/3 order 2\n"
            "point -1/2 order 1\npoint 1 order 1\nmatrix\n"
            f"1/(5*{c}^2)+1/(2*{c})-1/(4*(t+1/2))-1/(4*(t-1)) "
            f"1/(3*{c}^2)+1/(2*(t+1/2))-1/(2*(t-1))\n"
            f"1/(4*{c})-1/(4*(t-1)) -1/(3*{c})+1/(6*(t+1/2))+1/(6*(t-1))\n"
            "end\n")
        report = conn.validate()
        point = GaussRat(Fraction(1, 3), Fraction(2, 3))
        assert report.entry_orders[0][0] == [2, 1, 1]
        t = sympy.Symbol("t")
        trace = sum(_sympy_ratfun(conn.matrix[k][k], t) for k in range(2))
        for z in conn.singular_points:
            want = sympy.residue(trace, t, _sympy_gauss(z))
            assert sympy.expand(
                want - _sympy_gauss(report.trace_residues[z])) == 0
        assert report.trace_residues[point] == GaussRat(Fraction(1, 6))

    def test_pole_data_draws_reach_high_orders(self):
        orders = [m for conn in (p.values[0] for p in _pole_data_cases())
                  for _, m in conn.divisor.finite_entries()]
        assert {2, 3} <= set(orders)

    def test_invalid_connection_has_no_trace_residues(self):
        conn = Connection(SplittingType([0]), Divisor([(GaussRat(0), 1)]),
                          [[ONE / T ** 2]])
        report = conn.validate()
        assert report.pole_orders == {GaussRat(0): 2}
        assert report.trace_residues == {}


def _twisted_frame_validate(conn):
    """Validation by the twisted-frame matrix N_ki = M_ki t^(a_i - a_k) +
    (a_i / t) delta_ki, built entry by entry: the reference for the degree
    arithmetic of validate."""
    violations = []
    for i, row in enumerate(conn.matrix):
        for j, entry in enumerate(row):
            if entry.is_zero():
                continue
            den = entry.den
            for c, m in conn.divisor.finite_entries():
                k = den.root_multiplicity(c)
                if k > m:
                    violations.append(
                        f"entry ({i},{j}) has pole order {k} > {m} at t={c}")
                den = den // (Poly([-c, GaussRat(1)]) ** k)
            if den.deg > 0:
                violations.append(f"entry ({i},{j}) has poles outside the "
                                  f"divisor (factor {den})")
    a = conn.splitting.twists
    for k in range(conn.rank):
        for i in range(conn.rank):
            entry = conn.matrix[k][i] * T ** (a[i] - a[k])
            if i == k and a[i] != 0:
                entry = entry + RatFun.const(a[i]) / T
            if not entry.is_zero() and infinity_degree(entry) > -2:
                violations.append(
                    f"infinity condition fails for entry ({k},{i}): "
                    f"twisted degree {infinity_degree(entry)} > -2")
    warnings = ([] if conn.divisor.entries else
                ["empty pole divisor: monodromy is necessarily trivial"])
    if not violations:
        total = sum((residue(conn.trace(), c) for c in conn.singular_points),
                    GaussRat(0))
        if total != GaussRat(-chern(conn.splitting)):
            violations.append(
                f"residue sum {total} != -c(V) = {-chern(conn.splitting)}")
    return not violations, violations, warnings


def _random_pole_connection(rng):
    """Rank 1-3, twists in -2..2, poles of order 1-3 on the divisor and
    entries whose poles may exceed it, lie off it, grow at infinity or, on
    the diagonal, cancel the twist's a_k / t."""
    rank = rng.randint(1, 3)
    twists = [rng.randint(-2, 2) for _ in range(rank)]
    pool = [GaussRat(c) for c in range(-2, 4)] + [GaussRat(1, 1)]
    points = rng.sample(pool, rng.randint(1, 3))
    divisor = Divisor([(c, rng.randint(1, 3)) for c in points])
    orders = dict(divisor.finite_entries())

    def over(c, j=1):
        return RatFun(Poly.const(1), Poly.from_roots([c] * j))

    def term():
        if rng.random() < 0.1:
            c, j = GaussRat(rng.randint(4, 6)), 1            # off the divisor
        else:
            c = rng.choice(points)
            j = rng.randint(1, orders[c] + (rng.random() < 0.15))
        power = rng.choice([0, 0, 0, 1, 2])                # growth at infinity
        return RatFun.const(GaussRat(rand_fraction(rng))) * T ** power * over(c, j)

    matrix = []
    for k in range(rank):
        row = []
        for i in range(rank):
            entry = ZERO
            if rng.random() < 0.7:
                for _ in range(rng.randint(1, 2)):
                    entry = entry + term()
            if i == k and twists[k] and rng.random() < 0.5:
                entry = entry - RatFun.const(twists[k]) * over(rng.choice(points))
            row.append(entry)
        matrix.append(row)
    return Connection(SplittingType(twists), divisor, matrix)


class TestValidateAgainstTwistedFrame:
    def test_matches_reference(self):
        rng = rng_for("twisted-frame")
        conns = [_random_pole_connection(rng) for _ in range(150)]
        conns += [fixture(name) for name in fixture_names()]
        conns += [random_rank1_connection(rng, twist=rng.randint(-2, 2))
                  for _ in range(10)]
        valid = 0
        for conn in conns:
            report = validate(conn)
            got = (report.ok, report.violations, report.warnings)
            assert got == _twisted_frame_validate(conn)
            valid += report.ok
        assert valid >= 20

    def test_trace_formed_once(self, monkeypatch):
        calls = []
        trace = Connection.trace

        def counted(self):
            calls.append(self)
            return trace(self)

        conn = fixture("triangle-diag")
        assert len(conn.singular_points) > 1
        monkeypatch.setattr(Connection, "trace", counted)
        assert validate(conn).ok
        # the residues come from the diagonal entries; tr M is not formed
        assert calls == []


class TestCovariantDerivative:
    def test_plain_derivative(self):
        conn = zero_rank1()
        out = covariant_derivative(conn, Section([T ** 2], conn.splitting))
        assert out.comps[0] == RatFun.const(2) * T

    def test_euler_constant_section(self):
        conn = fixture("euler-half")
        out = covariant_derivative(conn, Section([ONE], conn.splitting))
        assert out.comps[0] == conn.matrix[0][0]

    def test_triangle_unit_vector(self):
        conn = fixture("triangle-nilpotent")
        out = covariant_derivative(conn, Section([ONE, ZERO], conn.splitting))
        assert out.comps == (conn.matrix[0][0], conn.matrix[1][0])

    def test_leibniz_identity(self):
        rng = rng_for("leibniz")
        for _ in range(15):
            conn = random_connection(rng)
            omega = random_poly_section(rng, conn)
            f = RatFun(Poly([GaussRat(rng.randint(-4, 4)) for _ in range(3)]))
            if f.is_zero():
                continue
            lhs = covariant_derivative(conn, omega.scale(f))
            rhs = covariant_derivative(conn, omega).scale(f) + \
                omega.scale(f.derivative())
            assert lhs.comps == rhs.comps

    def test_infinity_pole_order_drops_by_one(self):
        rng = rng_for("infinity-orders")
        checked = 0
        while checked < 10:
            conn = random_rank2_connection(rng)
            omega = random_poly_section(rng, conn, deg=rng.randint(1, 3))
            allowed = set(conn.singular_points)
            _, m, _ = pole_profile(omega, allowed)
            if m < 1:
                continue
            out = covariant_derivative(conn, omega)
            if out.is_zero():
                continue
            _, m_out, _ = pole_profile(out, allowed)
            assert m_out == m - 1
            checked += 1


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from([*fixture_names(), "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=5))
@example("two-point-reducible", 0, 5)
def test_covariant_jet_matches_iterates(source, seed, k):
    # the Taylor jet at b against the exact iterates evaluated at b, for
    # k <= rank + 3, a section with a pole at a random Gaussian integer
    # and random Gaussian-rational points b off the divisor and that pole
    rng = random.Random(seed)
    conn = fixture(source) if source != "random" else random_connection(rng)
    pole = rand_gauss(rng, -4, 4)
    section = random_poly_section(rng, conn, deg=1).scale(
        RatFun(Poly.const(1), Poly.from_roots([pole])))
    k = min(k, conn.rank + 3)
    its = iterated(conn, section, k)
    for _ in range(3):
        b = GaussRat(rand_fraction(rng), rand_fraction(rng))
        if b != pole and b not in conn.singular_points:
            assert covariant_jet(conn, section, b, k + 1) == \
                [it.eval(b) for it in its]


class TestDual:
    def test_euler_negation(self):
        conn = fixture("euler-half")
        dual = dual_connection(conn)
        assert dual.matrix[0][0] == -conn.matrix[0][0]
        assert dual.splitting.twists == (0,)

    def test_involution(self):
        for name in ("euler-half", "triangle-nilpotent", "triangle-diag"):
            conn = fixture(name)
            back = dual_connection(dual_connection(conn))
            assert back.matrix == conn.matrix
            assert back.splitting == conn.splitting

    def test_pairing_identity(self):
        # d<delta, omega> = <dual-derivative delta, omega> + <delta, derivative omega>
        rng = rng_for("pairing")
        for _ in range(10):
            conn = random_rank2_connection(rng)
            dual = dual_connection(conn)
            omega = random_poly_section(rng, conn)
            delta = random_poly_section(rng, dual)
            pairing = sum((d * w for d, w in zip(delta.comps, omega.comps)),
                          ZERO)
            ddelta = covariant_derivative(dual, delta)
            domega = covariant_derivative(conn, omega)
            rhs = sum((a * w for a, w in zip(ddelta.comps, omega.comps)), ZERO) + \
                sum((d * b for d, b in zip(delta.comps, domega.comps)), ZERO)
            assert pairing.derivative() == rhs


class TestDetConnection:
    def test_rank1_identity(self):
        conn = fixture("euler-half")
        assert det_connection(conn) is conn

    def test_trace_and_twist(self):
        conn = fixture("triangle-diag")
        det = det_connection(conn)
        assert det.rank == 1
        assert det.splitting.twists == (0,)
        assert det.matrix[0][0] == conn.trace()

    def test_residue_sum_nontrivial_splitting(self):
        # twist sum 1 via the gauge-cancellation instance plus a trivial line
        rng = rng_for("det-split")
        for _ in range(10):
            conn = random_rank1_connection(rng, twist=1)
            det = det_connection(conn)
            total = sum((residue(det.matrix[0][0], c)
                         for c in det.singular_points), GaussRat(0))
            assert total == GaussRat(-1)


class TestLocalData:
    def test_euler_residues(self):
        conn = fixture("euler-half")
        at0 = local_data(conn, 0)
        assert at0.laurent[0][0][0] == GaussRat(Fraction(-1, 2))
        assert np.allclose(at0.exponents, [-0.5])
        at1 = local_data(conn, 1)
        assert at1.laurent[0][0][0] == GaussRat(Fraction(1, 2))

    def test_triangle_nilpotent_residue_matrix(self):
        conn = fixture("triangle-nilpotent")
        ld = local_data(conn, 0)
        assert ld.laurent[0] == [[GaussRat(0), GaussRat(1)],
                                 [GaussRat(0), GaussRat(0)]]
        assert np.allclose(ld.exponents, [0, 0])
        assert ld.effective_order == 1 and ld.leading_nilpotent

    def test_scalar_residue_exponents_exact(self):
        # C_1 = I/3 at 0: the eigenvalues of a scalar matrix are exact,
        # where the roots of its characteristic polynomial split by 6e-9
        third = RatFun.const(GaussRat(Fraction(1, 3)))
        m = third / T - third / (T - ONE)
        conn = Connection(SplittingType([0, 0]),
                          Divisor([(GaussRat(0), 1), (GaussRat(1), 1)]),
                          [[m, ZERO], [ZERO, m]])
        assert np.max(np.abs(np.array(local_data(conn, 0).exponents)
                             - 1 / 3)) <= 1e-15
        assert np.max(np.abs(np.array(local_data(conn, 1).exponents)
                             + 1 / 3)) <= 1e-15

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_poles_are_simple(self, name):
        conn = fixture(name)
        for c in conn.singular_points:
            assert local_data(conn, c).effective_order == 1

    @pytest.mark.parametrize("text, point, nilpotent", [
        (IRREGULAR_CONN, 0, False), (GAUGE_TWIN_CONN, 1, True)],
        ids=["irregular", "gauge-twin"])
    def test_higher_order_pole_labels(self, text, point, nilpotent):
        conn = parse_connection_file(text)
        ld = local_data(conn, point)
        assert ld.effective_order == 2
        assert ld.leading_nilpotent is nilpotent
        assert any(e for row in ld.laurent[1] for e in row)
        # the other points of both examples are simple poles
        for c in conn.singular_points:
            if c != GaussRat(point):
                assert local_data(conn, c).effective_order == 1

    def test_effective_order_below_the_divisor(self):
        # the divisor allows order 2 at 0 where M has a simple pole, so C_2
        # vanishes: the effective order is 1 (the old order-drop warning)
        conn = Connection(SplittingType([0]),
                          Divisor([(GaussRat(0), 2), (GaussRat(1), 1)]),
                          [[ONE / T - ONE / (T - ONE)]])
        ld = local_data(conn, 0)
        assert len(ld.laurent) == 2 and ld.effective_order == 1
        assert not ld.leading_nilpotent

    def test_not_singular(self):
        with pytest.raises(NotASingularPoint):
            local_data(fixture("euler-half"), 5)
