"""Cyclic-vector machinery: Wronskians, bounds, scalar equations."""

from fractions import Fraction

import pytest

from meroconn import (
    Connection,
    Divisor,
    GaussRat,
    Poly,
    RatFun,
    ScalarODE,
    Section,
    SplittingType,
    apparent_singularities,
    covariant_derivative,
    cyclic_reduce,
    estimate_H,
    fixture,
    fuchs_check,
    generation_bound,
    generation_index_at,
    h_bound,
    infinity_degree,
    iterated,
    parse_divisor,
    pole_profile,
    residue,
    residue_identity_check,
    section_space_basis,
    valuation,
    wronskian_determinant,
)
from meroconn import exactalg as exactalg_mod
from meroconn import wronskian as wronskian_mod
from meroconn.errors import NotCyclic, SingularEvaluationPoint, ZeroSection
from meroconn.fixtures import fixture_file, fixture_names
from helpers import (
    random_connection,
    random_poly_section,
    random_rank2_connection,
    rng_for,
    run_json,
)

ONE = RatFun.const(1)
ZERO = RatFun.const(0)
T = RatFun.t()


def zero_rank1(point=0):
    return Connection(SplittingType([0]), Divisor([(GaussRat(point), 1)]),
                      [[ZERO]])


def zero_rank2(point=0):
    return Connection(SplittingType([0, 0]), Divisor([(GaussRat(point), 1)]),
                      [[ZERO, ZERO], [ZERO, ZERO]])


def reducible_mu_quarter():
    """M = [[0,1],[mu,0]]/(t(t-1)) with mu = 1/4."""
    return fixture("two-point-reducible")


class TestIterated:
    def test_k_zero(self):
        conn = fixture("euler-half")
        omega = Section([ONE], conn.splitting)
        assert iterated(conn, omega, 0) == [omega]

    def test_plain_derivatives(self):
        conn = zero_rank1()
        its = iterated(conn, Section([T ** 2], conn.splitting), 2)
        assert [s.comps[0] for s in its] == \
            [T ** 2, RatFun.const(2) * T, RatFun.const(2)]

    def test_triangle_unit_vector(self):
        conn = fixture("triangle-nilpotent")
        its = iterated(conn, Section([ONE, ZERO], conn.splitting), 1)
        assert its[1].comps == (conn.matrix[0][0], conn.matrix[1][0])


class TestWronskianDeterminant:
    def test_rank1_is_component(self):
        conn = fixture("euler-half")
        omega = Section([T + ONE], conn.splitting)
        assert wronskian_determinant(conn, omega) == T + ONE

    def test_rank2_direct_expansion(self):
        conn = reducible_mu_quarter()
        omega = Section([ONE, ZERO], conn.splitting)
        mu_over = RatFun.const(Fraction(1, 4)) / (T * (T - ONE))
        assert wronskian_determinant(conn, omega) == mu_over

    def test_zero_section_rejected(self):
        conn = fixture("euler-half")
        with pytest.raises(ZeroSection):
            wronskian_determinant(conn, Section([ZERO], conn.splitting))

    def test_irreducible_fixtures_nonzero_wronskian(self):
        rng = rng_for("nonzero-wronskian")
        for name in ("triangle-nilpotent", "triangle-diag"):
            conn = fixture(name)
            for _ in range(20):
                omega = random_poly_section(rng, conn, deg=3)
                assert not wronskian_determinant(conn, omega).is_zero()


class TestHBound:
    def test_line_bundle_case(self):
        assert h_bound(fixture("euler-half"), 2) == 3

    def test_formula_rank2(self):
        conn = fixture("triangle-nilpotent")  # alpha=2, sum m = 3, c = 0
        assert h_bound(conn, 1) == 3 + 4 - 1 + 0

    def test_formula_rank3(self):
        conn = Connection(
            SplittingType([0, 0, 0]),
            Divisor([(GaussRat(k), 1) for k in range(3)]),
            [[ZERO] * 3 for _ in range(3)],
        )
        assert h_bound(conn, 0) == 6 + 3 - 3


class TestGenerationBound:
    def test_rank1_multiplicity(self):
        conn = zero_rank1(point=5)
        omega = Section([T ** 2 * (T - ONE)], conn.splitting)
        assert generation_bound(conn, omega) == 3
        assert generation_index_at(conn, omega, 0) == 3
        assert generation_index_at(conn, omega, 2) == 1

    def test_rank2_constant_numerator(self):
        conn = reducible_mu_quarter()
        omega = Section([ONE, ZERO], conn.splitting)
        assert generation_bound(conn, omega) == 2

    def test_soundness_at_random_points(self):
        rng = rng_for("generation-soundness")
        for name in ("triangle-nilpotent", "triangle-diag"):
            conn = fixture(name)
            sing = set(conn.singular_points)
            for _ in range(10):
                omega = random_poly_section(rng, conn, deg=2)
                a = wronskian_determinant(conn, omega)
                bound = generation_bound(conn, omega)
                for _ in range(5):
                    b = GaussRat(rng.randint(6, 30))
                    if b in sing:
                        continue
                    h = generation_index_at(conn, omega, b)
                    assert h <= bound
                    if not a.eval(b).is_zero():
                        assert h == conn.rank

    def test_singular_point_rejected(self):
        conn = fixture("triangle-diag")
        omega = Section([ONE, ZERO], conn.splitting)
        with pytest.raises(SingularEvaluationPoint):
            generation_index_at(conn, omega, 0)

    def test_pole_of_the_section_rejected(self):
        conn = fixture("euler-half")
        omega = Section([ONE / (T - RatFun.const(5))], conn.splitting)
        with pytest.raises(SingularEvaluationPoint, match="t = 5 is a pole"):
            generation_index_at(conn, omega, 5)
        assert generation_index_at(conn, omega, 4) == 1

    # Wronskians with one squarefree factor that vanishes at a singular
    # point and off the singular set: t(t-3) on euler-half, and
    # 59/4 t (t - 24/59)/((t-1)(t-2)) on triangle-diag
    def test_zero_sharing_a_factor_with_a_pole(self):
        conn = fixture("euler-half")
        omega = Section([T * (T - RatFun.const(3))], conn.splitting)
        assert generation_index_at(conn, omega, 3) == 2
        conn = fixture("triangle-diag")
        omega = Section([T * RatFun.const(2), T * RatFun.const(3)],
                        conn.splitting)
        assert generation_index_at(conn, omega,
                                   GaussRat(Fraction(24, 59))) == 3

    @pytest.mark.parametrize("name, section, bound", [
        ("euler-half", "t*(t-3)", 2),
        ("triangle-diag", "2*t,3*t", 3),
    ])
    def test_cli_zero_sharing_a_factor_with_a_pole(self, tmp_path, name,
                                                   section, bound):
        path = tmp_path / f"{name}.conn"
        path.write_text(fixture_file(name))
        code, report = run_json(["wronskian", str(path),
                                 f"--section={section}"])
        assert code == 0
        assert report["results"]["generation_bound"] == bound


class TestCyclicReduce:
    def test_free_rank2(self):
        conn = zero_rank2()
        ode = cyclic_reduce(conn, Section([ONE, T], conn.splitting))
        assert ode.order == 2
        assert ode.coeffs == (ZERO, ZERO)

    def test_rank1_reads_off_matrix(self):
        conn = fixture("euler-half")
        ode = cyclic_reduce(conn, Section([ONE], conn.splitting))
        assert ode.coeffs == (conn.matrix[0][0],)

    def test_not_cyclic(self):
        conn = zero_rank2()
        with pytest.raises(NotCyclic):
            cyclic_reduce(conn, Section([ONE, ONE], conn.splitting))

    def test_log_coefficient_identity(self):
        # c_{alpha-1} * A = A' + tr(M) * A, exactly
        rng = rng_for("cyclic-identity")
        for name in ("triangle-nilpotent", "triangle-diag"):
            conn = fixture(name)
            tr = conn.trace()
            for _ in range(10):
                omega = random_poly_section(rng, conn, deg=2)
                a = wronskian_determinant(conn, omega)
                ode = cyclic_reduce(conn, omega)
                assert ode.coeffs[-1] * a == a.derivative() + tr * a

    def test_one_elimination_matches_det_and_solve(self):
        # the reduction's Wronskian is wronskian_determinant and its
        # coefficients are solve_linear on the iterate matrix, exactly
        from meroconn import solve_linear

        rng = rng_for("one-elimination")
        cases = []
        for name in fixture_names():
            conn = fixture(name)
            cases.append((conn, Section([ONE] + [ZERO] * (conn.rank - 1),
                                        conn.splitting)))
            cases += [(conn, random_poly_section(rng, conn)) for _ in range(4)]
        for _ in range(8):
            conn = random_connection(rng)
            cases.append((conn, random_poly_section(rng, conn)))
        reduced = 0
        for conn, omega in cases:
            a = wronskian_determinant(conn, omega)
            if a.is_zero():
                with pytest.raises(NotCyclic):
                    wronskian_mod._reduce(conn, omega)
                continue
            got_a, ode = wronskian_mod._reduce(conn, omega)
            its = iterated(conn, omega, conn.rank)
            n = conn.rank
            mat = [[its[j].comps[i] for j in range(n)] for i in range(n)]
            assert got_a == a
            assert ode.coeffs == tuple(solve_linear(
                mat, [its[n].comps[i] for i in range(n)]))
            reduced += 1
        assert reduced >= len(cases) - 4

    def test_derivative_of_determinant_identity(self):
        # det[omega, grad^alpha omega] = A' + tr(M) A for alpha = 2
        from meroconn import det_ratfun

        rng = rng_for("det-derivative")
        conn = fixture("triangle-diag")
        tr = conn.trace()
        for _ in range(10):
            omega = random_poly_section(rng, conn, deg=2)
            its = iterated(conn, omega, 2)
            a = wronskian_determinant(conn, omega)
            mat = [[its[0].comps[i], its[2].comps[i]] for i in range(2)]
            assert det_ratfun(mat) == a.derivative() + tr * a


class TestFuchsCheck:
    def test_trivial_equation(self):
        ode = ScalarODE(order=2, coeffs=(ZERO, ZERO))
        verdicts = fuchs_check(ode, [GaussRat(0), GaussRat(1)])
        assert all(ok for _, ok, _ in verdicts)

    def test_order_violation(self):
        ode = ScalarODE(order=2, coeffs=(ZERO, ONE / T ** 2))
        [(point, ok, bad)] = fuchs_check(ode, [GaussRat(0)])
        assert not ok
        assert bad[0][0] == 1 and bad[0][1] == 2

    def test_fixture_equations_fuchsian(self):
        for name in ("triangle-nilpotent", "triangle-diag"):
            conn = fixture(name)
            ode = cyclic_reduce(conn, Section([ONE, ZERO], conn.splitting))
            verdicts = fuchs_check(ode, conn.singular_points)
            assert all(ok for _, ok, _ in verdicts)


class TestResidueIdentity:
    def test_rank1_double_zero(self):
        conn = zero_rank1(point=5)
        omega = Section([T ** 2], conn.splitting)
        records = residue_identity_check(conn, omega)
        at0 = next(r for r in records if r.point == GaussRat(0))
        assert at0.lhs == GaussRat(2) and at0.equal

    def test_divisor_point_correction(self):
        conn = reducible_mu_quarter()
        omega = Section([ONE, ZERO], conn.splitting)
        a = wronskian_determinant(conn, omega)
        for rec in residue_identity_check(conn, omega):
            assert rec.equal
            if rec.in_divisor:
                corr = GaussRat(valuation(a, rec.point)) + \
                    residue(conn.trace(), rec.point)
                assert rec.rhs == corr

    def test_scale_invariance(self):
        conn = fixture("triangle-diag")
        omega = Section([ONE, T], conn.splitting)
        scaled = omega.scale(RatFun.const(GaussRat(3, 7)))
        assert residue_identity_check(conn, omega) == \
            residue_identity_check(conn, scaled)


class TestApparentSingularities:
    def test_empty_report(self):
        conn = reducible_mu_quarter()
        omega = Section([ONE, ZERO], conn.splitting)
        assert apparent_singularities(conn, omega).records == []

    def test_simple_rational_zero(self):
        conn = zero_rank1(point=5)
        omega = Section([T - RatFun.const(3)], conn.splitting)
        [rec] = apparent_singularities(conn, omega).records
        assert rec.exact
        assert rec.location == GaussRat(3)
        assert rec.val_wronskian == 1
        assert rec.res_log_coeff == GaussRat(1)

    def test_irrational_zeros_flagged(self):
        conn = zero_rank1(point=5)
        omega = Section([T ** 2 - RatFun.const(2)], conn.splitting)
        records = apparent_singularities(conn, omega).records
        assert len(records) == 2
        locs = sorted(r.location.real for r in records)
        assert abs(locs[0] + 2 ** 0.5) < 1e-9
        assert abs(locs[1] - 2 ** 0.5) < 1e-9
        assert all(not r.exact and r.val_wronskian == 1 for r in records)


class TestEstimateH:
    def test_zero_samples_floor(self):
        conn = fixture("triangle-nilpotent")
        report = estimate_H(conn, 1, parse_divisor("inf^1"), 0, seed=1)
        assert report.max_observed_generation == conn.rank
        assert not report.violated

    def test_euler_attains_line_bundle_value(self):
        conn = fixture("euler-half")
        report = estimate_H(conn, 2, parse_divisor("inf^2"), 50, seed=7)
        assert report.bound == 3
        assert report.max_observed_generation == 3
        assert not report.violated

    # samples whose Wronskian has one squarefree factor vanishing at a pole
    # and off the singular set
    @pytest.mark.parametrize("seed", [1, 30, 36])
    def test_euler_zero_sharing_a_factor_with_a_pole(self, seed):
        conn = fixture("euler-half")
        report = estimate_H(conn, 2, parse_divisor("inf^2"), 20, seed=seed)
        assert not report.violated

    def test_triangle_constant_sections(self):
        conn = fixture("triangle-nilpotent")
        report = estimate_H(conn, 0, Divisor([]), 20, seed=3)
        assert report.bound == 1 * 3 + 2 - 1
        assert report.max_observed_generation <= report.bound


class TestInfinityOrderBookkeeping:
    def test_wronskian_infinity_degree(self):
        # trivial splitting, omega with infinity pole order m >= alpha:
        # infinity_degree(A) <= alpha*m - alpha*(alpha-1)/2 always.  For
        # alpha = 2 the top coefficient of omega ^ omega' cancels
        # identically (a*mb - b*ma = 0), so the generic value is one lower;
        # that value should be attained on most random draws.
        rng = rng_for("infinity-bookkeeping")
        conn = fixture("triangle-diag")
        hits = 0
        total = 0
        for _ in range(20):
            omega = random_poly_section(rng, conn, deg=rng.randint(2, 4))
            _, m, _ = pole_profile(omega, set(conn.singular_points))
            if m < conn.rank:
                continue
            total += 1
            a = wronskian_determinant(conn, omega)
            bound = conn.rank * m - conn.rank * (conn.rank - 1) // 2
            assert infinity_degree(a) <= bound
            if infinity_degree(a) == bound - 1:
                hits += 1
        assert total >= 10 and hits >= total // 2


def test_line_bundle_collapse():
    conn = fixture("euler-half")
    basis = section_space_basis(conn.splitting, parse_divisor("inf^2"))
    best = max(generation_bound(conn, s) for s in basis)
    from meroconn import spanning_sections

    shifted = spanning_sections(conn, parse_divisor("inf^2"))
    best = max(best, max(generation_bound(conn, s) for s in shifted))
    assert best == 2 + 0 + 1 == h_bound(conn, 2)


class TestDerivedOnce:
    """Each command derives the section's iterates and Wronskian once."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"covariant_derivative": 0, "det_ratfun": 0}
        for name in counts:
            original = getattr(wronskian_mod, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(wronskian_mod, name, counted)
        return counts

    @pytest.fixture()
    def tri(self, tmp_path):
        path = tmp_path / "tri.conn"
        path.write_text(fixture_file("triangle-diag"))
        return str(path)

    def test_classify_derives_rank_iterates(self, counts, tri):
        code, report = run_json(["classify", tri, "--section=t^2+1,t-3"])
        assert code == 0 and report["results"]["residue_identity"]
        assert counts["covariant_derivative"] == 2
        assert counts["det_ratfun"] == 0

    def test_wronskian_runs_one_wronskian(self, counts, tri):
        code, report = run_json(["wronskian", tri, "--section=t^2+1,t-3"])
        assert code == 0 and "generation_bound" in report["results"]
        assert counts["det_ratfun"] == 1
        assert counts["covariant_derivative"] == 1

    def test_estimate_h_one_wronskian_per_sample(self, counts):
        # triangle-diag is irreducible, so every sample has a non-zero
        # Wronskian; the samples include ones with rational zeros off the
        # singular set, where the bound and the index at the zero are taken
        conn = fixture("triangle-diag")
        report = estimate_H(conn, 2, parse_divisor("inf^2"), 10, seed=1)
        assert report.max_observed_generation > conn.rank
        assert counts["det_ratfun"] == 10
        # the index at a zero is read from the Taylor jet there, so each
        # sample forms only the rank - 1 RatFun derivatives its Wronskian
        # needs
        assert counts["covariant_derivative"] == 10

    def test_estimate_h_decomposes_each_numerator_once(self, monkeypatch):
        decomposed, numerators = [], []
        decompose = exactalg_mod.squarefree_decompose
        det = wronskian_mod.det_ratfun

        def counted_decompose(p):
            decomposed.append(p)
            return decompose(p)

        def recorded_det(A):
            a = det(A)
            numerators.append(a.num)
            return a

        monkeypatch.setattr(exactalg_mod, "squarefree_decompose",
                            counted_decompose)
        monkeypatch.setattr(wronskian_mod, "det_ratfun", recorded_det)
        conn = fixture("triangle-diag")
        report = estimate_H(conn, 2, parse_divisor("inf^2"), 10, seed=1)
        # some samples have rational zeros off the singular set, where the
        # generation cap reads the zero multiplicities as well
        assert report.max_observed_generation > conn.rank
        assert decomposed == numerators

    def test_ode_derives_rank_iterates(self, counts, tri):
        # the scalar equation derives grad^1 w and grad^2 w; the exact
        # residual reads their values at the probe from the Taylor jet
        code, report = run_json(["ode", tri, "--section=t^2+1,t-3"])
        assert code == 0
        assert report["results"]["residual_at_probe"] == ["0", "0"]
        assert counts["covariant_derivative"] == 2

    def test_classify_decomposes_numerator_once(self, monkeypatch, tri):
        calls = []
        original = exactalg_mod.squarefree_decompose

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(exactalg_mod, "squarefree_decompose", counted)
        code, report = run_json(["classify", tri, "--section=t^2+1,t-3"])
        assert code == 0 and report["results"]["apparent"]
        a = wronskian_determinant(fixture("triangle-diag"),
                                  Section([T * T + ONE, T - RatFun.const(3)],
                                          SplittingType([0, 0])))
        # one decomposition of the numerator, none of its squarefree
        # factors; the denominator is decomposed for its poles
        assert calls == [a.num, a.den]
