"""Numerical continuation, monodromy generators, period jets."""

import cmath
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meroconn import (
    Arc,
    Connection,
    Divisor,
    GaussRat,
    Line,
    Poly,
    RatFun,
    ScalarODE,
    Section,
    SplittingType,
    achieve_multiplicity,
    achieve_with_jet,
    cyclic_reduce,
    default_base,
    dual_connection,
    fixture,
    fixture_names,
    generation_index_at,
    irreducibility_check,
    iterated,
    local_data,
    loop_paths,
    monodromy_generators,
    ode_residual,
    parse_divisor,
    period_jet,
    section_space_basis,
    transport,
    wronskian_determinant,
)
from meroconn import monodromy as monodromy_mod
from meroconn.cli import parse_connection_file
from meroconn.errors import (DegenerateJet, InvalidArgument,
                             SingularityTooClose, StepUnderflow)
from meroconn.exactalg import gcd_poly
from helpers import (GAUGE_TWIN_CONN, period_jet_residual, random_connection,
                     random_pole_data_connection, rng_for)

ONE = RatFun.const(1)
ZERO = RatFun.const(0)
T = RatFun.t()


def zero_conn(rank=1):
    z = [[ZERO] * rank for _ in range(rank)]
    return Connection(SplittingType([0] * rank),
                      Divisor([(GaussRat(0), 1)]), z)


def euler_flat(z: complex) -> complex:
    """Closed-form flat section of the euler-half connection: solves
    y' = -y/(2t(t-1)), i.e. y = (t/(t-1))^(1/2) up to a constant."""
    return cmath.sqrt(z / (z - 1))


class TestTransport:
    def test_zero_matrix_identity(self):
        conn = zero_conn()
        out = transport(conn, Line(1 + 1j, 4 - 2j), [2.5 + 0.5j])
        assert abs(out[0] - (2.5 + 0.5j)) < 1e-12

    def test_euler_loop_around_zero(self):
        conn = fixture("euler-half")
        loop = Arc(center=0.0, radius=0.4, theta0=0.0, theta1=2 * math.pi)
        out = transport(conn, [Line(0.4, 0.4), loop], [1.0], tol=1e-12)
        assert abs(out[0] - (-1.0)) < 1e-9

    def test_euler_loop_around_both(self):
        conn = fixture("euler-half")
        loop = Arc(center=0.5, radius=3.0, theta0=0.0, theta1=2 * math.pi)
        out = transport(conn, [loop], [1.0], tol=1e-12)
        assert abs(out[0] - 1.0) < 1e-8

    def test_straight_segment_matches_closed_form(self):
        conn = fixture("euler-half")
        a, b = 2.0 + 0.0j, 5.0 + 3.0j
        out = transport(conn, Line(a, b), [euler_flat(a)], tol=1e-12)
        assert abs(out[0] - euler_flat(b)) < 1e-9

    def test_tolerance_convergence(self):
        conn = fixture("euler-half")
        a, b = 2.0 + 0.0j, 6.0 + 1.0j
        exact = euler_flat(b)
        errs = []
        # below ~1e-7 the step-size cap near the singularities no longer
        # dominates and the error tracks the tolerance
        for tol in (1e-8, 2.5e-9, 6.25e-10, 1.5625e-10):
            out = transport(conn, Line(a, b), [euler_flat(a)], tol=tol)
            errs.append(abs(out[0] - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 2 or fine < 1e-13

    @pytest.mark.parametrize("v0", [[1.0], [1.0, 2.0, 3.0], np.eye(3),
                                    np.ones((2, 2, 1)), 1.0])
    def test_start_of_wrong_shape(self, v0):
        with pytest.raises(InvalidArgument, match=r"rank 2.*shape"):
            transport(fixture("triangle-diag"), Line(3 + 1j, 4 + 1j), v0)

    def test_vector_and_matrix_starts(self):
        conn, path = fixture("triangle-diag"), Line(3 + 1j, 4 + 1j)
        frame = transport(conn, path, np.eye(2))
        assert frame.shape == (2, 2)
        v = transport(conn, path, [1.0, 2.0])
        assert v.shape == (2,)
        assert np.array_equal(v, frame @ [1.0, 2.0])
        assert transport(conn, path, np.eye(2)[:, :1]).shape == (2, 1)

    def test_order_cap_raises_step_underflow(self, monkeypatch):
        monkeypatch.setattr(monodromy_mod, "_MAX_ORDER", 3)
        with pytest.raises(StepUnderflow):
            transport(fixture("euler-half"), Line(2.0, 5.0 + 3.0j), [1.0],
                      tol=1e-12)

    def test_pairing_constancy(self):
        rng = random.Random(17)
        for name in ("euler-half", "triangle-nilpotent", "triangle-diag"):
            conn = fixture(name)
            dual = dual_connection(conn)
            n = conn.rank
            for _ in range(20):
                a = complex(rng.uniform(3, 5), rng.uniform(1, 2))
                b = complex(rng.uniform(3, 5), rng.uniform(-2, -1))
                path = Line(a, b)
                v0 = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for _ in range(n)])
                u0 = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for _ in range(n)])
                v1 = transport(conn, path, v0, tol=1e-12)
                u1 = transport(dual, path, u0, tol=1e-12)
                assert abs(u1 @ v1 - u0 @ v0) < 1e-10


def irregular_conn(k):
    """Rank 1, M = 1/t^k on the divisor 0^k (irregular for k >= 2): the
    flat sections y = C exp(1/((k-1) t^(k-1))) are single-valued."""
    return Connection(SplittingType([0]), Divisor([(GaussRat(0), k)]),
                      [[ONE / T ** k]])


class TestIrregularPoint:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_loop_generator_within_bound(self, k, tol):
        # the base 1 puts the circle at radius 0.5; the generator is 1
        report = monodromy_generators(irregular_conn(k), tol=tol)
        (gen,), (diag,) = report.matrices, report.diagnostics
        assert diag.min_clearance == pytest.approx(0.5)
        assert abs(gen[0, 0] - 1) <= diag.tail_bound + 1e-13

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("base", [0.4, 0.2, 0.1])
    def test_small_loop_meets_bound_or_refuses(self, k, base):
        # circles of radius base/2: as the radius shrinks the step's growth
        # bound rises like radius^(1-k); past the order cap the stepper
        # must refuse rather than return a generator outside its bound
        try:
            report = monodromy_generators(irregular_conn(k), base=base,
                                          tol=1e-8)
        except StepUnderflow:
            return
        (gen,), (diag,) = report.matrices, report.diagnostics
        assert abs(gen[0, 0] - 1) <= diag.tail_bound + 1e-13

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the tail bound sums each step's truncation bound; an error made "
        "early is not counted as the solution grows by e^9 after it"))
    def test_line_into_growth_within_bound(self):
        conn = irregular_conn(2)
        stepper = monodromy_mod._TaylorStepper(conn)
        (ends, diag), = monodromy_mod._transport(stepper, [[Line(1.0, 0.1)]],
                                                 1e-8)
        y = ends[-1][0]
        assert abs(y[0, 0] - math.exp(9)) <= diag.tail_bound + 1e-13


def _overstated_conn():
    """M = 1/t^2 + 1/(2t) - 1/(2(t-1)) on a divisor that overstates the
    order at 0 and 1 and lists 2, where M has no pole."""
    half = RatFun.const(GaussRat(Fraction(1, 2)))
    return Connection(
        SplittingType([0]),
        Divisor([(GaussRat(0), 3), (GaussRat(1), 2), (GaussRat(2), 1)]),
        [[ONE / T ** 2 + half / T - half / (T - ONE)]])


def _stepper_cases():
    """The fixtures, seeded random connections, connections of rank 1-4
    with poles of order 1-3 at Gaussian rationals with denominators 2-7
    and coefficients up to 10^30, an irregular point and an overstated
    divisor."""
    cases = [pytest.param(fixture(name), id=name) for name in
             ("euler-half", "triangle-nilpotent", "triangle-diag",
              "two-point-reducible")]
    rng = rng_for("stepper-denominator")
    cases += [pytest.param(random_connection(rng), id=f"random{k}")
              for k in range(12)]
    rng = rng_for("stepper-pole-data")
    cases += [pytest.param(random_pole_data_connection(rng), id=f"poles{k}")
              for k in range(12)]
    rng = rng_for("stepper-pole-data-rank34")
    cases += [pytest.param(random_pole_data_connection(rng, rank),
                           id=f"poles-rank{rank}-{k}")
              for rank in (3, 4) for k in range(4)]
    cases.append(pytest.param(irregular_conn(3), id="irregular3"))
    cases.append(pytest.param(_overstated_conn(), id="overstated"))
    return cases


def _monic_lcm(polys):
    q = Poly.const(1)
    for p in polys:
        q = (q * p // gcd_poly(q, p)).monic()
    return q


class TestStepperDenominator:
    """The stepper's q comes from the pole orders validation keeps."""

    @pytest.mark.parametrize("conn", _stepper_cases())
    def test_q_is_lcm_of_entry_denominators(self, conn):
        want = _monic_lcm([e.den for row in conn.matrix for e in row])
        orders = conn.validate().pole_orders
        q = Poly.from_roots([c for c, k in orders.items() for _ in range(k)])
        assert q == want
        stepper = monodromy_mod._TaylorStepper(conn)
        column = stepper.coeffs[:, -1]
        assert list(column[:q.deg + 1]) == [c.to_complex() for c in q.coeffs]
        assert not column[q.deg + 1:].any()
        assert stepper.roots == [(c.to_complex(), k)
                                 for c, k in orders.items() if k]

    @pytest.mark.parametrize("conn", _stepper_cases())
    def test_p_columns_are_rounded_exact_products(self, conn):
        orders = conn.validate().pole_orders
        q = Poly.from_roots([c for c, k in orders.items() for _ in range(k)])
        stepper = monodromy_mod._TaylorStepper(conn)
        entries = [e for row in conn.matrix for e in row]
        for col, e in enumerate(entries):
            want = [z.to_complex() for z in (e.num * (q // e.den)).coeffs]
            want += [0j] * (len(stepper.coeffs) - len(want))
            # bit for bit, signed zeros included
            got = np.ascontiguousarray(stepper.coeffs[:, col])
            assert (np.array(want).view(np.uint64)
                    == got.view(np.uint64)).all()

    def test_overstated_divisor_keeps_actual_orders(self):
        assert _overstated_conn().validate().pole_orders == {
            GaussRat(0): 2, GaussRat(1): 1, GaussRat(2): 0}


class TestMonodromyGenerators:
    def test_euler_minus_one(self):
        report = monodromy_generators(fixture("euler-half"), tol=1e-12)
        for T_c in report.matrices:
            assert abs(T_c[0, 0] - (-1.0)) < 1e-9
        assert report.defect < 1e-8

    def test_loop_product_defect_all_fixtures(self):
        for name in ("euler-half", "triangle-nilpotent", "triangle-diag",
                     "two-point-reducible"):
            report = monodromy_generators(fixture(name), tol=1e-12)
            assert report.defect < 1e-8, name
            assert report.det_defect < 1e-8, name

    def test_local_global_exponent_match(self):
        # simple poles, non-resonant residue: eigenvalues of T_c equal
        # exp(-2 pi i * exponents)
        conn = fixture("triangle-diag")
        report = monodromy_generators(conn, tol=1e-12)
        for c in conn.singular_points:
            exps = local_data(conn, c).exponents
            want = sorted(
                (cmath.exp(-2j * math.pi * complex(e)) for e in exps),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            got = sorted(np.linalg.eigvals(report.generator(c)),
                         key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            assert max(abs(w - g) for w, g in zip(want, got)) < 1e-6

    def test_gauge_twin_double_pole_has_no_exponents(self):
        # at the twin's double pole t = 1, C_1's eigenvalues 0 and 1 predict
        # a generator trace of 2; the generator is conjugate to
        # triangle-diag's, whose trace is 0, so C_1 gives no exponents there
        twin = parse_connection_file(GAUGE_TWIN_CONN)
        ld = local_data(twin, 1)
        assert ld.effective_order == 2 and ld.leading_nilpotent
        predicted = sum(cmath.exp(-2j * math.pi * complex(e))
                        for e in ld.exponents)
        assert abs(predicted - 2) < 1e-9
        traces = [np.trace(monodromy_generators(conn, tol=1e-12).generator(1))
                  for conn in (twin, fixture("triangle-diag"))]
        assert abs(traces[0] - traces[1]) < 1e-9 and abs(traces[0]) < 1e-6


def _assert_witness(verdict, mats):
    """The verdict's line (or hyperplane: a line of the transposes, or
    proper subspace: orthonormal columns) is kept by every generator."""
    assert verdict.kind == "reducible"
    assert verdict.witness is not None
    if verdict.witness_kind == "subspace":
        Q = verdict.witness
        assert 0 < Q.shape[1] < len(Q)
        assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]))
        for T_c in mats:
            W = T_c @ Q
            assert np.linalg.norm(W - Q @ (Q.conj().T @ W)) \
                < 1e-6 * np.linalg.norm(W)
        return
    v = np.asarray(verdict.witness, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    if verdict.witness_kind == "hyperplane":
        mats = [T_c.T for T_c in mats]
    for T_c in mats:
        w = T_c @ v
        w = w / np.linalg.norm(w)
        assert min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < 1e-6 \
            or np.linalg.norm(w - (w @ v.conj()) * v) < 1e-6


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestIrreducibility:
    def test_rank1_always_irreducible(self):
        verdict = irreducibility_check(fixture("euler-half"))
        assert verdict.kind == "irreducible"

    def test_two_point_reducible(self):
        verdict = irreducibility_check(fixture("two-point-reducible"))
        # verify the witness invariance directly
        report = monodromy_generators(fixture("two-point-reducible"),
                                      tol=1e-12)
        _assert_witness(verdict, report.matrices)

    def test_triangle_fixtures_irreducible(self):
        for name in ("triangle-nilpotent", "triangle-diag"):
            assert irreducibility_check(fixture(name)).kind == "irreducible"

    @pytest.mark.parametrize("rank, count", [(2, 16), (3, 10), (4, 8)])
    def test_many_generators_fast(self, rank, count):
        # a search over every choice of one eigenvalue per generator takes
        # rank^count steps; one algebra element's eigenvectors take count
        Ts = list(_complex_normal(np.random.default_rng(7), count, rank, rank))
        started = time.perf_counter()
        verdict = monodromy_mod._verdict_from_generators(Ts, rank, 0.0)
        assert time.perf_counter() - started < 1.0
        assert verdict.kind == "irreducible"

    def test_conjugated_unipotent_rank3(self):
        # T_k = S (I + N_k) S^-1, N_k strictly upper triangular: S e_1 is a
        # common eigenvector, though every eigenvalue of every T_k is 1
        rng = np.random.default_rng(0)
        S = _complex_normal(rng, 3, 3)
        Ts = [S @ (np.eye(3) + np.triu(_complex_normal(rng, 3, 3), 1))
              @ np.linalg.inv(S) for _ in range(3)]
        verdict = monodromy_mod._verdict_from_generators(Ts, 3, 0.0)
        _assert_witness(verdict, Ts)

    def test_invariant_plane_without_invariant_line(self):
        # [[B_k, c_k], [0, d_k]] with the B_k irreducible on the plane of
        # e_1, e_2: no line is kept, the plane is
        rng = np.random.default_rng(3)
        Ts = []
        for _ in range(3):
            T_k = np.zeros((3, 3), dtype=complex)
            T_k[:2] = _complex_normal(rng, 2, 3)
            T_k[2, 2] = _complex_normal(rng)
            Ts.append(T_k)
        verdict = monodromy_mod._verdict_from_generators(Ts, 3, 0.0)
        assert verdict.witness_kind == "hyperplane"
        _assert_witness(verdict, Ts)

    def test_rank4_triangular_line(self):
        # upper-triangular generators keep the line of e_1, and their
        # module is cyclic: a random vector's orbit fills the space
        rng = np.random.default_rng(5)
        Ts = [np.triu(_complex_normal(rng, 4, 4)) for _ in range(3)]
        verdict = monodromy_mod._verdict_from_generators(Ts, 4, 0.0)
        assert verdict.witness_kind == "line"
        _assert_witness(verdict, Ts)

    def test_rank4_hyperplane_only(self):
        # [[B_k, c_k], [0, d_k]] with the B_k irreducible on the span of
        # e_1, e_2, e_3: the hyperplane is kept, and no line is
        rng = np.random.default_rng(6)
        Ts = []
        for _ in range(3):
            T_k = np.zeros((4, 4), dtype=complex)
            T_k[:3] = _complex_normal(rng, 3, 4)
            T_k[3, 3] = _complex_normal(rng)
            Ts.append(T_k)
        verdict = monodromy_mod._verdict_from_generators(Ts, 4, 0.0)
        assert verdict.witness_kind == "hyperplane"
        _assert_witness(verdict, Ts)

    def test_rank6_no_cyclic_vector(self):
        # W + W + W with W irreducible of rank 2 keeps no line and no
        # hyperplane, but every orbit is proper: it has dimension 4
        rng = np.random.default_rng(8)
        Ts = [np.kron(np.eye(3), _complex_normal(rng, 2, 2))
              for _ in range(3)]
        verdict = monodromy_mod._verdict_from_generators(Ts, 6, 0.0)
        assert verdict.witness_kind == "subspace"
        assert verdict.witness.shape == (6, 4)
        _assert_witness(verdict, Ts)

    def test_rank4_triangular_connection_reducible(self):
        report = monodromy_generators(
            _residue_conn(_TRIANGULAR4_POINTS, _TRIANGULAR4_RESIDUES),
            tol=1e-10)
        assert report.irreducible.kind == "reducible"
        _assert_witness(report.irreducible, report.matrices)

    def test_fixture_margins_in_unit_interval(self):
        margins = {name: irreducibility_check(fixture(name)).margin
                   for name in fixture_names()}
        assert all(0.0 <= m <= 1.0 for m in margins.values()), margins
        assert margins["euler-half"] == 1.0


def _jet_cases():
    """(connection, section, t0): a section of each fixture, and the
    section achieve finds on triangle-diag at -1-i."""
    cases = []
    for name in ("euler-half", "triangle-nilpotent", "triangle-diag",
                 "two-point-reducible"):
        conn = fixture(name)
        comps = [T * T + ONE, T - RatFun.const(3)][:conn.rank]
        cases.append(pytest.param(conn, Section(comps, conn.splitting),
                                  2.5 + 0.5j, id=name))
    conn = fixture("triangle-diag")
    omega = achieve_multiplicity(conn, parse_divisor("inf^1"), -1 - 1j)
    cases.append(pytest.param(conn, omega, -1 - 1j, id="achieve-section"))
    return cases


class TestPeriodJet:
    def test_depth_below_one_is_invalid_argument(self):
        conn = fixture("euler-half")
        with pytest.raises(InvalidArgument, match="depth must be >= 1"):
            period_jet(conn, Section([ONE], conn.splitting), 3.0, depth=0)

    def test_constant_frame_plain_derivatives(self):
        conn = zero_conn(rank=2)
        omega = Section([ONE, T], conn.splitting)
        jet = period_jet(conn, omega, 2.0 + 1.0j, depth=2, tol=1e-12)
        want = np.array([[1.0, 2.0 + 1.0j], [0.0, 1.0]])
        assert np.allclose(jet.jet, want, atol=1e-9)

    def test_euler_log_derivative(self):
        conn = fixture("euler-half")
        omega = Section([ONE], conn.splitting)
        t0 = 3.0 + 1.0j
        jet = period_jet(conn, omega, t0, depth=2, tol=1e-12)
        ode = cyclic_reduce(conn, omega)
        ratio = jet.jet[1, 0] / jet.jet[0, 0]
        assert abs(ratio - ode.coeffs[0].ceval(t0)) < 1e-9

    def test_row_derivative_consistency(self):
        conn = fixture("triangle-diag")
        omega = Section([ONE, ZERO], conn.splitting)
        t0 = 3.5 + 1.0j
        h = 1e-5
        jet = period_jet(conn, omega, t0, depth=2, tol=1e-12)
        plus = period_jet(conn, omega, t0 + h, depth=1, tol=1e-12)
        minus = period_jet(conn, omega, t0 - h, depth=1, tol=1e-12)
        fd = (plus.jet[0] - minus.jet[0]) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(jet.jet))))
        assert np.max(np.abs(fd - jet.jet[1])) < 1e-5 * scale

    @pytest.mark.parametrize("conn, omega, t0", _jet_cases())
    def test_depth4_matches_evaluated_iterates(self, conn, omega, t0):
        # the jet reads grad^k w (t0) from the Taylor jet at t0; the
        # RatFun iterates evaluated at t0 give the same values
        U = monodromy_mod._dual_frame_at(conn, t0, 1e-12)[0]
        old = np.array([it.ceval(t0) for it in iterated(conn, omega, 3)]) @ U
        new = period_jet(conn, omega, t0, depth=4).jet
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


class TestOdeResidual:
    """ode_residual is exactly 0 for the section's own scalar equation; the
    numeric period jet satisfies the equation up to roundoff."""

    def test_free_equation(self):
        conn = zero_conn(rank=2)
        omega = Section([ONE, T], conn.splitting)
        ode = cyclic_reduce(conn, omega)
        assert ode_residual(conn, omega, ode, 2.0 + 1.0j) == [GaussRat(0)] * 2
        assert period_jet_residual(conn, omega, ode, 2.0 + 1.0j) < 1e-12

    def test_euler(self):
        conn = fixture("euler-half")
        omega = Section([ONE], conn.splitting)
        ode = cyclic_reduce(conn, omega)
        assert ode_residual(conn, omega, ode, 2.5 + 0.5j) == [GaussRat(0)]
        assert period_jet_residual(conn, omega, ode, 2.5 + 0.5j) < 1e-9

    @pytest.mark.parametrize("t0", [complex("nan"), complex("inf"),
                                    1 + 1j * math.inf])
    def test_probe_not_finite(self, t0):
        conn = fixture("euler-half")
        omega = Section([ONE], conn.splitting)
        ode = cyclic_reduce(conn, omega)
        with pytest.raises(InvalidArgument, match="not finite"):
            ode_residual(conn, omega, ode, t0)
        with pytest.raises(InvalidArgument, match="not finite"):
            generation_index_at(conn, omega, t0)

    @pytest.mark.parametrize("name", fixture_names())
    def test_perturbed_equation_leaves_a_residual(self, name):
        # c_0 + 1 adds grad^0 w(b) to the residual, which is not 0 off the
        # section's zeros: the exact check cannot pass vacuously
        conn = fixture(name)
        omega = Section([T * T + ONE] + [T - RatFun.const(3)]
                        * (conn.rank - 1), conn.splitting)
        ode = cyclic_reduce(conn, omega)
        t0 = default_base(conn) + 0.25j
        assert ode_residual(conn, omega, ode, t0) == [GaussRat(0)] * conn.rank
        bad = ScalarODE(ode.order, (ode.coeffs[0] + ONE, *ode.coeffs[1:]))
        b = GaussRat(Fraction(repr(t0.real)), Fraction(repr(t0.imag)))
        assert ode_residual(conn, omega, bad, t0) == [-c.eval(b)
                                                      for c in omega.comps]


class TestAchieveMultiplicity:
    def test_euler_linear_vanishing(self):
        conn = fixture("euler-half")
        omega = achieve_multiplicity(conn, parse_divisor("inf^1"), 3.0)
        # kernel of a 1x2 jet system: proportional to (t - 3)
        [comp] = omega.comps
        num = comp.num.monic()
        assert num == (T - RatFun.const(3)).num
        jet = period_jet(conn, omega, 3.0, depth=2, tol=1e-12)
        assert abs(jet.jet[0, 0]) < 1e-9
        assert abs(jet.jet[1, 0]) > 1e-3

    @staticmethod
    def _check_exact_kernel(conn, E, t0, dual_index):
        """Component dual_index of the section's own iterates, evaluated
        exactly at t0, is 0 below depth d - 1 and not at d - 1; the jet
        holds these values; and the index at t0 is at least d wherever the
        Wronskian does not vanish."""
        omega, jet = achieve_with_jet(conn, E, t0, dual_index)
        d = jet.depth
        assert d == len(section_space_basis(conn.splitting, E))
        b = GaussRat(Fraction(repr(t0.real)), Fraction(repr(t0.imag)))
        vals = [it.eval(b) for it in iterated(conn, omega, d - 1)]
        assert all(v[dual_index].is_zero() for v in vals[:-1])
        assert not vals[-1][dual_index].is_zero()
        assert np.array_equal(jet.jet,
                              [[c.to_complex() for c in v] for v in vals])
        assert jet.transport_error == 0.0
        if not wronskian_determinant(conn, omega).is_zero():
            assert generation_index_at(conn, omega, b) >= d

    @pytest.mark.parametrize("name, n", [("euler-half", 2),
                                         ("triangle-diag", 1),
                                         ("triangle-nilpotent", 1)])
    def test_jet_matches_exact_iterates(self, name, n):
        conn = fixture(name)
        t0 = default_base(conn) + 0.25j
        for dual_index in range(conn.rank):
            self._check_exact_kernel(conn, parse_divisor(f"inf^{n}"), t0,
                                     dual_index)

    def test_exact_kernel_on_random_connections(self):
        rng = rng_for("achieve-exact-kernel")
        runs = 0
        while runs < 8:
            conn = random_connection(rng)
            n = rng.randint(0, 2)
            E = parse_divisor(f"inf^{n}") if n else Divisor([])
            if len(section_space_basis(conn.splitting, E)) < 2:
                continue
            self._check_exact_kernel(conn, E, default_base(conn) + 0.25j,
                                     rng.randrange(conn.rank))
            runs += 1

    def test_degenerate_jet(self):
        conn = zero_conn(rank=2)
        with pytest.raises(DegenerateJet):
            achieve_multiplicity(conn, parse_divisor("inf^1"), 2.0 + 1.0j)


# ---------------------------------------------------------------------------
# 30-digit oracle
# ---------------------------------------------------------------------------

FIXTURE_NAMES = ("euler-half", "triangle-nilpotent", "triangle-diag",
                 "two-point-reducible")


def _mp_poly_at(coeffs, z0):
    """Taylor coefficients of a polynomial (lowest first) at z0."""
    out, r = [], list(coeffs)
    while r:
        acc, quot = mpmath.mpc(0), []
        for a in reversed(r):
            acc = acc * z0 + a
            quot.append(acc)
        out.append(quot.pop())
        r = quot[::-1]
    return out


def _mp_loop_generators(conn, dps=30):
    """Each loop's flat frame to dps digits: the Taylor series of
    q Y' = -P Y at every step (q the product of the distinct entry
    denominators), summed until three terms in a row fall below
    10^-(dps+2), with steps of a quarter of the clearance.  Path points and
    the coefficients at each step come from dps-digit mpmath; the series
    runs on complex fixed-point integers with 10 bits more than dps
    digits, so that each product and sum is exact and each new
    coefficient is rounded once."""
    def mpc(g):
        return mpmath.mpc(mpmath.mpf(g.re.numerator) / g.re.denominator,
                          mpmath.mpf(g.im.numerator) / g.im.denominator)

    bits = math.ceil(dps * math.log2(10)) + 10
    one = 1 << bits

    def fix(z):
        return (int(mpmath.nint(z.real * one)),
                int(mpmath.nint(z.imag * one)))

    n = conn.rank
    with mpmath.workdps(dps):
        q = Poly.const(1)
        for den in {e.den for row in conn.matrix for e in row}:
            q = q * den
        Pc = [[[mpc(c) for c in (e.num * (q // e.den)).coeffs]
               for e in row] for row in conn.matrix]
        qc = [mpc(c) for c in q.coeffs]
        sings = [mpc(c) for c in conn.singular_points]
        tiny = one // 10 ** (dps + 2)
        out = []
        for loop in loop_paths(conn).loops:
            Y = [[(one * (i == j), 0) for j in range(n)] for i in range(n)]
            for piece in loop:
                if isinstance(piece, Line):
                    a, b = mpmath.mpc(piece.start), mpmath.mpc(piece.end)
                    at = lambda s, a=a, b=b: a + s * (b - a)
                    length = abs(b - a)
                else:
                    c, r = mpmath.mpc(piece.center), mpmath.mpf(piece.radius)
                    t0 = mpmath.mpf(piece.theta0)
                    t1 = mpmath.mpf(piece.theta1)
                    at = lambda s, c=c, r=r, t0=t0, t1=t1: \
                        c + r * mpmath.expj(t0 + s * (t1 - t0))
                    length = r * abs(t1 - t0)
                s = mpmath.mpf(0)
                while s < 1:
                    z0 = at(s)
                    rho = min(abs(z0 - c) for c in sings)
                    s1 = min(mpmath.mpf(1), s + rho / (4 * length))
                    h = at(s1) - z0
                    Pj = [[[fix(v * h ** (k + 1)) for k, v in
                            enumerate(_mp_poly_at(Pc[i][l], z0))]
                           for l in range(n)] for i in range(n)]
                    qs = _mp_poly_at(qc, z0)
                    qj = [fix(v * h ** k) for k, v in enumerate(qs)]
                    inv_re, inv_im = fix(-1 / qs[0])
                    Z = [Y]
                    total = [row[:] for row in Y]
                    small = 0
                    k = 0
                    while small < 3:
                        # q_0 (k+1) Z_{k+1} = -sum_j P_j Z_{k-j}
                        #                     - sum_{j>=1} q_j (k+1-j) Z_{k+1-j}
                        nxt = []
                        for i in range(n):
                            row = []
                            for col in range(n):
                                re = im = 0
                                for l in range(n):
                                    for jj, (a, b) in enumerate(
                                            Pj[i][l][:k + 1]):
                                        c, d = Z[k - jj][l][col]
                                        re += a * c - b * d
                                        im += a * d + b * c
                                for jj in range(1, min(k + 1, len(qj) - 1) + 1):
                                    (a, b), w = qj[jj], k + 1 - jj
                                    c, d = Z[k + 1 - jj][i][col]
                                    re += w * (a * c - b * d)
                                    im += w * (a * d + b * c)
                                # products of three fixed-point numbers
                                den = (k + 1) << (2 * bits)
                                row.append(((re * inv_re - im * inv_im) // den,
                                            (re * inv_im + im * inv_re) // den))
                            nxt.append(row)
                        Z.append(nxt)
                        total = [[(x + u, y + v) for (x, y), (u, v) in
                                  zip(trow, nrow)]
                                 for trow, nrow in zip(total, nxt)]
                        big = max(max(abs(a), abs(b)) for row in nxt
                                  for a, b in row)
                        small = small + 1 if big < tiny else 0
                        k += 1
                    Y = total
                    s = s1
            out.append(np.array([[complex(a / one, b / one) for a, b in row]
                                 for row in Y]))
    return out


@pytest.fixture(scope="module")
def oracle():
    return {name: _mp_loop_generators(fixture(name)) for name in FIXTURE_NAMES}


def _residue_conn(points, residues):
    """M = sum_c K_c / (t - c) with trivial splitting, K_c the residue
    matrices (Fractions) at the simple poles c."""
    n = len(residues[0])
    m = [[ZERO] * n for _ in range(n)]
    for c, K in zip(points, residues):
        for i, j in itertools.product(range(n), repeat=2):
            if K[i][j]:
                m[i][j] = m[i][j] + RatFun.const(K[i][j]) / RatFun(
                    Poly([-c, GaussRat(1)]))
    return Connection(SplittingType([0] * n),
                      Divisor([(c, 1) for c in points]), m)


def _q(*rows):
    """A residue matrix from rows of 'a/b' strings."""
    return [[Fraction(x) for x in row.split()] for row in rows]


# the residues of triangle-diag: the generators do not commute
_TRIANGLE_DIAG_RESIDUES = [_q("1/4 0", "0 -1/4"), _q("0 1", "1/16 0"),
                           _q("-1/4 -1", "-1/16 1/4")]
# shaped like the benchmark's systems: simple poles at real points, residue
# entries of size at most 1, and local exponents with real parts in (-1, 1)
_WIDER_POINTS = [GaussRat(-1), GaussRat(0), GaussRat(2)]
_WIDER_RESIDUES = {
    # the triangle-diag block plus a rank-1 block
    "direct-sum-3": [
        _q("1/4 0 0", "0 -1/4 0", "0 0 1/3"),
        _q("0 1 0", "1/16 0 0", "0 0 -1/2"),
        _q("-1/4 -1 0", "-1/16 1/4 0", "0 0 1/6")],
    # distinct exponents at every pole, two of them complex pairs
    "rank4": [
        _q("1/2 0 -1/2 1/4", "0 1/2 0 1/4", "-1/4 -1/4 -1/4 0",
           "0 -1/2 1/4 0"),
        _q("-1/2 0 1/4 1/2", "0 1/4 -1/4 0", "0 1/4 0 0", "0 -1/4 -1/4 0"),
        _q("0 0 1/4 -3/4", "0 -3/4 1/4 -1/4", "1/4 0 1/4 0",
           "0 3/4 0 0")],
}


# upper-triangular residues at 0, 1 and 2 summing to zero: e_1 spans an
# invariant line of the rank-4 monodromy
_TRIANGULAR4_POINTS = [GaussRat(0), GaussRat(1), GaussRat(2)]
_TRIANGULAR4_RESIDUES = [
    _q("1/4 1 0 1/2", "0 -1/3 1 0", "0 0 1/5 1", "0 0 0 1/7"),
    _q("-1/6 0 1 0", "0 1/8 1/2 1", "0 0 -1/9 0", "0 0 0 1/3"),
    _q("-1/12 -1 -1 -1/2", "0 5/24 -3/2 -1", "0 0 -4/45 -1",
       "0 0 0 -10/21")]


def _wider(name):
    return _residue_conn(_WIDER_POINTS, _WIDER_RESIDUES[name])


@pytest.fixture(scope="module")
def wider_oracle():
    return {name: _mp_loop_generators(_wider(name))
            for name in _WIDER_RESIDUES}


class TestTaylorOracle:
    """Double-precision generators against the 30-digit oracle."""

    @staticmethod
    def _errors(name, oracle, tol):
        report = monodromy_generators(fixture(name), tol=tol)
        errs = [float(np.max(np.abs(T - ref)))
                for T, ref in zip(report.matrices, oracle[name])]
        return errs, report

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_within_reported_bound(self, name, oracle):
        errs, report = self._errors(name, oracle, 1e-12)
        for err, diag in zip(errs, report.diagnostics):
            assert err <= diag.tail_bound + 1e-13, (name, err, diag)
            # three pieces per loop, each with a summed tail bound <= tol
            assert diag.tail_bound <= 3e-12
            assert diag.steps > 0 and diag.max_order > 0
            assert diag.min_clearance > 0.1

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_tol_sweep(self, name, oracle):
        tols = [10.0 ** -e for e in range(6, 14)]
        worst, bounds = [], []
        for tol in tols:
            errs, report = self._errors(name, oracle, tol)
            for err, diag in zip(errs, report.diagnostics):
                assert err <= diag.tail_bound + 1e-13, (name, tol, err)
            worst.append(max(errs))
            bounds.append(report.transport_error)
        # the error falls with tol until roundoff, and so does the bound
        for coarse, fine in zip(worst, worst[1:]):
            assert fine <= coarse or fine < 1e-13, (name, worst)
        assert worst[-1] < 1e-3 * worst[0] or worst[0] < 1e-10
        for coarse, fine in zip(bounds, bounds[1:]):
            assert fine < coarse

    # the fixtures stop at rank 2; the batched recurrence reshapes by rank
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("name", sorted(_WIDER_RESIDUES))
    def test_wider_systems_within_reported_bound(self, name, tol,
                                                 wider_oracle):
        report = monodromy_generators(_wider(name), tol=tol)
        assert report.det_defect < 1e-8
        for T, ref, diag in zip(report.matrices, wider_oracle[name],
                                report.diagnostics):
            err = float(np.max(np.abs(T - ref)))
            assert err <= diag.tail_bound + 1e-13, (name, tol, err, diag)


class TestInvertedReturnLeg:
    """A generator is A^-1 C A, from the approach A and the circle C walked
    from A.  Transporting the whole loop, return leg included, gives the
    same matrix within the two summed bounds."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("direct-sum-3",
                                                      "rank4"))
    def test_matches_full_loop(self, name):
        conn = _wider(name) if name in _WIDER_RESIDUES else fixture(name)
        report = monodromy_generators(conn, tol=1e-10)
        full = monodromy_mod._transport(monodromy_mod._TaylorStepper(conn),
                                        loop_paths(conn).loops, 1e-10)
        for T, diag, (ends, whole) in zip(report.matrices,
                                          report.diagnostics, full):
            err = float(np.max(np.abs(T - ends[-1][0])))
            assert err <= diag.tail_bound + whole.tail_bound, (name, err)
            # the return leg is not walked
            assert diag.steps < whole.steps


class TestTransportMemory:
    def test_rank4_loop_peak(self):
        # the longest loop of a rank-4 system, at the benchmark's tol
        conn = _wider("rank4")
        rhs = monodromy_mod._TaylorStepper(conn)
        loop = max(loop_paths(conn).loops,
                   key=lambda loop: len(monodromy_mod._chords(rhs.sings,
                                                              loop)))
        tracemalloc.start()
        try:
            monodromy_mod._transport(rhs, [loop], 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    def test_rank4_call_peak(self):
        # one batch holds the approach and circle of every loop; its peak
        # read 1.29 MiB, which the bound doubles
        conn = _wider("rank4")
        tracemalloc.start()
        try:
            monodromy_generators(conn, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 2 ** 20

    @pytest.mark.parametrize("name", ["euler-half", "triangle-nilpotent",
                                      "triangle-diag", "two-point-reducible"])
    def test_one_series_per_transport(self, name, monkeypatch):
        # a chord that needs more terms grows the batch, never a series of
        # its own
        built = []

        class Counted(monodromy_mod._Series):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(monodromy_mod, "_Series", Counted)
        conn = fixture(name)
        rhs = monodromy_mod._TaylorStepper(conn)
        for loop in loop_paths(conn).loops:
            built.clear()
            monodromy_mod._transport(rhs, [loop], 1e-12)
            assert len(built) <= 1
        # and one batch serves every loop of a monodromy call
        built.clear()
        monodromy_generators(conn, tol=1e-12)
        assert len(built) == 1


# ---------------------------------------------------------------------------
# singular-point layouts: rank-1 connections with known generators
# ---------------------------------------------------------------------------

def _rank1_layout(points, residues):
    """M = sum lam_c / (t - c), whose generator at c is exp(-2 pi i lam_c)."""
    m = ZERO
    for c, lam in zip(points, residues):
        m = m + RatFun.const(lam) / RatFun(Poly([-c, GaussRat(1)]))
    return Connection(SplittingType([0]), Divisor([(c, 1) for c in points]),
                      [[m]])


class TestDefaultBase:
    @staticmethod
    def _unturned(conn):
        scale = max(abs(c.to_complex()) for c in conn.singular_points)
        return 1.0 + scale * (1.0 + 0.5j)

    def test_unturned_when_approach_lines_clear(self):
        for name in fixture_names():
            conn = fixture(name)
            assert default_base(conn) == self._unturned(conn), name



class TestRoute:
    """Approach and jet segments that would pass within a tenth of a loop
    radius of a singular point follow its loop circle instead."""

    # on and near the line through the three collinear points, at their
    # midpoints, where the loop circles touch, and far out, where a loop
    # radius is below 1e-9 of the approach's length (1e10j is off the line)
    @pytest.mark.parametrize("base", [3, -1, -0.5, 0.5, 1.5, 2.5, 3 + 1e-14j,
                                      3 - 1e-14j, 3 + 0.001j, 3 - 0.04j,
                                      1e9, 1e10, 1e12, 1e14, -1e12, 1e10j,
                                      1e8 + 1e8j, 1e10 + 1e10j, 1e12 + 1e12j,
                                      1e14 + 1e14j])
    def test_base_on_the_line_of_points(self, base):
        report = monodromy_generators(fixture("triangle-diag"), base=base)
        assert report.defect < 1e-8
        assert report.det_defect < 1e-8
        assert report.irreducible.kind == "irreducible"
        sings = report.points + [report.base]
        least = min(0.5 * abs(a - b) for a, b in itertools.combinations(sings, 2))
        for d in report.diagnostics:
            assert d.min_clearance >= 0.1 * least

    # Points and base on a slanted line, where the computed side of a point
    # on an approach is roundoff: the detour and the loop order must agree.
    # The residues are those of triangle-diag, so the generators do not
    # commute.
    @pytest.mark.parametrize("points, base", [
        ([GaussRat(Fraction(-5, 2), Fraction(5, 2)),
          GaussRat(Fraction(-1, 2), Fraction(9, 2)), GaussRat(-3, 2)],
         -2.75 + 2.25j),
        ([GaussRat(1, 5), GaussRat(-5, -1), GaussRat(-1, 3)], 2 + 6j),
    ])
    def test_base_on_a_slanted_line(self, points, base):
        conn = _residue_conn(points, _TRIANGLE_DIAG_RESIDUES)
        report = monodromy_generators(conn, base=base)
        assert report.defect < 1e-8
        assert report.irreducible.kind == "irreducible"

    def test_base_beside_a_pole(self):
        # from 0.1 the straight approach to the loop around -1 runs through 0
        conn = _rank1_layout([GaussRat(0), GaussRat(-1)], [Fraction(0)] * 2)
        report = monodromy_generators(conn, base=0.1, tol=1e-10)
        assert all(abs(T[0, 0] - 1) < 1e-12 for T in report.matrices)
        assert min(d.min_clearance for d in report.diagnostics) >= 0.005

    def test_jet_at_the_default_base(self):
        # the route from the default base to itself is one empty segment
        conn = fixture("triangle-diag")
        omega = Section([ONE, T], conn.splitting)
        t0 = default_base(conn)
        jet = period_jet(conn, omega, t0, depth=1)
        assert np.allclose(jet.jet, [[1, t0]], atol=1e-15)

    # inside the loop circle around 1 (radius 1/2), just past 1 on the ray
    # from the default base 3+i: the segment leaves the circle at its far
    # crossing and comes straight back in
    @pytest.mark.parametrize("dist", [0.1, 0.3])
    def test_jet_point_past_a_pole(self, dist):
        conn = fixture("triangle-diag")
        u = (1 - default_base(conn)) / abs(1 - default_base(conn))
        t0 = 1 + dist * u
        omega = Section([ONE, T], conn.splitting)
        jet = period_jet(conn, omega, t0, depth=2)
        assert jet.transport_error < 1e-10
        ode = cyclic_reduce(conn, omega)
        assert ode_residual(conn, omega, ode, t0) == [GaussRat(0)] * 2
        assert period_jet_residual(conn, omega, ode, t0) < 1e-8
        # achieve_with_jet solves its exact kernel at t0 and transports
        # nothing: the low entries are exactly 0 this close to the pole too
        omega, jet = achieve_with_jet(conn, parse_divisor("inf^1"), t0)
        assert not jet.jet[:-1, 0].any() and jet.jet[-1, 0] != 0

    def test_return_leg_reverses_the_approach(self):
        spec = loop_paths(fixture("triangle-diag"), base=3)
        # the approach to the loop around 0 detours on the circles around
        # 2 and 1, along half circles
        detours = [p for p in spec.loops[0] if isinstance(p, Arc)
                   and abs(p.theta1 - p.theta0) < 2 * math.pi]
        assert [p.center for p in detours] == [2, 1, 1, 2]
        assert all(abs(p.theta1 - p.theta0 - math.pi) < 1e-12
                   for p in detours[:2])
        for loop in spec.loops:
            z = [spec.base]
            for piece in loop:
                assert abs(piece.z(0.0) - z[-1]) < 1e-12
                z.append(piece.z(1.0))
            assert abs(z[-1] - spec.base) < 1e-12
            half = len(loop) // 2
            for p, q in zip(loop[:half], reversed(loop[half + 1:])):
                assert abs(p.z(0.3) - q.z(0.7)) < 1e-12


def _check_layout(layout):
    points, residues, base = layout
    report = monodromy_generators(_rank1_layout(points, residues), base=base,
                                  tol=1e-10)
    zs = [c.to_complex() for c in points]
    for c, lam in zip(zs, residues):
        k = min(range(len(zs)), key=lambda j: abs(report.points[j] - c))
        err = abs(report.matrices[k][0, 0]
                  - cmath.exp(-2j * math.pi * float(lam)))
        assert err <= report.diagnostics[k].tail_bound + 1e-13, (c, err)
    assert report.defect < 1e-8
    gaps = [abs(a - b) for a, b in itertools.combinations(zs, 2)]
    cap = 200 * len(zs) * (1 + math.log10(max(gaps) / min(gaps)))
    assert sum(d.steps for d in report.diagnostics) <= cap


def _gauss_ints(lo, hi):
    return st.builds(GaussRat, st.integers(lo, hi), st.integers(lo, hi))


def _with_residues(points, base=None):
    """(points, residues, base).  The residues are multiples of 1/8 in
    [-1/2, 1/2], but the last one makes the sum zero, as holomorphy at
    infinity with twist 0 requires."""
    n = len(points)
    return st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1).map(
        lambda ks: (points, [Fraction(k, 8) for k in ks]
                    + [-Fraction(sum(ks), 8)], base))


@st.composite
def _clustered(draw):
    centre = draw(_gauss_ints(-3, 3))
    gap = Fraction(1, 10 ** draw(st.integers(1, 6)))
    offsets = draw(st.lists(_gauss_ints(-2, 2), min_size=2, max_size=3,
                            unique=True))
    far = draw(_gauss_ints(-3, 3).filter(
        lambda p: abs((p - centre).to_complex()) >= 1))
    points = [centre + GaussRat(gap) * w for w in offsets] + [far]
    return draw(_with_residues(points))


@st.composite
def _collinear(draw):
    start = draw(_gauss_ints(-5, 5))
    step = draw(st.builds(lambda a, b: GaussRat(Fraction(a, 4), Fraction(b, 4)),
                          st.integers(-4, 4), st.integers(-4, 4))
                .filter(bool))
    ks = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=5,
                       unique=True))
    return draw(_with_residues([start + step * k for k in ks]))


@st.composite
def _spread(draw):
    points = draw(st.lists(_gauss_ints(-100, 100), min_size=3, max_size=4,
                           unique=True))
    return draw(_with_residues(points))


@st.composite
def _base_near_pole(draw):
    points = draw(st.lists(_gauss_ints(-3, 3), min_size=2, max_size=4,
                           unique=True))
    pole = draw(st.sampled_from(points)).to_complex()
    dist = 10.0 ** -draw(st.floats(1, 6))
    angle = draw(st.floats(0, 2 * math.pi))
    return draw(_with_residues(points, pole + cmath.rect(dist, angle)))


_LAYOUT_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                            report_multiple_bugs=False)


class TestLayouts:
    """Generators at tol 1e-10 lie within their reported bounds, the loop
    product is the identity, and the step count grows at most with the
    logarithm of the spread of the singular points."""

    # The stepper Taylor-shifts the coefficients of q and P taken at t = 0.
    # Near a cluster away from 0 the shifted q loses its digits: at
    # 1.0001i the error is 34 times the bound, and in the second layout
    # q_0 rounds to 0, so no order meets the tail target.
    @pytest.mark.xfail(strict=True, raises=(AssertionError, StepUnderflow),
                       reason="shifted coefficients cancel near a cluster "
                       "away from 0 (CHANGES FOUND)")
    @_LAYOUT_SETTINGS
    @given(_clustered())
    @example(([GaussRat(0, 1), GaussRat(0, Fraction(10001, 10000)),
               GaussRat(0)], [Fraction(1, 8), Fraction(1, 8), Fraction(-1, 4)],
              None))
    @example(([GaussRat(0, -1), GaussRat(0, Fraction(-99999, 100000)),
               GaussRat(0, Fraction(-100001, 100000)), GaussRat(0)],
              [Fraction(1, 8)] * 3 + [Fraction(-3, 8)], None))
    def test_clustered(self, layout):
        _check_layout(layout)

    # The default base 1 + 5.385(1 + i/2) lies on the line through these
    # points, so its approach to the loop around -1-i runs through 5+2i and
    # 3+i, and detours on their loop circles.
    @_LAYOUT_SETTINGS
    @given(_collinear())
    @example(([GaussRat(-1, -1), GaussRat(3, 1), GaussRat(5, 2)],
              [Fraction(0)] * 3, None))
    def test_collinear(self, layout):
        _check_layout(layout)

    @_LAYOUT_SETTINGS
    @given(_spread())
    def test_widely_spread(self, layout):
        _check_layout(layout)

    # The approach from 0.1 to the loop around -1 detours on the loop circle
    # around 0, so the first layout passes.  With the base 0.01 from i, the
    # error at 0 is 4.4e-11 against a bound of 3.4e-11: the bound leaves out
    # roundoff (ROADMAP item 2(b)).
    @pytest.mark.xfail(strict=True,
                       raises=(SingularityTooClose, AssertionError),
                       reason="approach lines may cross a singular point; "
                       "bounds leave out roundoff (CHANGES FOUND)")
    @_LAYOUT_SETTINGS
    @given(_base_near_pole())
    @example(([GaussRat(0), GaussRat(-1)], [Fraction(0), Fraction(0)], 0.1))
    @example(([GaussRat(0), GaussRat(0, 1)], [Fraction(-1, 2), Fraction(1, 2)],
              0.01 + 1j))
    def test_base_near_pole(self, layout):
        _check_layout(layout)
