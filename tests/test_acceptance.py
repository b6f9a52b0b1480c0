"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with -v (or -s to see the per-criterion lines inline).
"""

import cmath
import math
import random

import numpy as np

from meroconn import (
    Divisor,
    GaussRat,
    Section,
    chern,
    cyclic_reduce,
    estimate_H,
    fixture,
    generation_bound,
    h_bound,
    irreducibility_check,
    local_data,
    monodromy_generators,
    ode_residual,
    parse_divisor,
    period_jet,
    residue,
    residue_identity_check,
    section_space_basis,
    spanning_sections,
    wronskian_determinant,
)
from meroconn.monodromy import achieve_multiplicity
from helpers import (
    period_jet_residual,
    random_connection,
    random_poly_section,
    random_rank1_connection,
)


def _line(num, name, ok):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}")


def n_infinity(n: int) -> Divisor:
    return parse_divisor(f"inf^{n}") if n > 0 else Divisor([])


def test_criterion_01_line_bundle_identity():
    # rank 1: the maximal generation number over S(n, n*inf) is n + c(V) + 1
    rng = random.Random(101)
    checked = 0
    ok = True
    while checked < 50:
        conn = random_rank1_connection(rng)
        c = chern(conn.splitting)
        n = rng.randint(0, 4)
        if n + c + 1 < 1:
            continue  # the section space is zero-dimensional
        checked += 1
        sections = spanning_sections(conn, n_infinity(n))
        sections += section_space_basis(conn.splitting, n_infinity(n))
        best = max(generation_bound(conn, s) for s in sections)
        if best != n + c + 1 or h_bound(conn, n) != n + c + 1:
            ok = False
            break
    _line(1, "line-bundle identity H(n) = n + c(V) + 1", ok)
    assert ok


def test_criterion_02_bound_soundness():
    ok = True
    for name in ("triangle-nilpotent", "triangle-diag"):
        conn = fixture(name)
        for n in range(4):
            report = estimate_H(conn, n, n_infinity(n), 100, seed=100 + n)
            if report.violated:
                ok = False
    _line(2, "generation bound never violated on irreducible fixtures", ok)
    assert ok


def test_criterion_03_residue_identity():
    rng = random.Random(103)
    ok = True
    for name in ("triangle-nilpotent", "triangle-diag"):
        conn = fixture(name)
        for _ in range(50):
            omega = random_poly_section(rng, conn, deg=2)
            if wronskian_determinant(conn, omega).is_zero():
                continue
            records = residue_identity_check(conn, omega)
            if not all(r.equal for r in records):
                ok = False
    _line(3, "log-coefficient residue equals Wronskian valuation", ok)
    assert ok


def test_criterion_04_cyclic_identity():
    rng = random.Random(104)
    checked = 0
    ok = True
    while checked < 100:
        conn = random_connection(rng)
        omega = random_poly_section(rng, conn, deg=2)
        a = wronskian_determinant(conn, omega)
        if a.is_zero():
            continue
        checked += 1
        ode = cyclic_reduce(conn, omega)
        if ode.coeffs[-1] * a != a.derivative() + conn.trace() * a:
            ok = False
            break
    _line(4, "exact identity c_(a-1) A = A' + tr(M) A", ok)
    assert ok


def test_criterion_05_euler_monodromy():
    report = monodromy_generators(fixture("euler-half"), tol=1e-12)
    ok = all(abs(T[0, 0] + 1.0) < 1e-9 for T in report.matrices) \
        and report.defect < 1e-8
    _line(5, "Euler generators equal -1, loop product trivial", ok)
    assert ok


def test_criterion_06_local_global_match():
    diag = monodromy_generators(fixture("triangle-diag"), tol=1e-12)
    t0 = diag.generator(0.0)
    eig = sorted(np.linalg.eigvals(t0), key=lambda z: z.imag)
    diag_ok = abs(eig[0] - (-1j)) < 1e-6 and abs(eig[1] - 1j) < 1e-6

    # triangle-nilpotent has residues K0 = [[0,1],[0,0]] at t=0,
    # K1 = [[0,0],[1/4,0]] at t=1 and K2 = -(K0+K1) = [[0,-1],[-1/4,0]] at
    # t=2, whose characteristic polynomial is x^2 - 1/4.  The local
    # exponents are {0,0}, {0,0} and {+-1/2}, so the predicted traces
    # sum_mu exp(-2 pi i mu) are +2, +2 and exp(-pi i) + exp(pi i) = -2.
    # Traces rather than eigenvalues are compared: these generators can be
    # Jordan blocks, whose computed eigenvalues lose half the digits.
    conn = fixture("triangle-nilpotent")
    nilp = monodromy_generators(conn, tol=1e-12)
    predicted = [sum(cmath.exp(-2j * math.pi * mu)
                     for mu in local_data(conn, c).exponents)
                 for c in conn.singular_points]
    traces = [complex(np.trace(nilp.generator(c)))
              for c in conn.singular_points]
    expected_ok = len(predicted) == 3 and all(
        abs(p - e) < 1e-6 for p, e in zip(predicted, (2.0, 2.0, -2.0)))
    trace_ok = expected_ok and all(abs(tr - p) < 1e-6
                                   for tr, p in zip(traces, predicted))
    ok = diag_ok and trace_ok
    _line(6, "local exponents match monodromy eigenvalues/traces", ok)
    assert diag_ok
    assert expected_ok, f"predicted traces: {predicted}"
    assert trace_ok, f"traces: {traces}, predicted: {predicted}"


def test_criterion_07_end_to_end_scalar_equation():
    from meroconn import RatFun
    from meroconn.monodromy import default_base

    ok = True
    for name in ("euler-half", "triangle-nilpotent", "triangle-diag",
                 "two-point-reducible"):
        conn = fixture(name)
        comps = [RatFun.const(1)] + [RatFun.const(0)] * (conn.rank - 1)
        omega = Section(comps, conn.splitting)
        ode = cyclic_reduce(conn, omega)
        t0 = default_base(conn) + 0.25j
        # exactly 0 at the probe, and the numeric period jet, transported
        # from the default base, satisfies the equation to roundoff
        if any(ode_residual(conn, omega, ode, t0)) \
                or period_jet_residual(conn, omega, ode, t0) >= 1e-7:
            ok = False
    _line(7, "numeric period jets satisfy the exact scalar equation", ok)
    assert ok


def test_criterion_08_maximal_multiplicity():
    conn = fixture("euler-half")
    ok = True
    for n in (1, 2, 3):
        d = n + 1
        omega = achieve_multiplicity(conn, n_infinity(n), 3.0)
        jet = period_jet(conn, omega, 3.0, depth=d, tol=1e-12).jet[:, 0]
        scale = max(1e-300, float(np.max(np.abs(jet))))
        if not all(abs(jet[i]) < 1e-7 * scale for i in range(d - 1)):
            ok = False
        if not abs(jet[d - 1]) > 10 * 1e-7 * scale:
            ok = False
    _line(8, "constructed sections reach period multiplicity d-1", ok)
    assert ok


def test_criterion_09_residue_theorem_gate():
    rng = random.Random(109)
    ok = True
    conns = [fixture(name) for name in
             ("euler-half", "triangle-nilpotent", "triangle-diag",
              "two-point-reducible")]
    conns += [random_connection(rng) for _ in range(20)]
    for conn in conns:
        if not conn.validate().ok:
            ok = False
            continue
        total = sum((residue(conn.trace(), c) for c in conn.singular_points),
                    GaussRat(0))
        if total != GaussRat(-chern(conn.splitting)):
            ok = False
    _line(9, "residue sum of tr(M) equals -c(V) on accepted connections", ok)
    assert ok


def test_criterion_10_reducibility_witness():
    red = irreducibility_check(fixture("two-point-reducible"), tol=1e-12)
    witness_ok = red.kind == "reducible" and red.witness is not None
    if witness_ok:
        report = monodromy_generators(fixture("two-point-reducible"),
                                      tol=1e-12)
        v = np.asarray(red.witness, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        mats = report.matrices
        if red.witness_kind == "hyperplane":
            mats = [T.T for T in mats]
        for T in mats:
            w = T @ v
            resid = np.linalg.norm(w - (np.vdot(v, w)) * v)
            if resid > 1e-6 * np.linalg.norm(w):
                witness_ok = False
    irr_ok = all(
        irreducibility_check(fixture(name), tol=1e-12).kind == "irreducible"
        for name in ("triangle-nilpotent", "triangle-diag"))
    ok = witness_ok and irr_ok
    _line(10, "reducibility verdicts with verified witness", ok)
    assert ok
