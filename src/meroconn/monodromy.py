"""Numerical analytic continuation of flat sections along complex paths.

Flat sections solve v' = -M(t) v.  Flat dual sections solve u' = M(t)^T u,
which keeps U^T T constant, so the dual frame is taken as U = T^{-T} from
the flat frame T rather than transported.  Transport uses an adaptive
Dormand-Prince 5(4) pair with PI step control; the step length is
additionally capped at a quarter of the distance to the nearest singular
point.  All numerics are double precision and every report carries an
accumulated local-error estimate.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bundle import Divisor, Section, section_space_basis
from .connection import Connection
from .errors import (
    DegenerateJet,
    InvalidArgument,
    SingularityTooClose,
    StepUnderflow,
)
from .exactalg import GaussRat, RatFun, residue
from .wronskian import ScalarODE, iterated

__all__ = [
    "Line", "Arc", "PathSpec", "MonodromyReport", "PeriodJet",
    "IrreducibilityVerdict", "default_base", "loop_paths", "transport",
    "monodromy_generators", "irreducibility_check", "period_jet",
    "achieve_with_jet", "achieve_multiplicity", "ode_residual",
]


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def z(self, s: float) -> complex:
        return self.start + s * (self.end - self.start)

    def dz(self, s: float) -> complex:
        return self.end - self.start


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def z(self, s: float) -> complex:
        return self.center + self.radius * cmath.exp(
            1j * (self.theta0 + s * (self.theta1 - self.theta0)))

    def dz(self, s: float) -> complex:
        return (1j * (self.theta1 - self.theta0) * self.radius
                * cmath.exp(1j * (self.theta0 + s * (self.theta1 - self.theta0))))


@dataclass
class PathSpec:
    """Base point plus one lasso (approach + circle + return) per singular
    point, ordered by angle as seen from the base."""

    base: complex
    points: list                 # ordered singular points (complex)
    loops: list                  # loops[k] = list of pieces for points[k]


def default_base(conn: Connection) -> complex:
    """Deterministic base point outside the hull of the singularities."""
    sings = [c.to_complex() for c in conn.singular_points]
    scale = max((abs(c) for c in sings), default=0.0)
    return 1.0 + max(scale, 0.0) * (1.0 + 0.5j)


def loop_paths(conn: Connection, base: complex | None = None) -> PathSpec:
    sings = [c.to_complex() for c in conn.singular_points]
    if base is None:
        base = default_base(conn)
    base = complex(base)
    if any(abs(base - c) < 1e-12 for c in sings):
        raise SingularityTooClose("base point coincides with a singular point")
    order = sorted(range(len(sings)),
                   key=lambda k: (cmath.phase(sings[k] - base), abs(sings[k])))
    points, loops = [], []
    for k in order:
        c = sings[k]
        others = [x for x in sings if x != c] + [base]
        rho = 0.5 * min(abs(c - x) for x in others)
        u = (base - c) / abs(base - c)
        entry = c + rho * u
        th = cmath.phase(entry - c)
        pieces = [
            Line(base, entry),
            Arc(c, rho, th, th + 2 * math.pi),
            Line(entry, base),
        ]
        points.append(c)
        loops.append(pieces)
    return PathSpec(base=base, points=points, loops=loops)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

class _MatrixEval:
    """Fast complex evaluation of -M, the matrix of v' = -M v."""

    def __init__(self, conn: Connection):
        n = conn.rank
        self.n = n
        self.entries = []
        for i in range(n):
            row = []
            for j in range(n):
                e = conn.matrix[i][j]
                num = np.array([c.to_complex() for c in reversed(e.num.coeffs)]
                               or [0.0 + 0j])
                den = np.array([c.to_complex() for c in reversed(e.den.coeffs)])
                row.append((num, den))
            self.entries.append(row)

    def matrix(self, z: complex) -> np.ndarray:
        n = self.n
        out = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                num, den = self.entries[i][j]
                out[i, j] = np.polyval(num, z) / np.polyval(den, z)
        return -out


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)

_MIN_STEP = 1e-13
_MIN_CLEARANCE = 1e-12


def _integrate_piece(rhs: _MatrixEval, piece, y: np.ndarray, tol: float,
                     sings: list):
    """One smooth piece; returns (y, accumulated local-error estimate)."""

    def f(s, yy):
        z = piece.z(s)
        dz = piece.dz(s)
        return (rhs.matrix(z) @ yy) * dz

    s = 0.0
    h = 0.1
    err_acc = 0.0
    prev_ratio = 1.0
    while s < 1.0:
        z = piece.z(s)
        speed = abs(piece.dz(s))
        if sings:
            dist = min(abs(z - c) for c in sings)
            if dist < _MIN_CLEARANCE:
                raise SingularityTooClose(
                    f"path point {z} is within {dist:.2e} of a singular point")
            if speed > 0:
                h = min(h, 0.25 * dist / speed)
        h = min(h, 1.0 - s)
        if h < _MIN_STEP:
            raise StepUnderflow("step size underflow during transport")
        # embedded Dormand-Prince step
        ks = []
        for stage in range(7):
            ys = y
            for a, k in zip(_DP_A[stage], ks):
                if a:
                    ys = ys + (h * a) * k
            ks.append(f(s + _DP_C[stage] * h, ys))
        y5 = y
        y4 = y
        for b5, b4, k in zip(_DP_B5, _DP_B4, ks):
            if b5:
                y5 = y5 + (h * b5) * k
            if b4:
                y4 = y4 + (h * b4) * k
        err = float(np.max(np.abs(y5 - y4)))
        scale = max(1.0, float(np.max(np.abs(y))))
        # local error per unit length <= tol, with a roundoff floor
        allowed = scale * (tol * h * speed + 1e-15)
        ratio = allowed / err if err > 0 else 10.0
        if err <= allowed:
            s += h
            y = y5
            err_acc += err
            # PI controller
            factor = 0.9 * ratio ** 0.14 * prev_ratio ** 0.08
            prev_ratio = ratio
            h *= min(5.0, max(0.2, factor))
        else:
            h *= max(0.2, 0.9 * ratio ** 0.2)
            if h < _MIN_STEP:
                raise StepUnderflow("tolerance unreachable during transport")
    return y, err_acc


def _check_tol(tol: float):
    """Refuse a non-positive or NaN integration tolerance."""
    if not tol > 0:
        raise InvalidArgument(f"tol must be positive, got {tol}")


def _transport(rhs: _MatrixEval, pieces, y0: np.ndarray, tol: float,
               sings: list):
    _check_tol(tol)
    y = np.array(y0, dtype=complex)
    err = 0.0
    for piece in pieces:
        y, e = _integrate_piece(rhs, piece, y, tol, sings)
        err += e
    return y, err


def transport(conn: Connection, path, v0, tol: float = 1e-12) -> np.ndarray:
    """Continue the flat-section system v' = -M v along a path (a piece or
    a list of pieces); returns the endpoint value."""
    conn.ensure_valid()
    pieces = [path] if isinstance(path, (Line, Arc)) else list(path)
    sings = [c.to_complex() for c in conn.singular_points]
    rhs = _MatrixEval(conn)
    y, _ = _transport(rhs, pieces, np.asarray(v0, dtype=complex), tol, sings)
    return y


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

@dataclass
class IrreducibilityVerdict:
    kind: str                       # "irreducible" | "reducible" | "inconclusive"
    witness: np.ndarray | None = None
    witness_kind: str | None = None  # "line" | "hyperplane" | "subspace"
    margin: float = 0.0

    def __str__(self):
        if self.kind == "reducible":
            return f"reducible ({self.witness_kind} witness, margin {self.margin:.2e})"
        return f"{self.kind} (margin {self.margin:.2e})"


@dataclass
class MonodromyReport:
    base: complex
    points: list                    # ordered singular points
    matrices: list                  # generators T_c, same order
    defect: float                   # || T_last ... T_first - I ||_inf
    transport_error: float
    det_defect: float               # max relative error of det T_c
    irreducible: IrreducibilityVerdict | None = None

    def generator(self, c) -> np.ndarray:
        z = c.to_complex() if isinstance(c, GaussRat) else complex(c)
        for p, T in zip(self.points, self.matrices):
            if abs(p - z) < 1e-9:
                return T
        raise KeyError(f"no generator at {c}")


def monodromy_generators(conn: Connection, base=None, tol: float = 1e-12,
                         trials: int = 20,
                         with_verdict: bool = True) -> MonodromyReport:
    """Transport the identity frame around each singular point."""
    conn.ensure_valid()
    spec = loop_paths(conn, base)
    n = conn.rank
    sings = [c.to_complex() for c in conn.singular_points]
    rhs = _MatrixEval(conn)
    eye = np.eye(n, dtype=complex)
    results = [_transport(rhs, loop, eye, tol, sings) for loop in spec.loops]
    Ts = [r[0] for r in results]
    err = sum(r[1] for r in results)
    prod = eye.copy()
    for T in Ts:                       # first loop applied first
        prod = T @ prod
    defect = float(np.max(np.abs(prod - eye))) if Ts else 0.0
    # (det T)' = -tr(M) det T, so the loop around c multiplies det T by
    # exp(-2 pi i res_c tr M) exactly.  Only the determinant is checked:
    # eigenvalues of a Jordan block lose half their digits.
    tr = conn.trace()
    det_defect = 0.0
    for c in conn.singular_points:
        want = cmath.exp(-2j * math.pi * residue(tr, c).to_complex())
        got = np.linalg.det(Ts[spec.points.index(c.to_complex())])
        det_defect = max(det_defect, float(abs(got - want) / abs(want)))
    report = MonodromyReport(base=spec.base, points=spec.points, matrices=Ts,
                             defect=defect, transport_error=err,
                             det_defect=det_defect)
    if with_verdict:
        report.irreducible = _verdict_from_generators(Ts, n, defect, trials)
    return report


def _joint_line_search(Ts, n):
    """Best candidate for a common eigenvector: minimize the smallest
    singular value of the stacked matrices T_k - lambda_k I over all
    eigenvalue choices."""
    eigs = [np.linalg.eigvals(T) for T in Ts]
    best = (math.inf, None)
    idx = [0] * len(Ts)

    def rec(k, chosen):
        nonlocal best
        if k == len(Ts):
            stacked = np.vstack([T - lam * np.eye(n) for T, lam in zip(Ts, chosen)])
            _, s, vh = np.linalg.svd(stacked)
            if s[-1] < best[0]:
                best = (float(s[-1]), vh[-1].conj())
            return
        for lam in eigs[k]:
            rec(k + 1, chosen + [lam])

    rec(0, [])
    return best


def _line_invariance_residual(Ts, v):
    v = v / np.linalg.norm(v)
    worst = 0.0
    for T in Ts:
        w = T @ v
        proj = (np.vdot(v, w)) * v
        worst = max(worst, float(np.linalg.norm(w - proj) / max(1e-300, np.linalg.norm(w))))
    return worst


def _verdict_from_generators(Ts, n, defect, trials,
                             seed=0) -> IrreducibilityVerdict:
    if n == 1:
        return IrreducibilityVerdict("irreducible", margin=math.inf)
    if not Ts:
        return IrreducibilityVerdict("reducible",
                                     witness=np.eye(n, 1, dtype=complex).ravel(),
                                     witness_kind="line", margin=math.inf)
    accept = max(1e-6, 100.0 * defect)
    if n <= 3:
        sigma_v, v = _joint_line_search(Ts, n)
        sigma_h, h = _joint_line_search([T.T for T in Ts], n)
        if v is not None and sigma_v <= sigma_h:
            sigma, vec, kind, mats = sigma_v, v, "line", Ts
        else:
            sigma, vec, kind, mats = sigma_h, h, "hyperplane", [T.T for T in Ts]
        if sigma < max(1e-7, 50.0 * defect):
            resid = _line_invariance_residual(mats, vec)
            if resid < accept:
                return IrreducibilityVerdict("reducible", witness=vec,
                                             witness_kind=kind, margin=resid)
            return IrreducibilityVerdict("inconclusive", margin=resid)
        if min(sigma_v, sigma_h) > 1e-3:
            return IrreducibilityVerdict("irreducible",
                                         margin=float(min(sigma_v, sigma_h)))
        return IrreducibilityVerdict("inconclusive",
                                     margin=float(min(sigma_v, sigma_h)))
    # higher rank: randomized orbit spanning
    rng = random.Random(seed)
    for _ in range(max(1, trials)):
        v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      for _ in range(n)])
        basis = [v / np.linalg.norm(v)]
        grew = True
        while grew and len(basis) < n:
            grew = False
            for T in Ts:
                for b in list(basis):
                    w = T @ b
                    for q in basis:
                        w = w - np.vdot(q, w) * q
                    norm = np.linalg.norm(w)
                    if norm > 1e-8:
                        basis.append(w / norm)
                        grew = True
                        if len(basis) == n:
                            break
                if len(basis) == n:
                    break
        if len(basis) < n:
            Q = np.stack(basis, axis=1)
            resid = max(
                float(np.linalg.norm(T @ Q - Q @ (Q.conj().T @ T @ Q)))
                for T in Ts)
            if resid < accept:
                return IrreducibilityVerdict("reducible", witness=Q,
                                             witness_kind="subspace",
                                             margin=resid)
            return IrreducibilityVerdict("inconclusive", margin=resid)
    return IrreducibilityVerdict("irreducible", margin=1.0)


def irreducibility_check(conn: Connection, tol: float = 1e-12,
                         trials: int = 20) -> IrreducibilityVerdict:
    """Search for a monodromy-invariant subspace; honest 'inconclusive'
    when the numerical margins are thin."""
    report = monodromy_generators(conn, tol=tol, trials=trials)
    return report.irreducible


# ---------------------------------------------------------------------------
# period jets
# ---------------------------------------------------------------------------

@dataclass
class PeriodJet:
    base: complex
    depth: int
    jet: np.ndarray            # shape (depth, rank); row i = i-th derivative row
    transport_error: float


def _dual_frame_at(conn: Connection, t0: complex, tol: float):
    """Flat dual frame at t0 that is the identity at the default base:
    U = T^{-T}, with T the flat frame transported from the base to t0
    along a straight segment."""
    base = default_base(conn)
    sings = [c.to_complex() for c in conn.singular_points]
    eye = np.eye(conn.rank, dtype=complex)
    T, err = _transport(_MatrixEval(conn), [Line(base, t0)], eye, tol, sings)
    return np.linalg.inv(T).T, err


def _pairings(U: np.ndarray, its, z0: complex) -> np.ndarray:
    """Row i pairs its[i], evaluated at z0, with each column of U."""
    return np.array([it.ceval(z0) for it in its], dtype=complex) @ U


def _as_complex(t0) -> complex:
    if isinstance(t0, GaussRat):
        return t0.to_complex()
    return complex(t0)


def period_jet(conn: Connection, section: Section, t0, depth: int,
               tol: float = 1e-12) -> PeriodJet:
    """Jet of the pairings of the flat dual frame U = T^{-T} with the
    covariant-derivative iterates of an exact section."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    conn.ensure_valid()
    z0 = _as_complex(t0)
    U, err = _dual_frame_at(conn, z0, tol)
    jet = _pairings(U, iterated(conn, section, depth - 1), z0)
    return PeriodJet(base=z0, depth=depth, jet=jet, transport_error=err)


def ode_residual(conn: Connection, section: Section, ode: ScalarODE, t0,
                 tol: float = 1e-12) -> float:
    """Normalized defect of the scalar equation on the numeric period jet."""
    alpha = conn.rank
    jet = period_jet(conn, section, t0, alpha + 1, tol)
    z0 = jet.base
    cs = ode.ceval_coeffs(z0)
    top = jet.jet[alpha].copy()
    for k, c in enumerate(cs):
        top -= c * jet.jet[k]
    scale = 1.0 + float(np.max(np.abs(jet.jet)))
    return float(np.max(np.abs(top))) / scale


def achieve_with_jet(conn: Connection, n: int, E: Divisor, t0,
                     dual_index: int = 0,
                     tol: float = 1e-12) -> tuple[Section, PeriodJet]:
    """Constructive high-multiplicity section: a kernel combination of the
    section-space basis whose period against flat dual section
    ``dual_index`` vanishes to order dim - 1 at t0 (for generic t0).

    Returns the section with its period jet to depth dim, paired with the
    whole flat dual frame as in ``period_jet``.  Covariant
    derivation is C-linear, so the jet is the kernel combination of the
    basis jets; the iterates of the rationalised section, whose
    coefficients have denominators up to 10^15, are never formed.
    """
    conn.ensure_valid()
    if not 0 <= dual_index < conn.rank:
        raise InvalidArgument(
            f"dual index {dual_index} is outside 0..{conn.rank - 1}")
    basis = section_space_basis(conn.splitting, E)
    d = len(basis)
    if d < 2:
        raise InvalidArgument(
            f"the section space has dimension {d}; achieve needs >= 2")
    z0 = _as_complex(t0)
    U, err = _dual_frame_at(conn, z0, tol)
    # J[i, :, j] pairs the i-th iterate of basis[j] with the dual frame.  All
    # exact iterates come first: a matrix product between them slowed the
    # exact arithmetic after it by 15% on 2-core Xeon runs of achieve.
    its = [iterated(conn, b, d - 1) for b in basis]
    J = np.stack([_pairings(U, it, z0) for it in its], axis=2)
    P = J[: d - 1, dual_index, :]             # (d-1) x d
    _, s, vh = np.linalg.svd(P)
    # full row rank means a one-dimensional kernel; anything less marks a
    # degenerate evaluation point
    if s[-1] < 1e-10 * max(s[0], 1.0):
        raise DegenerateJet("jet system rank-deficient beyond corank one")
    kernel = vh[-1].conj()
    kernel = kernel / kernel[int(np.argmax(np.abs(kernel)))]
    scale = float(np.max(np.abs(P))) or 1.0

    best = None
    for limit in (10 ** 9, 10 ** 15):
        coeffs = [GaussRat(Fraction(z.real).limit_denominator(limit),
                           Fraction(z.imag).limit_denominator(limit))
                  for z in kernel]
        if not any(coeffs):
            continue
        jet = J @ np.array([c.to_complex() for c in coeffs])
        low = float(np.max(np.abs(jet[: d - 1, dual_index])))
        if best is None or low < best[0]:
            best = (low, coeffs, jet)
        if low <= tol * scale * 10:
            break
    if best is None:
        raise DegenerateJet("kernel reconstruction produced the zero section")
    _, coeffs, jet = best
    section = Section([RatFun.const(0)] * conn.rank, conn.splitting)
    for c, b in zip(coeffs, basis):
        if c:
            section = section + b.scale(RatFun.const(c))
    return section, PeriodJet(base=z0, depth=d, jet=jet, transport_error=err)


def achieve_multiplicity(conn: Connection, n: int, E: Divisor, t0,
                         dual_index: int = 0, tol: float = 1e-12) -> Section:
    """The section of ``achieve_with_jet``, without its jet."""
    return achieve_with_jet(conn, n, E, t0, dual_index, tol)[0]
