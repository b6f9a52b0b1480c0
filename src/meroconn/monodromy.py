"""Numerical analytic continuation of flat sections along complex paths.

Flat sections solve v' = -M(t) v.  Flat dual sections solve u' = M(t)^T u,
which keeps U^T T constant, so the dual frame is taken as U = T^{-T} from
the flat frame T rather than transported.  Transport writes the system as
q Y' = -P Y (q the monic common denominator of M, P = q M) and sums Taylor
series by their recurrence (van der Hoeven, "Fast evaluation of holonomic
functions", 1999).  A path is cut into chords fixed by its geometry: none
longer than a third of the distance to the nearest singular point.  One
batched recurrence forms, for every chord of every path of a call at once,
the series of the frame that is the identity at the chord's start, with the
certified truncation bound of each partial sum.  A walk along each path's
chords, from the identity frame Y = I, multiplies Y by each chord's partial
sum at the first order K whose bound times |Y| (|Z_k Y| <= |Z_k| |Y| in the
infinity norm) is at most tol times the chord's share of its piece, or
1e-15 |Y|.  The batch starts at the order that the chords' own decay,
(|h| / rho)^k, and growth bound predict, and grows when no formed order
meets a target.  A loop is walked over its approach A and then its circle,
from A, to C A; the return leg mirrors the approach, so the generator is
A^-1 (C A) and the return leg is not walked.  A report's transport error
sums the walked bounds and charges the return leg the approach's sum;
roundoff and the growth of earlier errors are not in it, and det_defect
shows them.  Each generator also reports its walked steps, largest order,
least clearance and summed bound (TransportDiagnostics).
All numerics are double precision.  A loop's approach from the base, and
the segment from the default base to a jet's point, are straight except
where they would pass within a tenth of a loop radius of a singular point:
there they follow its loop circle, on the side they pass it (_route).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .bundle import Divisor, Section, section_space_basis
from .connection import Connection, covariant_jet
from .errors import (
    DegenerateJet,
    InvalidArgument,
    SingularityTooClose,
    StepUnderflow,
)
from .exactalg import (
    _Z_ONE,
    GaussRat,
    RatFun,
    _back_substitute,
    _common_denominator,
    _row_echelon,
    _split_point,
    _zmul,
)
from .wronskian import _evaluation_point, iterated

__all__ = [
    "Line", "Arc", "PathSpec", "MonodromyReport", "PeriodJet",
    "TransportDiagnostics", "IrreducibilityVerdict", "default_base",
    "loop_paths", "transport", "monodromy_generators",
    "irreducibility_check", "period_jet", "achieve_with_jet",
    "achieve_multiplicity",
]


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def z(self, s: float) -> complex:
        # at s = 1 the sum below misses end by about |start| eps
        return self.end if s == 1.0 else self.start + s * (self.end - self.start)

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


_DETOUR = 0.1   # loop radii: a segment this near a point follows its circle
# slack of a crossing at a segment's end (in loop radii) and of a tie in
# angle (rad)
_SLACK = 1e-9


def default_base(conn: Connection) -> complex:
    """Deterministic base point outside the disc that holds the
    singularities: 1 + s(1 + i/2), with s the largest modulus."""
    scale = max((abs(c.to_complex()) for c in conn.singular_points),
                default=0.0)
    return 1.0 + scale * (1.0 + 0.5j)


def _loops(sings: list, base: complex) -> tuple:
    """Radii and entries of the loops: half the distance from each point to
    the nearest other point or the base, entered from the base's side."""
    radii = [0.5 * min(abs(c - x) for x in sings + [base] if x != c)
             for c in sings]
    return radii, [c + r * ((base - c) / abs(base - c))
                   for c, r in zip(sings, radii)]


def _route(a: complex, b: complex, sings: list, radii: list) -> list:
    """Pieces from a to b: the straight segment, except that where it
    passes within _DETOUR radii of a point c it follows c's circle between
    its two crossings, along the minor arc on the side it passes c
    (counter-clockwise, c on the left, when it runs through c).  When b
    lies inside c's circle beyond c, the arc ends at the far crossing and
    the segment goes straight back in to b."""
    if a == b:
        return [Line(a, b)]
    arcs = []
    for c, r in zip(sings, radii):
        w, h = (c - a) / (b - a), r / abs(b - a)   # w: c with a = 0, b = 1
        half = math.sqrt(max(h * h - w.imag ** 2, 0.0))
        if abs(w.imag) < _DETOUR * h and w.real - half >= -_SLACK * h and (
                w.real + half <= 1 + _SLACK * h
                or w.real <= 1 and abs(w - 1) < h):
            sign = 1 if w.imag >= -_SLACK * abs(w) else -1
            th = cmath.phase((b - a) * complex(-half, -w.imag))
            arcs.append(Arc(c, r, th,
                            th + 2 * sign * math.atan2(half, sign * w.imag)))
    pieces, at = [], a
    for arc in sorted(arcs, key=lambda arc: ((arc.center - a) / (b - a)).real):
        pieces += [Line(at, arc.z(0.0)), arc]
        at = arc.z(1.0)
    return pieces + [Line(at, b)]


def loop_paths(conn: Connection, base: complex | None = None) -> PathSpec:
    sings = [c.to_complex() for c in conn.singular_points]
    base = default_base(conn) if base is None else _as_complex(base)
    if any(abs(base - c) < 1e-12 for c in sings):
        raise SingularityTooClose("base point coincides with a singular point")
    radii, entries = _loops(sings, base)
    # on a tie in angle the farther point comes first: its approach passes
    # the nearer point on the right, along a counter-clockwise detour.
    order = sorted(range(len(sings)), key=lambda k: (
        round(cmath.phase(sings[k] - base) / _SLACK), -abs(sings[k] - base)))
    loops = []
    for k in order:
        th = cmath.phase(entries[k] - sings[k])
        approach = _route(base, entries[k], sings, radii)
        back = [Line(p.end, p.start) if isinstance(p, Line)
                else Arc(p.center, p.radius, p.theta1, p.theta0)
                for p in reversed(approach)]
        loops.append(approach + [Arc(sings[k], radii[k], th, th + 2 * math.pi)]
                     + back)
    return PathSpec(base=base, points=[sings[k] for k in order], loops=loops)


# ---------------------------------------------------------------------------
# Taylor-series transport
# ---------------------------------------------------------------------------

_MIN_CLEARANCE = 1e-12
_MAX_ORDER = 200         # a step that needs more terms raises StepUnderflow
_ROUNDOFF = 1e-15        # floor of a step's tail target, relative to |Y|


@dataclass
class TransportDiagnostics:
    """Steps walked, largest order, least clearance and summed tail
    bounds; a loop's sum charges its unwalked return leg the approach's."""

    steps: int = 0
    max_order: int = 0
    min_clearance: float = math.inf
    tail_bound: float = 0.0


class _TaylorStepper:
    """q Y' = -P Y, with q = prod (t - c)^(m_c) the monic common denominator
    of M, m_c the validated pole orders, and P = q M, as complex coefficient
    arrays.  The denominator of entry M_ij is prod (t - c)^(k_c), k_c its
    kept pole order at c, so P_ij = num_ij prod (t - c)^(m_c - k_c).  With
    c = g/d and num_ij = z/m over Z[i], that is z prod (d t - g)^(m_c - k_c)
    over m prod d^(m_c - k_c): an integer product, and one correctly
    rounded division per coefficient."""

    def __init__(self, conn: Connection):
        self.rank = conn.rank
        report = conn.validate()
        self.roots = [(c.to_complex(), k)
                      for c, k in report.pole_orders.items() if k]
        self.sings = [c.to_complex() for c in conn.singular_points]
        orders = list(report.pole_orders.values())  # in the divisor's order
        # (d, [(d t - g)^e for e = 0 .. m_c]) at each divisor point c = g/d
        factors = []
        for c, k in zip(conn.singular_points, orders):
            (gr, gi), d = _split_point(c)
            powers = [_Z_ONE]
            for _ in range(k):
                powers.append(_zmul(powers[-1], ((-gr, -gi), (d, 0))))
            factors.append((d, powers))

        def column(z, m, gaps):     # z/m prod (t - c)^gap, as complex
            for (d, powers), e in zip(factors, gaps):
                if e:
                    z, m = _zmul(z, powers[e]), m * d ** e
            return [complex(re / m, im / m) for re, im in z]

        polys = [column(*_common_denominator(e.num.coeffs),
                        [m - k for m, k in zip(orders, ks)])
                 for row, krow in zip(conn.matrix, report.entry_orders)
                 for e, ks in zip(row, krow)]
        polys.append(column(_Z_ONE, 1, orders))
        deg = max(len(p) for p in polys) - 1
        self.coeffs = np.array([[p[k] if k < len(p) else 0j for p in polys]
                                for k in range(deg + 1)])
        j = np.arange(deg + 1)
        self.binom = np.array([[math.comb(i, r) for i in j] for r in j])
        self.lag, self.powers = np.maximum(j - j[:, None], 0), j[:, None]


class _Series:
    """Taylor coefficients Z_0 ... Z_order of the frames Y(z + h s) with
    Y(z) = I, for a batch of chords from z to z + h at once, and the tail
    bound of each partial sum Z_0 + ... + Z_K.  The coefficients follow
    q_0 (k+1) Z_{k+1} = -sum_j P_j Z_{k-j} - sum_{j>=1} q_j (k+1-j) Z_{k+1-j},
    with P_j, q_j those of h P(z + h s) and q(z + h s)."""

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, rhs: _TaylorStepper, z: np.ndarray, h: np.ndarray):
        S, n, L = len(z), rhs.rank, len(rhs.lag)
        zs, hs = z[:, None, None], h[:, None, None]
        C = (rhs.binom * zs ** rhs.lag * hs ** rhs.powers) @ rhs.coeffs
        P, q = C[..., :-1].reshape(S, L, n, n) * hs[..., None], C[..., -1]
        pn, qa = np.abs(P).sum(axis=3).max(axis=2), np.abs(q)
        # On a chord |q| >= qmin and |h M| <= A = sum_j |P_j| / qmin.  The
        # residual R = q Y' + P Y of Z_0 + ... + Z_K starts at s^K, so by
        # Gronwall its error is at most e^A / qmin * sum_k |R_k| / (k + 1),
        # and sum_k |R_k| <= sum_i |Z_i| (sum_{j>=K-i} |P_j|
        #                                 + i sum_{j>K-i} |q_j|).
        # Past A = 709 the factor is inf, and no order meets a target.
        lq = sum(k * np.log(np.abs(z - c) - np.abs(h)) for c, k in rhs.roots)
        psum = pn.sum(axis=1)
        self.pre = np.exp(psum * np.exp(-lq) - lq)
        self.h, self.top = h, self.pre * psum
        Ps = np.cumsum(pn[:, ::-1], axis=1)[:, ::-1]
        Qs = np.cumsum(qa[:, ::-1], axis=1)[:, ::-1] - qa
        self.PQ = np.stack([Ps, Qs], axis=1)[:, :, ::-1, None]
        # With Q_m = q_{m+1}, the right-hand side is
        # -sum_m (P_m - m Q_m + k Q_m) Z_{k-m}.  G @ [Z_{k+1-L}; ...; Z_k]
        # stacks the two sums, without and with k, each divided by q_0.
        Q = np.zeros_like(q)
        Q[:, :-1] = q[:, 1:]
        eye = np.eye(n)
        G = np.stack([P - (np.arange(L) * Q)[..., None, None] * eye,
                      Q[..., None, None] * eye], axis=1)
        G /= -q[:, 0, None, None, None, None]
        self.G = G[:, :, ::-1].transpose(0, 1, 3, 2, 4).reshape(S, 2 * n, -1)
        # X[:, L - 1 + k] = Z_k, after L - 1 zero coefficients
        self.X = np.zeros((S, L, n, n), dtype=complex)
        self.X[:, L - 1] = eye
        self.L, self.order = L, 0

    @np.errstate(divide="ignore", invalid="ignore")
    def first_order(self, targets: np.ndarray, rho: np.ndarray) -> int:
        """An order that meets every chord's target, or nearly: |Z_k|
        falls about like (|h| / rho)^k, so the bound of order K is about
        pre sum_j |P_j| (|h| / rho)^K.  Four orders more cover the growth
        of |Y| and the powers of k that the estimate leaves out."""
        need = np.log(self.top / targets) / np.log(rho / np.abs(self.h))
        return int(min(np.fmax.reduce(need, initial=0.0) + 4, _MAX_ORDER))

    @np.errstate(over="ignore", invalid="ignore")
    def extend(self, order: int):
        """Form the coefficients up to Z_order, and the bounds of the
        partial sums up to that order."""
        (S, _, n, _), L, done = self.X.shape, self.L, self.order
        X = np.zeros((S, L + order, n, n), dtype=complex)
        X[:, :L + done] = self.X
        rows, flat = X.reshape(S, -1, n), X.reshape(S, L + order, 1, n * n)
        for k in range(done, order):
            # Z_{k+1} = (first sum + k second sum) / (k + 1)
            R = self.G @ rows[:, k * n:(k + L) * n]
            np.matmul([[1 / (k + 1), k / (k + 1)]], R.reshape(S, 2, -1),
                      out=flat[:, k + L])
        self.X, self.order = X, order
        self.Z = X[:, L - 1:]
        # r[K] = sum_{j<L} |Z_{K-j}| Ps[j] + (K-j) |Z_{K-j}| Qs[j]
        ks = np.arange(order + 1)
        zn = np.zeros((S, 2, L - 1 + order + 1))
        zn[:, 0, L - 1:] = np.abs(self.Z).sum(axis=3).max(axis=2)
        zn[:, 1, L - 1:] = ks * zn[:, 0, L - 1:]
        r = (zn[:, :, ks[:, None] + np.arange(L)] @ self.PQ).sum(axis=1)
        self.bounds = self.pre[:, None] * r[..., 0] / (ks + 1)


def _check_tol(tol: float):
    """Refuse a non-positive or non-finite integration tolerance."""
    if not 0 < tol < math.inf:
        raise InvalidArgument(f"tol must be positive and finite, got {tol}")


def _chords(sings: list, pieces) -> list:
    """(z, h, ds, rho) of each step along the pieces: chords from z to
    z + h, ds in piece parameter, no longer than a third of rho, the
    distance from z to the nearest singular point.  A chord too short to
    advance s raises StepUnderflow."""
    chords = []
    for piece in pieces:
        speed, s = abs(piece.dz(0.0)), 0.0
        while s < 1.0:
            z = piece.z(s)
            rho = min((abs(z - c) for c in sings), default=math.inf)
            if rho < _MIN_CLEARANCE:
                raise SingularityTooClose(
                    f"path point {z} is within {rho:.2e} of a singular point")
            ds = min(1.0 - s, rho / (3 * speed)) if speed > 0 else 1.0 - s
            s, at = (1.0 if ds >= 1.0 - s else s + ds), s
            if s == at:
                raise StepUnderflow(
                    f"a chord of {ds:.2e} does not advance s = {s} on {piece}")
            chords.append((z, piece.z(s) - z, ds, rho))
    return chords


@np.errstate(over="ignore", invalid="ignore")
def _transport(rhs: _TaylorStepper, paths, tol: float) -> list:
    """[(ends, TransportDiagnostics)] for each path, a list of pieces walked
    from the identity frame: ends holds (frame, summed bound) at the path's
    start and at the end of each of its pieces.  One batched recurrence
    gives the series of every chord of every path; the walk multiplies Y
    by the partial sum of each chord's first order K whose bound, times
    |Y|, is at most tol times the chord's share of its piece (times |Y|
    when |Y| < 1), or the roundoff floor.  When no formed order of a chord
    meets its target, the batch grows by half again, at least 4 terms, up
    to _MAX_ORDER."""
    _check_tol(tol)
    chords = [[_chords(rhs.sings, [piece]) for piece in path]
              for path in paths]
    flat = [c for path in chords for piece in path for c in piece]
    if flat:
        z, h, ds, rho = (np.array(c) for c in zip(*flat))
        series = _Series(rhs, z, h)
        series.extend(series.first_order(np.maximum(tol * ds, _ROUNDOFF),
                                         rho))
    top, out, i = _MAX_ORDER, [], 0
    for path in chords:
        y, diag = np.eye(rhs.rank, dtype=complex), TransportDiagnostics()
        ends = [(y, 0.0)]
        for piece in path:
            for _ in piece:
                ynorm = float(np.abs(y).sum(axis=1).max())
                target = max(tol * ds[i] * min(1.0, ynorm), _ROUNDOFF * ynorm)
                while not (series.bounds[i] * ynorm <= target).any():
                    if series.order == top:
                        raise StepUnderflow(
                            f"no order up to {top} meets the tail target")
                    series.extend(min(top, series.order
                                      + max(4, series.order // 2)))
                bounds = series.bounds[i] * ynorm
                K = int(np.argmax(bounds <= target))
                y = series.Z[i, :K + 1].sum(axis=0) @ y
                diag.steps += 1
                diag.max_order = max(diag.max_order, K)
                diag.min_clearance = min(diag.min_clearance, rho[i])
                diag.tail_bound += float(bounds[K])
                i += 1
            ends.append((y, diag.tail_bound))
        out.append((ends, diag))
    return out


def transport(conn: Connection, path, v0, tol: float = 1e-12) -> np.ndarray:
    """Continue the flat-section system v' = -M v along a path (a piece or
    a list of pieces) from v0, a vector or a matrix of rank rows; returns
    the endpoint value, the flat frame transported from the identity
    times v0."""
    conn.ensure_valid()
    v0 = np.asarray(v0, dtype=complex)
    if v0.ndim not in (1, 2) or len(v0) != conn.rank:
        raise InvalidArgument(
            f"transport starts from rank {conn.rank} rows, a vector or a "
            f"matrix; v0 has shape {v0.shape}")
    pieces = [path] if isinstance(path, (Line, Arc)) else list(path)
    (ends, _), = _transport(_TaylorStepper(conn), [pieces], tol)
    return ends[-1][0] @ v0


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
    transport_error: float          # sum of the certified tail bounds
    det_defect: float               # max relative error of det T_c
    irreducible: IrreducibilityVerdict | None = None
    diagnostics: list = field(default_factory=list)  # per generator

    def generator(self, c) -> np.ndarray:
        z = _as_complex(c)
        for p, T in zip(self.points, self.matrices):
            if abs(p - z) < 1e-9:
                return T
        raise KeyError(f"no generator at {c}")


def monodromy_generators(conn: Connection, base=None,
                         tol: float = 1e-12) -> MonodromyReport:
    """Transport the identity frame around each singular point.  Each
    loop's approach A and circle C are walked in one batch, the circle
    from A; the return leg mirrors the approach, so the generator is
    A^-1 C A, and the return leg is charged the approach's summed bound."""
    conn.ensure_valid()
    spec = loop_paths(conn, base)
    n = conn.rank
    Ts, diags = [], []
    # a loop is its approach, its circle and the approach reversed
    legs = [loop[:len(loop) // 2 + 1] for loop in spec.loops]
    for ends, diag in _transport(_TaylorStepper(conn), legs, tol):
        (A, approach), (CA, _) = ends[-2], ends[-1]
        Ts.append(np.linalg.solve(A, CA))
        diag.tail_bound += approach
        diags.append(diag)
    eye = np.eye(n, dtype=complex)
    prod = eye
    for T in Ts:                       # first loop applied first
        prod = T @ prod
    defect = float(np.max(np.abs(prod - eye))) if Ts else 0.0
    # (det T)' = -tr(M) det T, so the loop around c multiplies det T by
    # exp(-2 pi i res_c tr M) exactly.  Only the determinant is checked:
    # eigenvalues of a Jordan block lose half their digits.
    det_defect = 0.0
    for c, res in conn.validate().trace_residues.items():
        want = cmath.exp(-2j * math.pi * res.to_complex())
        got = np.linalg.det(Ts[spec.points.index(c.to_complex())])
        det_defect = max(det_defect, float(abs(got - want) / abs(want)))
    return MonodromyReport(
        base=spec.base, points=spec.points, matrices=Ts, defect=defect,
        det_defect=det_defect,
        transport_error=sum(d.tail_bound for d in diags),
        irreducible=_verdict_from_generators(Ts, n, defect),
        diagnostics=diags)


# seed of the verdict's random draws: the weights of the two algebra
# elements, then the vector whose orbit is spanned
_VERDICT_SEED = 0


def _line_invariance_residual(Ts, v):
    v = v / np.linalg.norm(v)
    worst = 0.0
    for T in Ts:
        w = T @ v
        proj = (np.vdot(v, w)) * v
        worst = max(worst, float(np.linalg.norm(w - proj) / max(1e-300, np.linalg.norm(w))))
    return worst


def _eigen_line(Ts, rng):
    """(residual, vector) of the eigenvector of one seeded combination
    A = sum_k w_k T_k that the T_k keep best: a line that every T_k keeps
    is an eigenvector of every such A."""
    A = sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * T for T in Ts)
    return min(((_line_invariance_residual(Ts, v), v)
                for v in np.linalg.eig(A)[1].T), key=lambda rv: rv[0])


def _orbit(Ts, v):
    """Orthonormal basis of the span of the words in the T_k applied to v:
    each round spans Q and every T_k Q, until the dimension stops growing."""
    Q = (v / np.linalg.norm(v))[:, None]
    while Q.shape[1] < len(v):
        U, s, _ = np.linalg.svd(np.hstack([Q] + [T @ Q for T in Ts]),
                                full_matrices=False)
        r = int(np.sum(s > 1e-8 * s[0]))
        if r <= Q.shape[1]:
            break
        Q = U[:, :r]
    return Q


def _verdict_from_generators(Ts, n, defect) -> IrreducibilityVerdict:
    """Search for an invariant line of the T_k and of their transposes (an
    invariant hyperplane), then span the orbit of one seeded vector: a
    module with no cyclic vector keeps every orbit proper.  The margin, in
    [0, 1], is the relative residual of the proper orbit, or else of the
    best line.  Invariant subspaces of dimension 2 .. n-2 of a cyclic
    module, such as a direct sum of two irreducible rank-2 systems, are
    not seen."""
    if n == 1:
        return IrreducibilityVerdict("irreducible", margin=1.0)
    if not Ts:
        return IrreducibilityVerdict("reducible",
                                     witness=np.eye(n, 1, dtype=complex).ravel(),
                                     witness_kind="line", margin=0.0)
    accept = max(1e-6, 100.0 * defect)
    rng = random.Random(_VERDICT_SEED)
    (resid, vec), kind = min(
        (_eigen_line(Ts, rng), "line"),
        (_eigen_line([T.T for T in Ts], rng), "hyperplane"),
        key=lambda found: found[0][0])
    if resid >= accept:
        Q = _orbit(Ts, np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                 for _ in range(n)]))
        if Q.shape[1] < n:
            # relative, as a line's: in [0, 1]
            resid, vec, kind = max(
                float(np.linalg.norm(W - Q @ (Q.conj().T @ W))
                      / max(1e-300, np.linalg.norm(W)))
                for W in (T @ Q for T in Ts)), Q, "subspace"
    if resid < accept:
        return IrreducibilityVerdict("reducible", witness=vec,
                                     witness_kind=kind, margin=resid)
    return IrreducibilityVerdict(
        "irreducible" if resid > 1e-3 else "inconclusive", margin=resid)


def irreducibility_check(conn: Connection,
                         tol: float = 1e-12) -> IrreducibilityVerdict:
    """Search for a monodromy-invariant subspace; honest 'inconclusive'
    when the numerical margins are thin."""
    return monodromy_generators(conn, tol=tol).irreducible


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
    along the route that detours on the loop circles."""
    rhs, base = _TaylorStepper(conn), default_base(conn)
    radii = _loops(rhs.sings, base)[0]
    (ends, diag), = _transport(rhs, [_route(base, t0, rhs.sings, radii)], tol)
    return np.linalg.inv(ends[-1][0]).T, diag.tail_bound


def _as_complex(t0) -> complex:
    z = t0.to_complex() if isinstance(t0, GaussRat) else complex(t0)
    if not cmath.isfinite(z):
        raise InvalidArgument(f"point {t0} is not finite")
    return z


def period_jet(conn: Connection, section: Section, t0, depth: int,
               tol: float = 1e-12) -> PeriodJet:
    """Jet of the pairings of the flat dual frame U = T^{-T} with the
    covariant-derivative iterates of an exact section: row k pairs
    grad^k w (t0), read exactly from the section's Taylor jet there
    (covariant_jet), with each column of U."""
    if depth < 1:
        raise InvalidArgument("depth must be >= 1")
    conn.ensure_valid()
    z0 = _as_complex(t0)
    b = _evaluation_point(conn, [section], t0)
    U, err = _dual_frame_at(conn, z0, tol)
    jet = np.array([[x.to_complex() for x in row]
                    for row in covariant_jet(conn, section, b, depth)]) @ U
    return PeriodJet(base=z0, depth=depth, jet=jet, transport_error=err)


def achieve_with_jet(conn: Connection, E: Divisor, t0,
                     dual_index: int = 0) -> tuple[Section, PeriodJet]:
    """Constructive high-multiplicity section: the combination of the
    section-space basis whose period against the flat dual section equal
    to e_dual_index at t0 vanishes to order dim - 1 there.

    The period's k-th derivative at t0 is component dual_index of
    grad^k w(t0), so the conditions are linear over Q(i).  They are solved
    exactly at t0 (each part of a float read as the decimal Python
    prints), the free coefficient set to 1.  The first dim - 1 iterates
    then lie in a hyperplane at t0, so the index there is >= dim.  Row k
    of the jet is grad^k w(t0); column dual_index is 0 in rows < dim - 1.
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
    b = _evaluation_point(conn, basis, t0)
    # vals[j][k] = grad^k basis[j] at t0; covariant derivation is C-linear,
    # so the section's iterates are the same combination of these
    vals = [[it.eval(b) for it in iterated(conn, s, d - 1)] for s in basis]
    M = [[vals[j][k][dual_index] for j in range(d)] for k in range(d - 1)]
    pivots, _ = _row_echelon(M, d)
    if len(pivots) < d - 1:
        raise DegenerateJet("jet system rank-deficient beyond corank one")
    free = next(j for j in range(d) if j not in pivots)
    x = _back_substitute([[row[p] for p in pivots] + [-row[free]]
                          for row in M], d - 1)
    coeffs = [GaussRat(1)] * d            # the free coefficient stays 1
    for p, c in zip(pivots, x):
        coeffs[p] = c
    section = Section([RatFun.const(0)] * conn.rank, conn.splitting)
    for c, s in zip(coeffs, basis):
        if c:
            section = section + s.scale(RatFun.const(c))
    jet = [[sum((coeffs[j] * vals[j][k][i] for j in range(d)), GaussRat(0))
            .to_complex() for i in range(conn.rank)] for k in range(d)]
    return section, PeriodJet(base=z0, depth=d, jet=np.array(jet),
                              transport_error=0.0)


def achieve_multiplicity(conn: Connection, E: Divisor, t0,
                         dual_index: int = 0) -> Section:
    """The section of ``achieve_with_jet``, without its jet."""
    return achieve_with_jet(conn, E, t0, dual_index)[0]
