"""Seeded inputs, job lists and output checks for the meroconn benchmark.

Every input is built from exact residue matrices, so each job carries a
truth that is computed here from the construction, never by the code being
timed: the residue traces (for the determinant invariant of monodromy
generators), the irreducibility verdict, the exact Wronskian at a rational
point, the certified generation-number bound and the section-space
dimension.

A workload is a fixed cycle of job slots; the seed chooses residues,
sections and sampling seeds within each slot.  Keeping the cycle fixed
makes every run spend its time on the same mix of work, so the run-to-run
spread comes from the inputs' values, not from how many slow jobs a run
happened to draw.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

# monodromy jobs run at this tolerance; the determinant invariant
# det T_c = exp(-2 pi i res_c tr M) must then hold to DET_TOL_FACTOR * tol
MONODROMY_TOL = "1e-8"
DET_TOL_FACTOR = 1e3
# achieve jobs run at the CLI default tolerance (1e-12); criterion 8 of the
# acceptance suite asks the low jet entries to stay below this share of the
# top entry
ACHIEVE_TOL = 1e-12
JET_LOW_RATIO = 1e-7

# ---------------------------------------------------------------------------
# exact Gaussian rationals, independent of meroconn.exactalg
# ---------------------------------------------------------------------------

class GQ:
    """Gaussian rational re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = F(re)
        self.im = F(im)

    @staticmethod
    def of(x) -> "GQ":
        return x if isinstance(x, GQ) else GQ(x)

    def __add__(self, o):
        o = GQ.of(o)
        return GQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-GQ.of(o))

    def __rsub__(self, o):
        return GQ.of(o) - self

    def __mul__(self, o):
        o = GQ.of(o)
        return GQ(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = GQ.of(o)
        n = o.re * o.re + o.im * o.im
        return self * GQ(o.re / n, -o.im / n)

    def __rtruediv__(self, o):
        return GQ.of(o) / self

    def __pow__(self, k: int):
        out = GQ(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, o):
        o = GQ.of(o)
        return self.re == o.re and self.im == o.im

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"


_EXACT_TEXT = re.compile(r"[0-9/+\-*^()it ]*")


def eval_exact(text: str, t: GQ) -> GQ:
    """Value at t of an exact expression as the CLI prints it, such as
    '((3/4+1/2i)*t^2 + -i)/(1 + t)'."""
    if not _EXACT_TEXT.fullmatch(text):
        raise ValueError(f"unexpected character in {text!r}")
    py = re.sub(r"(?<![\^\d])(\d+)", r"G(\1)", text)
    py = py.replace("^", "**")
    py = re.sub(r"(?<=\))i", "*I", py).replace("i", "I")
    return eval(py, {"__builtins__": {}}, {"G": GQ, "I": GQ(0, 1), "t": t})


# ---------------------------------------------------------------------------
# residue matrices
# ---------------------------------------------------------------------------

def _small(rng, den) -> F:
    return F(rng.randint(-2, 2), den)


def _matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), F(0))
             for j in range(n)] for i in range(n)]


def _neg_sum(mats):
    n = len(mats[0])
    return [[-sum((m[i][j] for m in mats), F(0)) for j in range(n)]
            for i in range(n)]


def _rational_exponent_residue(rng, den):
    """P diag(a, b) P^-1 with a != b small rationals and det P = 1."""
    while True:
        a, b = _small(rng, den), _small(rng, den)
        if a != b:
            break
    p, q = rng.randint(-1, 1), rng.randint(-1, 1)
    P = [[1 + p * q, p], [q, 1]]
    Pinv = [[1, -p], [-q, 1 + p * q]]
    return _matmul(_matmul(P, [[a, F(0)], [F(0), b]]), Pinv)


def _upper_residue(rng, den):
    return [[_small(rng, den), _small(rng, den)], [F(0), _small(rng, den)]]


def _is_rational_square(x: F) -> bool:
    if x < 0:
        return False
    return (math.isqrt(x.numerator) ** 2 == x.numerator
            and math.isqrt(x.denominator) ** 2 == x.denominator)


def _disc(k) -> F:
    tr = k[0][0] + k[1][1]
    det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
    return tr * tr - 4 * det


def _tame(ks) -> bool:
    """Every residue entry at most 1 in size and every local exponent with
    real part in (-1, 1), so that solutions grow at most like |t - c|^-1."""
    for k in ks:
        if any(abs(x) > 1 for row in k for x in row):
            return False
        if len(k) == 1:
            reach = abs(k[0][0])
        else:
            tr, d = k[0][0] + k[1][1], _disc(k)
            reach = (abs(tr) + math.sqrt(max(d, 0))) / 2
        if reach >= 1:
            return False
    return True


def irreducible_rank2(rng, poles, den):
    """Residues with rational exponents at every pole but the last, where
    the exponents are irrational.  An invariant line would carry a rank-1
    sub-connection whose exponents (one per pole) sum to an integer, which
    an irrational summand rules out: the system is irreducible."""
    while True:
        ks = [_rational_exponent_residue(rng, den) for _ in poles[:-1]]
        last = _neg_sum(ks)
        d = _disc(last)
        if (d and not _is_rational_square(d) and not _is_rational_square(-d)
                and _tame(ks + [last])):
            return dict(zip(poles, ks + [last]))


def triangular_rank2(rng, poles, den):
    """Upper-triangular residues: the line spanned by e_1 is invariant."""
    while True:
        ks = [_upper_residue(rng, den) for _ in poles[:-1]]
        ks.append(_neg_sum(ks))
        if _tame(ks):
            return dict(zip(poles, ks))


def generic_rank2(rng, poles, den):
    """Residues whose first two share no eigenvector: det[K0, K1] != 0."""
    while True:
        ks = [_rational_exponent_residue(rng, den) for _ in poles[:-1]]
        k0, k1 = ks[0], ks[1]
        comm = [[x - y for x, y in zip(r0, r1)]
                for r0, r1 in zip(_matmul(k0, k1), _matmul(k1, k0))]
        ks.append(_neg_sum(ks))
        if (comm[0][0] * comm[1][1] - comm[0][1] * comm[1][0] != 0
                and _tame(ks)):
            return dict(zip(poles, ks))


def rank1(rng, poles, den):
    """Nonzero residues summing to zero."""
    while True:
        rs = [_small(rng, den) for _ in poles[:-1]]
        rs.append(-sum(rs))
        ks = [[[r]] for r in rs]
        if all(rs) and _tame(ks):
            return dict(zip(poles, ks))


def direct_sum(a, b):
    """Block-diagonal residues K_c = diag(a_c, b_c): both blocks span
    invariant subspaces."""
    out = {}
    for c in a:
        ka, kb = a[c], b[c]
        za, zb = [F(0)] * len(kb), [F(0)] * len(ka)
        out[c] = [row + za for row in ka] + [zb + row for row in kb]
    return out


def _unimodular4(rng):
    """L U with L unit lower and U unit upper triangular, off-diagonal
    entries in {-1, 0, 1} (half of them 0), and its exact inverse
    U^-1 L^-1."""
    def unit_lower():
        return [[F(1) if i == j else F(rng.choice((-1, 0, 0, 1))) if j < i
                 else F(0) for j in range(4)] for i in range(4)]

    def inverse_unit_lower(m):
        inv = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(i):
                inv[i][j] = -sum((m[i][k] * inv[k][j] for k in range(j, i)),
                                 F(0))
        return inv

    def transpose(m):
        return [list(col) for col in zip(*m)]

    low, up_t = unit_lower(), unit_lower()
    return (_matmul(low, transpose(up_t)),
            _matmul(transpose(inverse_unit_lower(up_t)),
                    inverse_unit_lower(low)))


def _irrational_subset_sums(k) -> bool:
    """True when no sum of one or two eigenvalues of the 4x4 rational k is
    rational (nor, since the trace is rational, any sum of three).

    With L the common denominator of k's entries, the eigenvalues of the
    integer matrix L k are algebraic integers, and so are their sums; a
    rational algebraic integer is an integer.  So it suffices that every
    such sum of eigenvalues of L k lies well away from every integer.  The
    eigenvalues are required to be well separated, which makes their
    double-precision values accurate to far better than that margin."""
    den = math.lcm(*(x.denominator for row in k for x in row))
    y = np.linalg.eigvals(np.array([[float(x * den) for x in row]
                                    for row in k]))
    pairs = [y[i] + y[j] for i in range(4) for j in range(i + 1, 4)]
    if min(abs(y[i] - y[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-3:
        return False
    return all(abs(s - round(s.real)) > 1e-6 for s in [*y, *pairs])


def _tame4(ks) -> bool:
    return all(all(abs(x) <= 1 for row in k for x in row)
               and max(abs(np.linalg.eigvals(np.array(
                   [[float(x) for x in row] for row in k])).real)) < 0.99
               for k in ks)


def irreducible_rank4(rng, poles, den):
    """Rank-4 residues with distinct rational exponents at every pole but
    the last, where no sum of one, two or three exponents is rational.  A
    k-dimensional invariant subspace would carry a rank-k sub-connection
    whose exponents (k per pole) sum to an integer; the irrational sum at
    the last pole rules that out for k = 1, 2, 3: the system is
    irreducible."""
    while True:
        ks = []
        for _ in poles[:-1]:
            vals = [F(v, den) for v in rng.sample(range(-2, 3), 4)]
            p, p_inv = _unimodular4(rng)
            diag = [[vals[i] if i == j else F(0) for j in range(4)]
                    for i in range(4)]
            ks.append(_matmul(_matmul(p, diag), p_inv))
        last = _neg_sum(ks)
        if _tame4(ks + [last]) and _irrational_subset_sums(last):
            return dict(zip(poles, ks + [last]))


def connection_text(residues) -> str:
    """Connection file for M = sum_c K_c / (t - c), trivial splitting."""
    poles = sorted(residues)
    rank = len(residues[poles[0]])
    lines = [f"rank {rank}", "splitting " + " ".join(["0"] * rank)]
    lines += [f"point {c} order 1" for c in poles]
    lines.append("matrix")
    for i in range(rank):
        row = []
        for j in range(rank):
            terms = []
            for c in poles:
                v = residues[c][i][j]
                if v:
                    lin = "t" if c == 0 else f"(t{-c:+d})"
                    terms.append(f"({v})/{lin}")
            row.append("+".join(terms) or "0")
        lines.append(" ".join(row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def trace_residues(residues):
    return {c: sum((k[i][i] for i in range(len(k))), F(0))
            for c, k in residues.items()}


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One CLI invocation: `meroconn --format json <command> <file> <args>`."""

    kind: str
    command: str
    file: str
    text: str
    args: list
    truth: dict

    def argv(self, path: str) -> list:
        return ["--format", "json", self.command, path, *self.args]


def _gauss_poly(rng):
    """Degree-2 polynomial with Gaussian-integer coefficients, lowest
    first, and its text."""
    coeffs = [GQ(rng.randint(-3, 3), rng.randint(-3, 3)),
              GQ(rng.randint(-3, 3), rng.randint(-3, 3)),
              GQ(rng.randint(1, 3), rng.randint(-3, 3))]
    a, b, c = (f"({int(z.re)}{int(z.im):+d}i)" for z in coeffs)
    return coeffs, f"{a}+{b}*t+{c}*t^2"


def _section(rng, residues):
    """Gaussian-integer section of degree 2 whose Wronskian numerator
    vanishes at no pole: (coefficients, text) per component.

    The Wronskian is det[w, grad w] = W0(t) + sum_c q_c(w(t)) / (t - c)
    with q_c(v) = v_1 (K_c v)_2 - v_2 (K_c v)_1 (for rank 1 it is w
    itself), so its numerator takes a nonzero multiple of q_c(w(c)) at
    t = c.  A numerator factor with a root at a pole and roots elsewhere
    makes the program refuse the input with MixedFactor, so such sections
    are drawn again."""
    rank = len(next(iter(residues.values())))
    while True:
        polys = [_gauss_poly(rng) for _ in range(rank)]
        ok = True
        for c, k in residues.items():
            v = [a + b * c + d * c * c for (a, b, d), _ in polys]
            if rank == 1:
                ok = ok and v[0] != 0
            else:
                kv = [sum((GQ(k[i][j]) * v[j] for j in range(2)), GQ(0))
                      for i in range(2)]
                ok = ok and v[0] * kv[1] - v[1] * kv[0] != 0
        if ok:
            return polys


def _three_point(k0, k1):
    return {0: k0, 1: k1, 2: _neg_sum([k0, k1])}


# the shipped fixtures as residue matrices {c: K_c} (M = sum K_c / (t - c)),
# with the verdicts the README documents; a rank-1 connection is irreducible
# by definition
_K_TWO = [[F(0), F(1)], [F(1, 4), F(0)]]
FIXTURE_TRUTH = {
    "euler-half": ({0: [[F(-1, 2)]], 1: [[F(1, 2)]]}, "irreducible"),
    "triangle-nilpotent": (_three_point([[F(0), F(1)], [F(0), F(0)]],
                                        [[F(0), F(0)], [F(1, 4), F(0)]]),
                           "irreducible"),
    "triangle-diag": (_three_point([[F(1, 4), F(0)], [F(0), F(-1, 4)]],
                                   [[F(0), F(1)], [F(1, 16), F(0)]]),
                      "irreducible"),
    "two-point-reducible": ({0: [[-x for x in row] for row in _K_TWO],
                             1: _K_TWO}, "reducible"),
}


def monodromy_cycle(rng, c):
    """One shipped fixture (in turn), then the MONODROMY_SLOTS systems:
    irreducible and triangular rank-2 systems on 3 and 4 poles, a rank-3
    direct sum of an irreducible rank-2 and a rank-1 system on 3 shared
    poles, and two irreducible rank-4 systems on 3 poles.

    Reducible rank-4 systems are left out: on them the rank >= 4 verdict
    branch answers "irreducible" (a known defect), and a benchmark run
    must not contain failing jobs.  The rank-4 systems here are
    irreducible, so they time rank-4 transport and that branch with a
    verdict the construction can check.

    The slots marked fixed do not depend on the seed: slot k of cycle c is
    the same system in every run.  They are the slots in which the median
    and the 90th-percentile job fall; job cost varies by up to 2x with
    the residues, and a run has room for only a few jobs of each slot, so
    seeded draws there would make the run's median and tail depend on the
    seed more than on the program."""
    from meroconn.fixtures import fixture_file

    tol = ["--tol", MONODROMY_TOL]
    name = list(FIXTURE_TRUTH)[c % len(FIXTURE_TRUTH)]
    res, verdict = FIXTURE_TRUTH[name]
    jobs = [Job("fixture", "monodromy", f"c{c:02d}-{name}.conn",
                fixture_file(name), tol, {"residues": res, "verdict": verdict})]
    for k, (kind, poles, den, fixed) in enumerate(MONODROMY_SLOTS):
        draw = random.Random(f"monodromy-fixed:{c}:{k}") if fixed else rng
        if kind == "irreducible":
            res, verdict = irreducible_rank2(draw, poles, den), "irreducible"
        elif kind == "triangular":
            res, verdict = triangular_rank2(draw, poles, den), "reducible"
        elif kind == "direct-sum":
            res = direct_sum(irreducible_rank2(draw, poles, den),
                             rank1(draw, poles, den))
            verdict = "reducible"
        else:
            res, verdict = irreducible_rank4(draw, poles, den), "irreducible"
        kind = f"{kind}-{len(poles)}"
        jobs.append(Job(kind, "monodromy", f"c{c:02d}-m{k}-{kind}.conn",
                        connection_text(res), tol,
                        {"residues": res, "verdict": verdict}))
    return jobs


def wronskian_cycle(rng, c):
    """For each slot (n, poles, den): a rank-1 system with `wronskian`,
    `classify` and `sample-h --n min(n, 1)`, and an irreducible rank-2
    system with `wronskian` twice, `classify` and `sample-h --n n`.
    `wronskian` and `classify` get degree-2 Gaussian-integer sections."""
    jobs = []
    for n, layouts, den in WRONSKIAN_SLOTS:
        for rank, poles in zip((1, 2), layouts):
            if rank == 1:
                res = rank1(rng, poles, den)
            else:
                res = irreducible_rank2(rng, poles, den)
            text = connection_text(res)
            name = f"c{c:02d}-w{n}-rank{rank}.conn"
            cmds = ["wronskian", "classify"]
            if rank == 2:
                cmds.insert(0, "wronskian")
            for cmd in cmds:
                polys = _section(rng, res)
                section = ",".join(p for _, p in polys)
                jobs.append(Job(f"{cmd}-rank{rank}", cmd, name, text,
                                [f"--section={section}"],
                                {"residues": res,
                                 "section": [z for z, _ in polys]}))
            # rank 1: the sampled sections are polynomials of degree n,
            # and from degree 2 on one may vanish at a pole and at a
            # rational point elsewhere, which the program refuses
            # (MixedFactor); so rank 1 samples degree at most 1
            h_n = n if rank == 2 else min(n, 1)
            jobs.append(Job(f"sample-h-rank{rank}", "sample-h", name, text,
                            ["--n", str(h_n), "--samples", "10",
                             "--seed", str(rng.randint(0, 999))],
                            {"residues": res, "n": h_n}))
    return jobs


def achieve_cycle(rng, c):
    """The ACHIEVE_SLOTS systems: rank 1 with n = 2 and 3, and rank 2 with
    n = 1 whose residues at the first two poles share no eigenvector.

    The slots marked fixed do not depend on the seed: slot k of cycle c is
    the same system in every run.  They are the rank-2 slots, which take
    two thirds of a run's time, and the rank-1 slots in which the median
    job falls.  Within a slot, job cost varies by up to 2x with the
    residues (for rank 2, with the eigenvector basis alone), and a run has
    room for only a few jobs of each, so seeded draws there would make a
    run's throughput, median and tail depend on the seed more than on the
    program."""
    jobs = []
    for k, (rank, n, poles, den, fixed) in enumerate(ACHIEVE_SLOTS):
        draw = random.Random(f"achieve-fixed:{c}:{k}") if fixed else rng
        if rank == 1:
            res = rank1(draw, poles, den)
        else:
            res = generic_rank2(draw, poles, den)
        jobs.append(Job(f"rank{rank}-n{n}", "achieve", f"c{c:02d}-a{k}.conn",
                        connection_text(res), ["--n", str(n)],
                        {"residues": res, "dim": rank * (n + 1)}))
    return jobs


# Each slot fixes the pole layout and the residue denominator of one job
# class, and the seed draws the residue numerators (and sections and
# sampling seeds), except in slots marked fixed, whose systems are the same
# for every seed (see monodromy_cycle and achieve_cycle).  The slots'
# costs on the seed code are spread so that the median job falls inside
# the middle slots of the cost order and the 90th percentile inside the
# dearest class, which holds at least a fifth of the jobs, not on the
# border between two classes.
MONODROMY_SLOTS = [          # (kind, poles, den, fixed)
    ("irreducible", [-1, 1, 2], 5, False),
    ("triangular", [0, 1, 3], 3, False),
    ("irreducible", [-1, 0, 2, 3], 6, True),
    ("irreducible", [-1, 0, 2, 3], 6, True),
    ("triangular", [-1, 0, 1, 3], 4, True),
    ("direct-sum", [0, 1, 2], 4, False),
    ("rank4-irreducible", [0, 1, 2], 6, True),
    ("rank4-irreducible", [0, 1, 2], 6, True),
]
WRONSKIAN_SLOTS = [          # (n, (rank-1 poles, rank-2 poles), den)
    (0, ([-1, 0, 1], [0, 1, 2]), 4),
    (1, ([-1, 0, 2], [-1, 1, 3]), 3),
    (2, ([0, 1, 3], [-1, 0, 1]), 5),
    (3, ([-1, 1, 2], [0, 2, 3]), 6),
]
ACHIEVE_SLOTS = [            # (rank, n, poles, den, fixed)
    (1, 2, [-1, 0, 1], 4, False),
    (1, 2, [0, 1, 3], 6, False),
    (1, 3, [-1, 0, 1], 6, False),
    (1, 3, [0, 1, 2], 3, True),
    (1, 3, [0, 1, 2], 3, True),
    (1, 3, [0, 1, 2], 3, True),
    (1, 3, [-1, 1, 3], 5, False),
    (2, 1, [-1, 0, 1], 3, True),
    (2, 1, [-1, 0, 1], 3, True),
]

CYCLES = {
    "monodromy": monodromy_cycle,
    "wronskian": wronskian_cycle,
    "achieve": achieve_cycle,
}
# Cycles in a run's job list.  A run executes the whole list, once or
# more, so every run of a seed runs the same inputs in the same proportions
# however many passes fit; the list is sized to take about half of a
# 30-second run on the seed code, so that a pass fits even when the machine
# runs at half speed.
LIST_CYCLES = {"monodromy": 3, "wronskian": 3, "achieve": 2}


def cycles(workload: str, seed: int):
    """The run's job list, as LIST_CYCLES[workload] cycles of jobs; cycle c
    depends only on (workload, seed, c)."""
    make = CYCLES[workload]
    return [make(random.Random(f"{workload}:{seed}:{c}"), c)
            for c in range(LIST_CYCLES[workload])]


# ---------------------------------------------------------------------------
# checks: each returns (reason or None, per-job measures)
# ---------------------------------------------------------------------------

def _matrix_at(residues, t: GQ):
    poles = sorted(residues)
    n = len(residues[poles[0]])
    return [[sum((GQ(residues[c][i][j]) / (t - c) for c in poles), GQ(0))
             for j in range(n)] for i in range(n)]


def exact_wronskian(residues, section, t: GQ) -> GQ:
    """det[w, grad w] at t, with grad w = w' + M w, for a section given by
    the coefficients (lowest first) of its degree-2 components."""
    w = [a + b * t + c * t * t for a, b, c in section]
    if len(w) == 1:
        return w[0]
    m = _matrix_at(residues, t)
    dw = [b + 2 * c * t + sum((m[i][j] * w[j] for j in range(2)), GQ(0))
          for i, (_, b, c) in enumerate(section)]
    return w[0] * dw[1] - w[1] * dw[0]


def _probe_point(poles) -> GQ:
    return GQ(F(1, 2)) if F(1, 2) not in poles else GQ(F(5, 2))


def _complex_matrix(rows):
    return np.array([[complex(*e) for e in row] for row in rows])


def check(job: Job, report: dict):
    """Compare one JSON report with the job's construction truth."""
    res = report.get("results")
    if not isinstance(res, dict):
        return "no results in the report", {}
    truth = job.truth
    if job.command == "monodromy":
        traces = trace_residues(truth["residues"])
        points = [complex(*p) for p in res["points"]]
        if len(points) != len(traces):
            return f"{len(points)} generators for {len(traces)} poles", {}
        det_err = 0.0
        for p, g in zip(points, res["generators"]):
            c = min(traces, key=lambda x: abs(x - p))
            want = cmath.exp(-2j * math.pi * float(traces[c]))
            got = complex(np.linalg.det(_complex_matrix(g)))
            det_err = max(det_err, abs(got - want) / abs(want))
        measures = {"det_err": det_err,
                    "product_defect": float(res["product_defect"]),
                    "inconclusive": res["irreducible"] == "inconclusive"}
        if not det_err <= DET_TOL_FACTOR * float(MONODROMY_TOL):
            return f"det invariant off by {det_err:.3e}", measures
        if res["irreducible"] not in (truth["verdict"], "inconclusive"):
            return (f"verdict {res['irreducible']}, construction says "
                    f"{truth['verdict']}"), measures
        return None, measures
    if job.command == "wronskian":
        t = _probe_point(truth["residues"])
        want = exact_wronskian(truth["residues"], truth["section"], t)
        if eval_exact(res["wronskian"], t) != want:
            return f"Wronskian differs from det[w, grad w] at t = {t}", {}
        return None, {}
    if job.command == "classify":
        bad = [r["point"] for r in res["residue_identity"] if not r["equal"]]
        if bad or not res["residue_identity"]:
            return f"residue identity fails at {bad}", {}
        return None, {}
    if job.command == "sample-h":
        # h_bound with simple poles and c(V) = 0:
        # (a - 1) #poles + a (n + 1) - a (a - 1) / 2
        residues, n = truth["residues"], truth["n"]
        a = len(next(iter(residues.values())))
        bound = (a - 1) * len(residues) + a * (n + 1) - a * (a - 1) // 2
        if res["bound"] != bound:
            return f"bound {res['bound']}, expected {bound}", {}
        if res["violated"] or res["max_observed_generation"] > bound:
            return "generation bound violated on an irreducible input", {}
        return None, {}
    if job.command == "achieve":
        mags = res["jet_magnitudes"]
        d = truth["dim"]
        if len(mags) != d:
            return f"{len(mags)} jet entries, expected {d}", {}
        low = max(mags[: d - 1]) / mags[d - 1] if mags[d - 1] else math.inf
        measures = {"jet_low": low}
        if not low < JET_LOW_RATIO:
            return f"low jet entries at {low:.3e} of the top entry", measures
        return None, measures
    raise ValueError(f"no check for {job.command}")
