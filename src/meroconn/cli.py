"""Command-line interface: connection files, subcommands and
machine-readable run reports.

Exit codes: 0 success, 1 domain error, 2 usage error.  Reports are
deterministic for a fixed seed: exact values are serialized as strings
("3/4+1/2i"), numeric values as IEEE doubles, never mixed in one field.
Wall time goes to stderr so that JSON reports stay byte-identical under
re-runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import fixtures as fixtures_mod
from .bundle import INF, Divisor, Section, SplittingType, parse_divisor
from .connection import Connection, local_data
from .errors import (InvalidArgument, ParseError, ToolkitError,
                     ValidationFailed)
from .exactalg import _root_factors, parse_gaussrat, parse_ratfun
from .monodromy import achieve_with_jet, default_base, monodromy_generators
from .wronskian import (_apparent_report, _check_twist, _generation_cap,
                        _reduce, _residue_records, estimate_H, fuchs_check,
                        h_bound, iterated, ode_residual,
                        wronskian_determinant)

__all__ = ["parse_connection_file", "main"]


# ---------------------------------------------------------------------------
# connection file format
# ---------------------------------------------------------------------------

def parse_connection_file(text: str, validate: bool = True) -> Connection:
    """Parse the line-oriented connection format (see the README)."""
    rank = None
    splitting = None
    points = []
    matrix_rows = []
    in_matrix = False
    saw_end = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if saw_end:
            raise ParseError("content after 'end'", line=lineno)
        if in_matrix:
            if line == "end":
                in_matrix = False
                saw_end = True
                continue
            try:
                row = [parse_ratfun(chunk) for chunk in line.split()]
            except ParseError as exc:
                raise ParseError(f"bad matrix entry: {exc}", line=lineno)
            matrix_rows.append(row)
            continue
        fields = line.split()
        if {"rank": rank, "splitting": splitting}.get(fields[0]) is not None:
            raise ParseError(f"duplicate {fields[0]} line", line=lineno)
        if fields[0] == "rank":
            try:
                (rank,) = (int(f) for f in fields[1:])
            except ValueError:
                raise ParseError("rank needs one integer", line=lineno)
            if rank < 1:
                raise ParseError("rank must be >= 1", line=lineno)
        elif fields[0] == "splitting":
            try:
                splitting = SplittingType([int(f) for f in fields[1:]])
            except ValueError:
                raise ParseError("bad splitting line", line=lineno)
        elif fields[0] == "point":
            if len(fields) != 4 or fields[2] != "order":
                raise ParseError("expected: point <gauss-rat> order <posint>",
                                 line=lineno)
            try:
                pt = parse_gaussrat(fields[1])
            except ParseError as exc:
                raise ParseError(f"bad point: {exc}", line=lineno)
            try:
                order = int(fields[3])
            except ValueError:
                raise ParseError("order must be an integer", line=lineno)
            if order < 1:
                raise ParseError("order must be >= 1", line=lineno)
            if any(pt == q for q, _ in points):
                raise ParseError(f"duplicate point {pt}", line=lineno)
            points.append((pt, order))
        elif fields[0] == "matrix":
            if len(fields) > 1:
                raise ParseError("matrix takes no fields", line=lineno)
            in_matrix = True
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", line=lineno)
    if rank is None:
        raise ParseError("missing rank line")
    if splitting is None:
        raise ParseError("missing splitting line")
    if splitting.rank != rank:
        raise ParseError(f"splitting has {splitting.rank} twists, rank is {rank}")
    if in_matrix or not saw_end:
        raise ParseError("matrix block not terminated by 'end'")
    if not points:
        # holomorphic everywhere with the required behavior at infinity
        # forces trivial monodromy; not an interesting input for the tool
        raise ParseError("at least one 'point' line is required")
    if len(matrix_rows) != rank or any(len(r) != rank for r in matrix_rows):
        raise ParseError(f"matrix must be {rank}x{rank}")
    conn = Connection(splitting, Divisor(points), matrix_rows)
    if validate:
        conn.ensure_valid()
    return conn


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _cpx(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _mat(m) -> list:
    return [[_cpx(e) for e in row] for row in np.asarray(m)]


def _section_strings(section: Section) -> list:
    return [str(c) for c in section.comps]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _emit(report: dict, fmt: str, out=None):
    out = out or sys.stdout
    if fmt == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _emit_text(report, out)


def _emit_text(obj, out, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                out.write(f"{pad}{k}:\n")
                _emit_text(v, out, indent + 1)
            else:
                out.write(f"{pad}{k}: {v}\n")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _emit_text(v, out, indent)
            else:
                out.write(f"{pad}- {v}\n")
    else:
        out.write(f"{pad}{obj}\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _file_error(verb, path, exc) -> InvalidArgument:
    """A file that cannot be read or written, as a domain error naming it."""
    reason = getattr(exc, "strerror", None) or exc
    return InvalidArgument(f"cannot {verb} {path}: {reason}")


def _load(args, validate=True):
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error("read", args.file, exc) from exc
    conn = parse_connection_file(text, validate=validate)
    return conn, {"file": args.file, "sha256": _digest(text)}


def _section_from_arg(conn: Connection, arg: str | None) -> Section:
    if arg is None:
        # first standard section e_1
        comps = [parse_ratfun("1")] + [parse_ratfun("0")] * (conn.rank - 1)
    else:
        comps = [parse_ratfun(chunk) for chunk in arg.split(",")]
    return Section(comps, conn.splitting)


def _cmd_validate(args):
    conn, inputs = _load(args, validate=False)
    report = conn.validate()
    results = {
        "ok": report.ok,
        "violations": report.violations,
        "warnings": list(report.warnings),
        "rank": conn.rank,
        "splitting": list(conn.splitting.twists),
        "divisor": str(conn.divisor),
        "local_exponents": {},
    }
    if report.ok:
        for c, _ in conn.divisor.finite_entries():
            ld = local_data(conn, c)
            exponents = [_cpx(z) for z in ld.exponents]
            k = ld.effective_order
            if k >= 2:
                # C_1's eigenvalues are the exponents only at a simple pole
                exponents = None
                results["warnings"].append(
                    f"t = {c}: pole of effective order {k}, C_{k} "
                    + ("nilpotent: exponents need a Moser reduction"
                       if ld.leading_nilpotent else
                       "not nilpotent: irregular singular point"))
            results["local_exponents"][str(c)] = exponents
    return (0 if report.ok else 1), inputs, results


def _cmd_derive(args):
    conn, inputs = _load(args)
    section = _section_from_arg(conn, args.section)
    its = iterated(conn, section, args.order)
    return 0, inputs, {
        "order": args.order,
        "iterates": [_section_strings(s) for s in its],
    }


def _cmd_wronskian(args):
    conn, inputs = _load(args)
    section = _section_from_arg(conn, args.section)
    a = wronskian_determinant(conn, section)
    results = {"wronskian": str(a), "zero": a.is_zero()}
    if not a.is_zero():
        results["generation_bound"] = _generation_cap(conn, a)
    return 0, inputs, results


def _cmd_ode(args):
    conn, inputs = _load(args)
    section = _section_from_arg(conn, args.section)
    _, ode = _reduce(conn, section)
    verdicts = fuchs_check(ode, conn.singular_points)
    return 0, inputs, {
        "order": ode.order,
        "coefficients": [str(c) for c in ode.coeffs],
        "fuchsian": [
            {"point": str(b), "ok": ok,
             "violations": [{"k": k, "pole": p, "allowed": al}
                            for k, p, al in bad]}
            for b, ok, bad in verdicts
        ],
        "residual_at_probe": [str(x) for x in ode_residual(
            conn, section, ode, _default_probe(conn))],
    }


def _default_probe(conn) -> complex:
    return default_base(conn) + 0.25j


def _cmd_classify(args):
    conn, inputs = _load(args)
    section = _section_from_arg(conn, args.section)
    a, ode = _reduce(conn, section)
    factors = _root_factors(a.num)     # one decomposition serves both
    app = _apparent_report(conn, ode, factors)
    res = _residue_records(conn, a, ode, factors)
    return 0, inputs, {
        "apparent": [
            {
                "location": str(r.location) if r.exact else _cpx(r.location),
                "wronskian_valuation": r.val_wronskian,
                "log_coeff_residue": str(r.res_log_coeff) if r.exact
                else _cpx(r.res_log_coeff),
                "phi_bound": str(r.phi_bound) if r.exact else float(r.phi_bound),
                "exact": r.exact,
            }
            for r in app.records
        ],
        "residue_identity": [
            {"point": str(r.point), "lhs": str(r.lhs), "rhs": str(r.rhs),
             "in_divisor": r.in_divisor, "equal": r.equal}
            for r in res
        ],
    }


def _cmd_bound(args):
    conn, inputs = _load(args)
    return 0, inputs, {"n": args.n, "bound": h_bound(conn, args.n)}


def _divisor_from_args(conn, args) -> Divisor:
    if args.pole_divisor:
        return parse_divisor(args.pole_divisor)
    return Divisor([(INF, args.n)]) if args.n > 0 else Divisor([])


def _cmd_sample_h(args):
    conn, inputs = _load(args)
    E = _divisor_from_args(conn, args)
    report = estimate_H(conn, args.n, E, args.samples, args.seed)
    return 0, inputs, {
        "n": report.n,
        "twist_divisor": str(E),
        "bound": report.bound,
        "samples": report.samples,
        "max_observed_generation": report.max_observed_generation,
        "witness": report.witness,
        "violated": report.violated,
    }


def _base_from_arg(args, default):
    """--base as a complex number, or `default` when it is not given."""
    try:
        return complex(args.base) if args.base else default
    except ValueError:
        raise InvalidArgument(f"bad base point {args.base!r}")


def _cmd_monodromy(args):
    conn, inputs = _load(args)
    report = monodromy_generators(conn, base=_base_from_arg(args, None),
                                  tol=args.tol)
    return 0, inputs, {
        "base": _cpx(report.base),
        "points": [_cpx(p) for p in report.points],
        "generators": [_mat(T) for T in report.matrices],
        "traces": [_cpx(np.trace(T)) for T in report.matrices],
        "product_defect": report.defect,
        "det_defect": report.det_defect,
        "transport_error_estimate": report.transport_error,
        "irreducible": report.irreducible.kind,
        "irreducible_margin": report.irreducible.margin,
        "generator_diagnostics": [asdict(d) for d in report.diagnostics],
    }


def _cmd_achieve(args):
    conn, inputs = _load(args)
    E = _divisor_from_args(conn, args)
    _check_twist(args.n, E)
    t0 = _base_from_arg(args, _default_probe(conn))
    section, jet = achieve_with_jet(conn, E, t0, dual_index=args.order)
    return 0, inputs, {
        "n": args.n,
        "twist_divisor": str(E),
        "t0": _cpx(t0),
        "section": _section_strings(section),
        "jet_magnitudes": [float(abs(z)) for z in jet.jet[:, args.order]],
        "space_dimension": jet.depth,
    }


def _cmd_fixtures(args):
    if args.action == "list":
        return 0, {}, {"fixtures": fixtures_mod.fixture_names()}
    try:
        text = fixtures_mod.fixture_file(args.name)
    except KeyError as exc:
        raise ToolkitError(str(exc))
    path = args.path or f"{args.name}.conn"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _file_error("write", path, exc) from exc
    return 0, {}, {"written": path, "sha256": _digest(text)}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# (type, default) of every flag; each subcommand declares the ones it reads
_FLAGS = {"--n": (int, 0), "--samples": (int, 50), "--seed": (int, 0),
          "--tol": (float, 1e-12), "--base": (str, None),
          "--pole-divisor": (str, None), "--section": (str, None),
          "--order": (int, 0)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meroconn",
        description="meromorphic connections on the projective line: exact "
                    "Wronskian machinery and numerical monodromy",
    )
    parser.add_argument("--format", choices=["json", "text"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *flags):
        p = sub.add_parser(name)
        p.add_argument("file")
        for flag in flags:
            p.add_argument(flag, type=_FLAGS[flag][0], default=_FLAGS[flag][1])
        p.set_defaults(func=func)

    add("validate", _cmd_validate)
    add("derive", _cmd_derive, "--section", "--order")
    add("wronskian", _cmd_wronskian, "--section")
    add("ode", _cmd_ode, "--section")
    add("classify", _cmd_classify, "--section")
    add("bound", _cmd_bound, "--n")
    add("sample-h", _cmd_sample_h, "--n", "--samples", "--seed",
        "--pole-divisor")
    add("monodromy", _cmd_monodromy, "--tol", "--base")
    add("achieve", _cmd_achieve, "--n", "--base", "--pole-divisor", "--order")
    fx = sub.add_parser("fixtures")
    fx.set_defaults(func=_cmd_fixtures)
    fx.add_argument("action", choices=["list", "emit"])
    fx.add_argument("name", nargs="?")
    fx.add_argument("path", nargs="?")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        code, inputs, results = args.func(args)
        report = {
            "command": argv,
            "inputs": inputs,
            "seed": getattr(args, "seed", None),
            "tolerances": {"tol": getattr(args, "tol", None)},
            "results": results,
        }
    except ValidationFailed as exc:
        code, report = 1, {
            "command": argv,
            "error": "validation failed",
            "violations": exc.report.violations,
        }
    except ToolkitError as exc:
        code, report = 1, {"command": argv, "error": str(exc)}
    finally:
        elapsed = time.monotonic() - started
        print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
