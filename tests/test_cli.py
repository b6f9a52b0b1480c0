"""Connection file format, subcommands, exit codes, report determinism."""

import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from meroconn import (Section, fixture, fixture_file, fixture_names, iterated,
                      parse_ratfun)
from meroconn.cli import main, parse_connection_file
from meroconn import monodromy as monodromy_mod
from meroconn.monodromy import period_jet
from meroconn.errors import ParseError, ValidationFailed
from helpers import GAUGE_TWIN_CONN, IRREGULAR_CONN, run_json


def run_cli(args, cwd=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "meroconn", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)


class TestParseConnectionFile:
    def test_fixture_round_trip(self):
        for name in fixture_names():
            conn = parse_connection_file(fixture_file(name))
            assert conn.validate().ok

    @pytest.mark.parametrize("get", [fixture, fixture_file])
    def test_unknown_fixture_name(self, get):
        with pytest.raises(KeyError, match="unknown fixture 'nope'; known: "
                           "euler-half, triangle-diag, triangle-nilpotent, "
                           "two-point-reducible"):
            get("nope")

    def test_euler_shape(self):
        conn = parse_connection_file(fixture_file("euler-half"))
        assert conn.rank == 1
        assert [str(c) for c in conn.singular_points] == ["0", "1"]

    def test_order_zero_rejected(self):
        text = "rank 1\nsplitting 0\npoint 0 order 0\nmatrix\n0\nend\n"
        with pytest.raises(ParseError):
            parse_connection_file(text)

    def test_duplicate_point_rejected(self):
        text = ("rank 1\nsplitting 0\npoint 0 order 1\npoint 0 order 1\n"
                "matrix\n0\nend\n")
        with pytest.raises(ParseError):
            parse_connection_file(text)

    def test_rank_mismatch_rejected(self):
        text = "rank 2\nsplitting 0\npoint 0 order 1\nmatrix\n0 0\n0 0\nend\n"
        with pytest.raises(ParseError):
            parse_connection_file(text)

    def test_constant_entry_fails_validation(self):
        text = ("rank 2\nsplitting 0 0\npoint 0 order 1\nmatrix\n"
                "0 1\n0 0\nend\n")
        with pytest.raises(ValidationFailed) as exc:
            parse_connection_file(text)
        assert any("infinity" in v for v in exc.value.report.violations)

    def test_empty_divisor_rejected(self):
        text = "rank 1\nsplitting 0\nmatrix\n0\nend\n"
        with pytest.raises(ParseError):
            parse_connection_file(text)

    @pytest.mark.parametrize("text, line, message", [
        ("rank 1\nrank 1\nsplitting 0\npoint 0 order 1\nmatrix\n0\nend\n",
         2, "duplicate rank line"),
        ("rank 1\nsplitting 0\nsplitting 5\npoint 0 order 1\nmatrix\n0\nend\n",
         3, "duplicate splitting line"),
        ("rank x\nsplitting 0\npoint 0 order 1\nmatrix\n0\nend\n",
         1, "rank needs one integer"),
        ("rank 1 7\nsplitting 0\npoint 0 order 1\nmatrix\n0\nend\n",
         1, "rank needs one integer"),
        ("rank\nsplitting 0\npoint 0 order 1\nmatrix\n0\nend\n",
         1, "rank needs one integer"),
        ("rank 1\nsplitting 0\npoint 0 order 1\nmatrix extra\n0\nend\n",
         4, "matrix takes no fields"),
        ("rank 0\nsplitting 0\npoint 0 order 1\nmatrix\n0\nend\n",
         1, "rank must be >= 1"),
        ("rank 1\nsplitting a\npoint 0 order 1\nmatrix\n0\nend\n",
         2, "bad splitting line"),
        ("rank 1\nsplitting 0\npoint 0 ord 1\nmatrix\n0\nend\n",
         3, "expected: point"),
        ("rank 1\nsplitting 0\npoint q order 1\nmatrix\n0\nend\n",
         3, "bad point"),
        ("rank 1\nsplitting 0\npoint 0 order one\nmatrix\n0\nend\n",
         3, "order must be an integer"),
        ("rank 1\nsplitting 0\npoint 0 order 1\nmatrix\n0\nend\nrank 1\n",
         7, "content after 'end'"),
        ("rank 1\nsplitting 0\npoint 0 order 1\nmatrix\n0\n",
         None, "not terminated"),
        ("splitting 0\npoint 0 order 1\nmatrix\n0\nend\n",
         None, "missing rank line"),
        ("rank 1\npoint 0 order 1\nmatrix\n0\nend\n",
         None, "missing splitting line"),
        ("rank 1\nsplitting 0\npoint 0 order 1\nmatrix\n1/(t\nend\n",
         5, "bad matrix entry"),
        ("rank 1\nsplitting 0\npoint 0 order 1\nmatrix\n0 0\nend\n",
         None, "matrix must be 1x1"),
    ])
    def test_malformed_text(self, text, line, message):
        with pytest.raises(ParseError, match=message) as exc:
            parse_connection_file(text)
        assert exc.value.line == line

    def test_parse_error_carries_line(self):
        text = "rank 1\nsplitting 0\nbogus directive\nmatrix\n0\nend\n"
        with pytest.raises(ParseError) as exc:
            parse_connection_file(text)
        assert exc.value.line == 3


class TestSubcommands:
    @pytest.fixture()
    def euler_file(self, tmp_path):
        path = tmp_path / "euler.conn"
        path.write_text(fixture_file("euler-half"))
        return str(path)

    def test_bound(self, euler_file):
        code, report = run_json(["bound", euler_file, "--n", "2"])
        assert code == 0
        assert report["results"]["bound"] == 3

    def test_validate(self, euler_file):
        code, report = run_json(["validate", euler_file])
        assert code == 0
        assert report["results"]["ok"]

    @pytest.mark.parametrize("name", fixture_names())
    @pytest.mark.parametrize("section", [[], ["t^2+1", "t-3"]])
    def test_ode_residual_is_exactly_zero(self, tmp_path, name, section):
        path = tmp_path / f"{name}.conn"
        path.write_text(fixture_file(name))
        rank = fixture(name).rank
        flags = ["--section=" + ",".join(section[:rank])] if section else []
        code, report = run_json(["ode", str(path), *flags])
        assert code == 0
        assert report["results"]["residual_at_probe"] == ["0"] * rank
        assert report["tolerances"] == {"tol": None}

    def test_ode_runs_no_transport(self, euler_file, monkeypatch):
        def refuse(*args):
            raise AssertionError("ode transported a frame")

        monkeypatch.setattr(monodromy_mod, "_transport", refuse)
        code, report = run_json(["ode", euler_file, "--section=t^2+1"])
        assert code == 0
        assert report["results"]["residual_at_probe"] == ["0"]

    @pytest.mark.parametrize("text, point, label", [
        (IRREGULAR_CONN, "0", "C_2 not nilpotent: irregular singular point"),
        (GAUGE_TWIN_CONN, "1",
         "C_2 nilpotent: exponents need a Moser reduction"),
    ], ids=["irregular", "gauge-twin"])
    def test_validate_withholds_exponents_at_higher_order_poles(
            self, tmp_path, text, point, label):
        path = tmp_path / "higher.conn"
        path.write_text(text)
        code, report = run_json(["validate", str(path)])
        assert code == 0
        results = report["results"]
        assert results["warnings"] == [
            f"t = {point}: pole of effective order 2, {label}"]
        exponents = results["local_exponents"]
        assert exponents.pop(point) is None
        assert all(len(e) == 2 for e in exponents.values())

    def test_derive(self, euler_file):
        code, report = run_json(["derive", euler_file, "--order", "2",
                                 "--section=t^2+1"])
        assert code == 0
        conn = fixture("euler-half")
        section = Section([parse_ratfun("t^2+1")], conn.splitting)
        its = iterated(conn, section, 2)
        assert report["results"] == {
            "order": 2,
            "iterates": [[str(c) for c in s.comps] for s in its]}

    def test_invalid_file_outside_validate(self, tmp_path):
        path = tmp_path / "bad.conn"
        path.write_text("rank 1\nsplitting 0\npoint 0 order 1\n"
                        "matrix\n1/t^2\nend\n")
        code, report = run_json(["monodromy", str(path)])
        assert code == 1
        assert report["error"] == "validation failed"
        assert report["violations"] == [
            "entry (0,0) has pole order 2 > 1 at t=0"]

    def test_fixtures_emit(self, tmp_path):
        out = tmp_path / "out.conn"
        code, report = run_json(["fixtures", "emit", "euler-half",
                                 str(out)])
        assert code == 0
        assert out.read_text() == fixture_file("euler-half")

    def test_unknown_fixture_is_domain_error(self, tmp_path):
        code, report = run_json(["fixtures", "emit", "nope",
                                 str(tmp_path / "x.conn")])
        assert code == 1
        assert "error" in report

    def test_monodromy_defect(self, tmp_path):
        path = tmp_path / "td.conn"
        path.write_text(fixture_file("triangle-diag"))
        code, report = run_json(["monodromy", str(path), "--tol", "1e-12"])
        assert code == 0
        assert report["results"]["product_defect"] < 1e-8
        assert report["results"]["irreducible"] == "irreducible"

    @pytest.mark.parametrize("name", fixture_names())
    def test_monodromy_report_is_strict_json(self, tmp_path, name):
        # run_json refuses NaN and Infinity, which are not JSON: every
        # margin, the rank-1 one too, must be a finite number
        path = tmp_path / f"{name}.conn"
        path.write_text(fixture_file(name))
        code, report = run_json(["monodromy", str(path)])
        assert code == 0

    def test_input_digest_is_sha256(self, tmp_path):
        text = fixture_file("triangle-diag")
        path = tmp_path / "td.conn"
        path.write_text(text)
        code, report = run_json(["validate", str(path)])
        assert code == 0
        assert report["inputs"]["sha256"] == \
            hashlib.sha256(text.encode()).hexdigest()

    def test_monodromy_generator_diagnostics(self, tmp_path):
        path = tmp_path / "td.conn"
        path.write_text(fixture_file("triangle-diag"))
        code, report = run_json(["monodromy", str(path), "--tol", "1e-10"])
        res = report["results"]
        assert code == 0
        assert len(res["generator_diagnostics"]) == len(res["points"]) == 3
        for diag in res["generator_diagnostics"]:
            assert sorted(diag) == ["max_order", "min_clearance", "steps",
                                    "tail_bound"]
            assert diag["steps"] > 0 and diag["max_order"] > 0
            # each circle keeps 0.5 from its point; an approach line may
            # pass closer to another one
            assert 0.1 < diag["min_clearance"] <= 0.5 + 1e-12
            # three pieces per loop, each with a summed bound <= tol
            assert 0 < diag["tail_bound"] <= 3e-10
        assert res["transport_error_estimate"] == pytest.approx(
            sum(d["tail_bound"] for d in res["generator_diagnostics"]))

    def test_monodromy_tiny_tol_bounded_order(self, tmp_path):
        # the roundoff floor of each step's tail target bounds the order
        path = tmp_path / "td.conn"
        path.write_text(fixture_file("triangle-diag"))
        started = time.monotonic()
        proc = run_cli(["--format", "json", "monodromy", str(path),
                        "--tol", "1e-300"])
        assert time.monotonic() - started < 20
        assert proc.returncode in (0, 1)
        report = json.loads(proc.stdout)
        if proc.returncode == 0:
            assert report["results"]["det_defect"] < 1e-10
            assert all(d["max_order"] < 100
                       for d in report["results"]["generator_diagnostics"])
        else:
            assert report["error"]

    @pytest.mark.parametrize("argv", [["monodromy"], ["achieve", "--n", "2"]])
    def test_huge_growth_bound_fails_cleanly(self, tmp_path, argv):
        # M = R/(t(t-1)) with R = 3000: near 0 a step's growth factor e^A
        # lies far beyond double range, so no order meets the tail target;
        # achieve solves its kernel exactly and transports nothing
        path = tmp_path / "big.conn"
        path.write_text("rank 1\nsplitting 0\npoint 0 order 1\n"
                        "point 1 order 1\nmatrix\n3000/(t*(t-1))\nend\n")
        code, report = run_json([argv[0], str(path), *argv[1:]])
        if argv[0] == "monodromy":
            assert code == 1
            assert "no order up to" in report["error"]
        else:
            assert code == 0
            jet = report["results"]["jet_magnitudes"]
            assert jet[:-1] == [0.0, 0.0] and jet[-1] > 0


class TestArguments:
    @pytest.fixture()
    def files(self, tmp_path):
        for name, short in (("euler-half", "euler"), ("triangle-diag", "tri")):
            (tmp_path / f"{short}.conn").write_text(fixture_file(name))
        return tmp_path

    def _domain_error(self, capsys, argv):
        assert main(["--format", "json", *argv]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"]
        return report["error"]

    def test_achieve_dual_index_beyond_rank(self, files, capsys):
        err = self._domain_error(capsys, ["achieve", str(files / "tri.conn"),
                                          "--n", "1", "--order", "5"])
        assert "dual index 5" in err

    def test_achieve_negative_dual_index(self, files, capsys):
        err = self._domain_error(capsys, ["achieve", str(files / "tri.conn"),
                                          "--n", "1", "--order", "-1"])
        assert "dual index -1" in err

    def test_achieve_base_across_a_pole(self, files):
        # achieve solves its exact kernel at t0 = -1-i and transports
        # nothing, so the low jet entries are exactly 0
        code, report = run_json(["achieve", str(files / "tri.conn"), "--n",
                                 "1", "--base=-1-1j"])
        assert code == 0
        jet = report["results"]["jet_magnitudes"]
        assert max(jet[:-1]) == 0 < jet[-1]
        # period_jet transports from the default base 3+i along a segment
        # that runs through t = 1, so it detours on the loop circle there:
        # t0 lies on the cut behind 1, and its frame must continue the one
        # on a side of the cut (a 5-term Taylor step of length 0.01)
        conn = fixture("triangle-diag")
        section = Section([parse_ratfun(c)
                           for c in report["results"]["section"]],
                          conn.splitting)
        t0, depth = -1 - 1j, 5
        at = period_jet(conn, section, t0, depth)
        assert at.transport_error < 1e-10
        normal = 0.01j * (2 + 1j) / abs(2 + 1j)
        misses = []
        for h in (normal, -normal):
            near = period_jet(conn, section, t0 + h, 1).jet[0]
            taylor = sum(at.jet[k] * h ** k / math.factorial(k)
                         for k in range(depth))
            misses.append(np.max(np.abs(near - taylor)))
        assert min(misses) < 1e-9 * np.max(np.abs(at.jet))

    def test_far_base_fails_cleanly(self, files):
        # on a 1e20-long approach a chord near the loops is too short to
        # advance the line's parameter: the run must stop, not spin
        proc = run_cli(["--format", "json", "monodromy",
                        str(files / "tri.conn"), "--base", "1e20"],
                       timeout=60)
        assert proc.returncode == 1
        assert "does not advance" in json.loads(proc.stdout)["error"]

    def test_achieve_one_dimensional_section_space(self, files, capsys):
        err = self._domain_error(capsys, ["achieve", str(files / "euler.conn"),
                                          "--n", "0"])
        assert "dimension 1" in err

    @pytest.mark.parametrize("argv", [
        ["monodromy", "euler.conn", "--tol=-1"],
        ["monodromy", "euler.conn", "--tol=-inf"],
        ["monodromy", "euler.conn", "--tol=0"],
        ["monodromy", "euler.conn", "--tol=inf"],
        ["monodromy", "euler.conn", "--tol=1e-400"],
        ["monodromy", "euler.conn", "--tol=nan"]])
    def test_negative_tol(self, files, capsys, argv):
        err = self._domain_error(capsys, [argv[0], str(files / argv[1]),
                                          *argv[2:]])
        assert "tol must be positive" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_ode_tol_checked_before_reduction(self, files, monkeypatch, tol):
        # ode checks its scalar equation exactly and reads no --tol: the
        # flag is a usage error, raised before any iterate is derived
        def refuse(*args):
            raise AssertionError("the iterates were derived before the "
                                 "arguments were checked")

        monkeypatch.setattr("meroconn.wronskian.iterated", refuse)
        assert main(["ode", str(files / "euler.conn"), f"--tol={tol}"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["sample-h", "--pole-divisor", "0^0"], "order must be >= 1"),
        (["sample-h", "--pole-divisor", "0^1,0^1"], "duplicate divisor point"),
        (["sample-h", "--n", "1", "--pole-divisor", "0^3"], "at most n"),
        (["sample-h", "--n", "-1"], "n must be >= 0"),
        (["sample-h", "--n", "1", "--samples", "-1"], "samples must be >= 0"),
        (["bound", "--n", "-2"], "n must be >= 0"),
        (["derive", "--order", "-1"], "k must be >= 0"),
        (["wronskian", "--section=1,2,3"], "component count"),
        (["ode", "--section=1,2,3"], "component count"),
        (["monodromy", "--base", "nan"], "not finite"),
        (["monodromy", "--base", "inf"], "not finite"),
        (["monodromy", "--base", "one"], "bad base point"),
        (["achieve", "--n", "1", "--base", "nan"], "not finite"),
        (["achieve", "--n", "1", "--base", "inf+1j"], "not finite"),
        (["achieve", "--n", "-1"], "n must be >= 0"),
        (["achieve", "--n", "0", "--pole-divisor", "inf^3"], "at most n"),
        (["achieve", "--n", "-1", "--pole-divisor", "inf^3"],
         "n must be >= 0"),
        (["sample-h", "--n", "-1", "--pole-divisor", "inf^3"],
         "n must be >= 0"),
        # a pole of the twisting divisor, and one of the section at the
        # default probe 3+1.25i
        (["achieve", "--n", "1", "--pole-divisor", "5^1", "--base", "5"],
         "t = 5 is a pole"),
        (["ode", "--section=1/(t-3-5/4i),0"], "t = 3+5/4i is a pole"),
        # a section vanishing at the probe puts an apparent singularity of
        # the scalar equation there
        (["ode", "--section=t-3-5/4i,0"],
         "t = 3+5/4i is a pole of the scalar equation"),
    ])
    def test_out_of_range_argument_is_domain_error(self, files, capsys, argv,
                                                   message):
        err = self._domain_error(capsys, [argv[0], str(files / "tri.conn"),
                                          *argv[1:]])
        assert message in err

    @pytest.mark.parametrize("argv", [["validate", "--tol", "1e-3"],
                                      ["wronskian", "--seed", "1"],
                                      ["bound", "--section=1"],
                                      ["monodromy", "--n", "2"],
                                      ["achieve", "--tol", "1e-3"],
                                      ["ode", "--tol", "1e-3"]])
    def test_unread_flag_is_usage_error(self, files, argv):
        assert main([argv[0], str(files / "euler.conn"), *argv[1:]]) == 2

    def test_report_fields_of_absent_flags_are_null(self, files):
        path = str(files / "euler.conn")
        _, report = run_json(["wronskian", path])
        assert report["seed"] is None
        assert report["tolerances"] == {"tol": None}
        _, report = run_json(["monodromy", path, "--tol", "1e-10"])
        assert report["seed"] is None
        assert report["tolerances"] == {"tol": 1e-10}
        _, report = run_json(["ode", path])
        assert report["tolerances"] == {"tol": None}
        _, report = run_json(["sample-h", path, "--samples", "3",
                              "--seed", "4"])
        assert report["seed"] == 4
        assert report["tolerances"] == {"tol": None}

    def test_format_taken_from_parsed_arguments(self, files, capsys,
                                                monkeypatch):
        # a connection file named "json" must not switch the output to JSON
        (files / "json").write_text(fixture_file("euler-half"))
        monkeypatch.chdir(files)
        assert main(["--format", "text", "validate", "json"]) == 0
        out = capsys.readouterr().out
        assert not out.lstrip().startswith("{")
        assert "ok: True" in out


class TestExitCodes:
    def test_usage_error(self):
        proc = run_cli(["definitely-not-a-command"])
        assert proc.returncode == 2

    def test_missing_subcommand(self):
        proc = run_cli([])
        assert proc.returncode == 2

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.conn"
        bad.write_text("rank 1\nsplitting 0 0\nmatrix\n0\nend\n")
        proc = run_cli(["validate", str(bad)])
        assert proc.returncode == 1

    def test_validation_failure(self, tmp_path):
        bad = tmp_path / "bad.conn"
        bad.write_text("rank 1\nsplitting 0\npoint 0 order 1\n"
                       "matrix\n1/t^2\nend\n")
        proc = run_cli(["validate", str(bad)])
        assert proc.returncode == 1

    def test_missing_file(self, tmp_path):
        proc = run_cli(["validate", str(tmp_path / "absent.conn")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("command", ["validate", "monodromy"])
    def test_unreadable_file_is_domain_error(self, tmp_path, kind, command):
        path = tmp_path / "input.conn"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"rank 1\xff\n")
        code, report = run_json([command, str(path)])
        assert code == 1
        assert report["error"].startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    def test_unwritable_emit_path_is_domain_error(self, tmp_path, kind):
        path = tmp_path / "out.conn"
        if kind == "directory":
            path.mkdir()
        else:
            path = tmp_path / "absent" / "out.conn"
        code, report = run_json(["fixtures", "emit", "euler-half", str(path)])
        assert code == 1
        assert report["error"].startswith(f"cannot write {path}: ")


class TestDeterminism:
    def test_sample_h_byte_identical(self, tmp_path):
        euler = tmp_path / "euler.conn"
        euler.write_text(fixture_file("euler-half"))
        tri = tmp_path / "tri.conn"
        tri.write_text(fixture_file("triangle-diag"))
        runs = {}
        for args in (["sample-h", str(euler), "--n", "2", "--samples", "30",
                      "--seed", "7"],
                     ["achieve", str(tri), "--n", "1"]):
            first = run_cli(["--format", "json", *args])
            second = run_cli(["--format", "json", *args])
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
            # wall time stays out of the report (stderr only)
            assert "wall" not in first.stdout
            assert "wall time" in first.stderr
            runs[args[0]] = json.loads(first.stdout)["results"]
        assert runs["sample-h"]["max_observed_generation"] == 3
        assert runs["achieve"]["space_dimension"] == 4
