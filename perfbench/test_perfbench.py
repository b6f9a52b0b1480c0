"""Tests of the benchmark itself: deterministic inputs, valid systems whose
construction truth holds, checks that catch wrong answers, and a trace
layer that leaves outputs and functions as it found them."""

import inspect
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from meroconn.cli import parse_connection_file  # noqa: E402
from meroconn.exactalg import GaussRat  # noqa: E402

CYCLES_CHECKED = 2


def _jobs(workload, seed):
    return [job for cycle in W.cycles(workload, seed)[:CYCLES_CHECKED]
            for job in cycle]


@pytest.mark.parametrize("workload", sorted(W.CYCLES))
def test_same_seed_same_files_and_argv(workload):
    first = [(j.file, j.text, j.argv(j.file)) for j in _jobs(workload, 7)]
    again = [(j.file, j.text, j.argv(j.file)) for j in _jobs(workload, 7)]
    other = [(j.file, j.text, j.argv(j.file)) for j in _jobs(workload, 8)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(W.CYCLES))
def test_generated_systems_are_valid_and_match_their_residues(workload):
    t0 = GaussRat(F(7, 3))
    for job in _jobs(workload, 3):
        conn = parse_connection_file(job.text)   # raises unless valid
        residues = job.truth["residues"]
        n = conn.rank
        for i in range(n):
            for j in range(n):
                assert sum(k[i][j] for k in residues.values()) == 0
                want = sum(k[i][j] / (t0.re - c) for c, k in residues.items())
                assert conn.matrix[i][j].eval(t0) == GaussRat(want)
        if job.kind == "rank2-n1":
            k0, k1 = (residues[c] for c in sorted(residues)[:2])
            comm = [[sum(k0[i][m] * k1[m][j] - k1[i][m] * k0[m][j]
                         for m in range(2)) for j in range(2)]
                    for i in range(2)]
            assert comm[0][0] * comm[1][1] - comm[0][1] * comm[1][0] != 0


def test_irreducible_construction_has_one_irrational_pole():
    for job in _jobs("monodromy", 5):
        if job.kind.startswith("irr"):
            ks = [job.truth["residues"][c] for c in sorted(job.truth["residues"])]
            assert all(W._is_rational_square(W._disc(k)) for k in ks[:-1])
            assert not W._is_rational_square(W._disc(ks[-1]))


def test_rank4_and_direct_sum_constructions():
    kinds = set()
    for job in _jobs("monodromy", 5):
        ks = [job.truth["residues"][c] for c in sorted(job.truth["residues"])]
        kinds.add(job.kind)
        if job.kind.startswith("rank4"):
            assert job.truth["verdict"] == "irreducible"
            assert W._irrational_subset_sums(ks[-1])
        if job.kind.startswith("direct-sum"):
            assert job.truth["verdict"] == "reducible"
            assert all(len(k) == 3 and k[0][2] == k[1][2] == k[2][0]
                       == k[2][1] == 0 for k in ks)
    assert {"rank4-irreducible-3", "direct-sum-3"} <= kinds


def test_irrational_subset_sums_rejects_rational_sums():
    z = F(0)
    # two blocks with eigenvalues +-sqrt(2)/2 and +-sqrt(3)/2: each pair
    # of conjugates sums to 0
    blocks = [[F(0), F(1, 2), z, z], [F(1), F(0), z, z],
              [z, z, F(0), F(3, 4)], [z, z, F(1), F(0)]]
    assert not W._irrational_subset_sums(blocks)
    diag = [[F(i + 1, 7) if i == j else z for j in range(4)] for i in range(4)]
    assert not W._irrational_subset_sums(diag)


def test_sections_keep_the_wronskian_off_the_poles(tmp_path):
    import meroconn.cli as cli

    for job in _jobs("wronskian", 2):
        if job.command != "wronskian":
            continue
        path = tmp_path / job.file
        path.write_text(job.text)
        _, code, stdout, error = run._run_job(cli, job, str(path))
        assert error is None and code == 0, stdout
        assert W.check(job, json.loads(stdout))[0] is None


def _first(workload, kind):
    return next(j for j in _jobs(workload, 1) if j.kind == kind)


def _run(job, tmp_path):
    import meroconn.cli as cli

    path = tmp_path / job.file
    path.write_text(job.text)
    _, code, stdout, error = run._run_job(cli, job, str(path))
    assert code == 0 and error is None
    return stdout


def test_checks_reject_wrong_answers(tmp_path):
    job = _first("wronskian", "wronskian-rank2")
    report = json.loads(_run(job, tmp_path))
    assert W.check(job, report)[0] is None
    report["results"]["wronskian"] = "(" + report["results"]["wronskian"] + ") + 1/7"
    assert W.check(job, report)[0] is not None

    job = _first("monodromy", "fixture")
    report = json.loads(_run(job, tmp_path))
    assert W.check(job, report)[0] is None
    report["results"]["irreducible"] = "reducible"
    assert "verdict" in W.check(job, report)[0]
    report["results"]["generators"][0][0][0] = [0.5, 0.0]
    assert "det invariant" in W.check(job, report)[0]


@pytest.mark.xfail(strict=True, reason="the rank >= 4 verdict branch calls "
                   "reducible direct sums irreducible (ROADMAP open item 3)")
def test_rank4_direct_sum_verdict(tmp_path):
    """Reducible rank-4 systems are left out of the timed workloads because
    the program gets their verdict wrong; this keeps the defect in view."""
    import random

    poles = [0, 1, 2]
    rng = random.Random(4)
    res = W.direct_sum(W.irreducible_rank2(rng, poles, 4),
                       W.irreducible_rank2(rng, poles, 4))
    job = W.Job("direct-sum-4", "monodromy", "ds4.conn",
                W.connection_text(res), ["--tol", W.MONODROMY_TOL],
                {"residues": res, "verdict": "reducible"})
    assert W.check(job, json.loads(_run(job, tmp_path)))[0] is None


def test_eval_exact_reads_cli_notation():
    t = W.GQ(F(1, 2))
    assert W.eval_exact("((3/4+1/2i)*t^2 + -i)/(1 + t)", t) == \
        (W.GQ(F(3, 4), F(1, 2)) * t * t - W.GQ(0, 1)) / (1 + t)
    assert W.eval_exact("-3/2-7i + t^12", t) == W.GQ(F(-3, 2), -7) + t ** 12


def _layer_functions():
    import importlib

    return {(m, name): obj
            for m in spans.LAYERS
            for name, obj in vars(importlib.import_module(f"meroconn.{m}")).items()
            if inspect.isfunction(obj)}


def test_trace_keeps_output_and_restores_functions(tmp_path):
    import meroconn

    job = _first("wronskian", "wronskian-rank2")
    before = _layer_functions()
    package_before = dict(vars(meroconn))
    plain = _run(job, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        assert _layer_functions() != before
        traced = _run(job, tmp_path)
    assert traced == plain
    assert _layer_functions() == before
    assert dict(vars(meroconn)) == package_before
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1
    assert totals["connection.covariant_derivative"][0] >= 1
    calls, self_s = totals["exactalg.gcd_poly"]
    assert calls > 0 and self_s > 0


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                           "--workload", "wronskian", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
