"""meroconn benchmark: one closed-loop client running CLI jobs in process.

    python3 perfbench/run.py --workload monodromy --seed 1 --seconds 30 --trace 0

The run builds a seeded job list for the workload, writes its connection
files, and then calls ``meroconn.cli.main(["--format", "json", ...])`` one
job at a time, with stdout and stderr captured, in whole passes over the
seed's job list for about ``--seconds``.  Each job's JSON report is
checked against the construction truth outside the timed region.  The
last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``; with ``--trace 1``, per-layer metrics from running each job
once more with layer spans recorded.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 5
TAIL_PERCENTILE = 90


def _environment(seed, workload):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  env=env, capture_output=True, text=True,
                                  timeout=10)
            commit = proc.stdout.strip() or None
    return {"commit": commit, "python": sys.version.split()[0],
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed, "workload": workload}


_BIG_A = 7 ** 1400
_BIG_B = 3 ** 2500 + 1


def _kernel_fractions():
    total = Fraction(0)
    for k in range(1, 700):
        total += Fraction(1, k)


def _kernel_bigints():
    a = _BIG_A
    for _ in range(40):
        a = a * 3 + _BIG_B
        math.gcd(a, _BIG_B)


def _kernel_interpreter():
    total = 0
    for k in range(25000):
        total += k * k % 7


def _kernel_numpy():
    coeffs = np.array([1.0, 2.0, 3.0])
    for k in range(700):
        float(np.polyval(coeffs, 0.5 + k))


# Best-of-2 seconds of each kernel at the speed that defines a scaled
# second (about a 2-core Intel Xeon VM at its fast phases).
KERNEL_S = {_kernel_fractions: 0.0021, _kernel_bigints: 0.0020,
            _kernel_interpreter: 0.0019, _kernel_numpy: 0.0036}
# The kernels whose speed each workload's jobs follow: timed around the
# same fixed jobs in repeated runs of one seed, these took the most drift
# out of each workload's figures.  The Fraction kernel alone tracked
# `achieve` (big-integer gcds) no better than raw times did.
WORKLOAD_KERNELS = {
    "monodromy": tuple(KERNEL_S),
    "wronskian": (_kernel_fractions,),
    "achieve": (_kernel_bigints,),
}


def _slowness(kernels) -> float:
    """Geometric mean, over `kernels`, of the best of 2 timings of each
    over its KERNEL_S time: 1 at the reference speed, 2 at half of it.

    On a shared machine the speed of the CPU a process gets drifts by
    +-25% over seconds, and not alike for every kind of work.  Every
    measured time is divided by the slowness measured next to it, with
    the kernels that do the workload's kind of work, which takes most of
    that drift out; the raw times are printed as well."""
    logs = 0.0
    for kernel in kernels:
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        logs += math.log(best / KERNEL_S[kernel])
    return math.exp(logs / len(kernels))


def _run_job(cli, job, path):
    """One CLI invocation; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv(path))
    except Exception as exc:  # a crash is a failed job, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def _verify(workloads, job, code, stdout, error):
    """(reason or None, check measures, parsed report or None)."""
    if error is not None:
        return error, {}, None
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {code}, output is not JSON", {}, None
    if code != 0:
        return f"exit {code}: {report.get('error')}", {}, report
    try:
        reason, measures = workloads.check(job, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}", {}, report
    return reason, measures, report


def _coeff_bits(report) -> int:
    """Largest bit length of an integer written in the report's exact
    (string) results."""
    best = 0

    def walk(x):
        nonlocal best
        if isinstance(x, str):
            for digits in re.findall(r"\d+", x):
                best = max(best, int(digits).bit_length())
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(report.get("results") if report else None)
    return best


class Runner:
    def __init__(self, workload, seed, workdir):
        import workloads

        self.workloads = workloads
        self.name = workload
        self.seed = seed
        self.dir = workdir
        self.jobs = []
        self.kernels = WORKLOAD_KERNELS[workload]
        self._slow = None

    def path(self, job):
        return os.path.join(self.dir, job.file)

    def setup(self):
        """Fresh-interpreter import of meroconn, input generation, file
        writes and one untimed warm-up job, SETUP_REPS times; returns the
        median scaled seconds of one set-up."""
        import meroconn.cli as cli

        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        slow = _slowness(self.kernels)
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import meroconn.cli"],
                           env=env, check=True, timeout=120)
            self.jobs = [job for cycle in
                         self.workloads.cycles(self.name, self.seed)
                         for job in cycle]
            for job in self.jobs:
                with open(self.path(job), "w", encoding="utf-8") as fh:
                    fh.write(job.text)
            warm = self.jobs[0]
            _run_job(cli, warm, self.path(warm))
            elapsed = time.perf_counter() - start
            slow_next = _slowness(self.kernels)
            times.append(elapsed * 2 / (slow + slow_next))
            slow = slow_next
        return statistics.median(times)

    def _timed(self, cli, job, k, context):
        """Run one job inside `context` and check it; returns its record and
        its stdout.  Its time is divided by the mean of the slowness measured
        just before and just after it."""
        with context:
            elapsed, code, stdout, error = _run_job(cli, job, self.path(job))
        slow = _slowness(self.kernels)
        scale = 2 / (self._slow + slow)
        self._slow = slow
        reason, measures, report = _verify(self.workloads, job, code, stdout,
                                           error)
        return {"id": f"{self.name}/seed{self.seed}/{k}/{job.file}",
                "kind": job.kind, "raw_seconds": elapsed,
                "seconds": elapsed * scale, "speed": 1 / slow,
                "reason": reason, "measures": measures,
                "bits": _coeff_bits(report)}, stdout

    def loop(self, seconds, tracer=None):
        """Run whole passes over the job list while one more pass is
        expected to end within `seconds`, and at least one; returns
        (per-job records, traced per-job records).  Whole passes over a
        fixed list keep the mix of inputs the same however many passes
        fit.  With a tracer, each job runs untraced and then traced, so
        that machine drift falls on both alike, and a traced job whose
        output differs from the untraced one fails."""
        import meroconn.cli as cli

        records, traced = [], []
        self._slow = _slowness(self.kernels)
        start = time.perf_counter()
        passes = 0
        while passes == 0 or (time.perf_counter() - start) * (passes + 1) \
                <= seconds * passes:
            for job in self.jobs:
                k = len(records)
                record, plain = self._timed(cli, job, k,
                                            contextlib.nullcontext())
                records.append(record)
                if tracer is not None:
                    tracer.job_id = k
                    record, stdout = self._timed(cli, job, k,
                                                 tracer.installed())
                    if record["reason"] is None and stdout != plain:
                        record["reason"] = ("traced output differs from "
                                            "untraced output")
                    traced.append(record)
            passes += 1
        return records, traced


def _quantile(times, p):
    """Harrell-Davis estimate of the p-quantile of `times`: the mean of the
    order statistics weighted by a Beta((n + 1) p, (n + 1) (1 - p))
    density over their ranks.  Unlike a single order statistic it does not
    jump from one job to the next when a job's time shifts a little, which
    makes the median and tail of a run of a few dozen jobs much steadier."""
    x = np.sort(np.asarray(times, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    per_rank = 400
    u = (np.arange(n * per_rank) + 0.5) / (n * per_rank)
    dens = np.exp((a - 1) * np.log(u) + (b - 1) * np.log1p(-u))
    weights = dens.reshape(n, per_rank).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(records, setup_s):
    """Metrics from scaled times, with the raw figures as notes."""
    times = [r["seconds"] for r in records]
    raw = [r["raw_seconds"] for r in records]
    passed = sum(1 for r in records if r["reason"] is None)
    metrics = {
        "jobs_per_s": (passed / sum(times), "1/s"),
        "job_p50_s": (_quantile(times, 0.5), "s"),
        "job_tail_s": (_quantile(times, TAIL_PERCENTILE / 100), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {"job_tail_percentile": TAIL_PERCENTILE,
             "job_tail_jobs_beyond": len(records) - math.ceil(
                 TAIL_PERCENTILE / 100 * len(records)),
             "jobs": len(records),
             "fail_share": (len(records) - passed) / len(records),
             "raw_jobs_per_s": passed / sum(raw),
             "raw_job_p50_s": _quantile(raw, 0.5),
             "raw_job_tail_s": _quantile(raw, TAIL_PERCENTILE / 100),
             "machine_speed_median": statistics.median(
                 r["speed"] for r in records)}
    return metrics, notes


def per_layer(tracer, records, plain):
    from spans import LAYERS

    n = len(records)
    totals = tracer.totals()
    metrics = {}
    for layer in LAYERS:
        self_s = sum(s for name, (_, s) in totals.items()
                     if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (self_s / n, "s")
    for name, (calls, self_s) in sorted(totals.items()):
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")

    def most(key):
        vals = [r["measures"][key] for r in records if key in r["measures"]]
        return max(vals, default=0.0)

    mono = [r for r in records if "inconclusive" in r["measures"]]
    metrics.update({
        "exactalg.coeff_bits_max": (max(r["bits"] for r in records), "bits"),
        "monodromy.det_err_max": (most("det_err"), "ratio"),
        "monodromy.product_defect_max": (most("product_defect"), "abs"),
        "monodromy.verdict_inconclusive_share": (
            sum(r["measures"]["inconclusive"] for r in mono) / len(mono)
            if mono else 0.0, "share"),
        "monodromy.jet_low_max": (most("jet_low"), "ratio"),
        "trace.overhead_share": (
            sum(r["seconds"] for r in records)
            / sum(r["seconds"] for r in plain) - 1.0, "share"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meroconn" / "cli.py").is_file():
        print(f"meroconn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.CYCLES:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.CYCLES)}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally below so the work files go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = _environment(args.seed, args.workload)
    env["load_before"] = os.getloadavg()
    runner = Runner(args.workload, args.seed,
                    tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        setup_s = runner.setup()
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            plain, records = runner.loop(args.seconds / 2, tracer)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")
            metrics = per_layer(tracer, records, plain)
            notes = {"jobs": len(records)}
            declared = "per_layer"
        else:
            records, _ = runner.loop(args.seconds)
            metrics, notes = end_to_end(records, setup_s)
            declared = "end_to_end"
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    env["load_after"] = os.getloadavg()
    env.update(jobs=notes["jobs"], job_kinds=sorted({r["kind"] for r in records}))
    env.update(tolerance={"monodromy": workloads.MONODROMY_TOL,
                           "achieve": workloads.ACHIEVE_TOL,
                           "wronskian": "exact"}[args.workload])

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)[declared]]
    metrics = {name: metrics[name] for name in names}
    failed = [r for r in records if r["reason"] is not None]
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in sorted(notes.items()):
        print(f"{key} {value}")
    for kind in env["job_kinds"]:
        times = [r["seconds"] for r in records if r["kind"] == kind]
        print(f"kind {kind}: {len(times)} jobs, median "
              f"{statistics.median(times):.4f} s")
    for r in failed:
        print(f"failed {r['id']}: {r['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
