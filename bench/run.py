"""Benchmark of the s3double CLI: seeded workloads of CLI jobs, end-to-end
time and memory, and a per-layer trace wrapped around the package from
outside.

Run from the repository root:

    python3 bench/run.py --workload lattice-protocols --seed 1 --seconds 60 --trace 0

Each pass of a workload runs in a fresh single-threaded interpreter
(``bench/worker.py``, BLAS threads pinned to 1) that loads the package and
then calls ``s3double.cli.run`` once per job.  Passes run until
``--seconds`` is used up (at least two passes), each with inputs drawn from
the seed and the pass index; every figure is the median over passes.
``--trace 1`` instead runs pass 0's jobs traced, untraced and traced again,
and reports the per-layer metrics.

Standard output ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds provenance, every job with
its time and output digest, and the failed checks.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import tomllib
from importlib import metadata
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FR_TABLE = SRC / "s3double" / "data" / "fr_table.txt"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 2
POOLED_Z_LIMIT = 5
SETUP_SAMPLES = 5
PASS_BUDGET_S = 150  # no pass starts that would end after this; runs stay under 180 s
RUN_LIMIT_S = 175

SLOTS = ("job1", "job2", "job3", "job4", "job5", "job6")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("check_pass_ratio", "ratio"),
] + [(slot + "_s", "s") for slot in SLOTS]


# ---------------------------------------------------------------------------
# Workloads: (slot, CLI argv) lists, run in order.  Stochastic jobs draw their
# seeds from --seed and the pass index, so successive passes sample new inputs
# and the median over passes averages the seed out.  The host's speed drifts
# within seconds, so each stochastic slot is split into chunks spread over the
# pass: a slot's time per pass then averages the whole pass, not one second.


def _lattice_protocols(seed):
    # job1/job2: adaptive moves on 1-12-term states, where fixed numpy
    # overhead per lattice call dominates.  Each job's record is a 3-sigma
    # z-test that a correct program fails in about 0.25% of seeds, so the
    # benchmark gates on a pooled test over all passes (MoveStats).
    # job3: noiseless 2x2 QEC; every round ends in the ground state, so every
    # round expands 6^8 = 1,679,616 terms for the fidelity check, and its cost
    # and the peak memory are fixed by the size, not by the seed.
    # job4: noisy 3x1 rounds from a fresh ground state (decoder, recovery,
    # fidelity on 6^7 terms).
    # job5: a deterministic oracle that builds ribbon operator matrices
    # column by column, one lattice call per one-term basis state, and
    # compares their Choi matrices with the circuits'.
    # job6: D pairs created on the 3x1 strip and located by a full charge
    # measurement (measure_MK); every trial must find exactly the pair.
    move = ["move-stats", "--rounds", "1", "--trials", "100", "--anyon"]
    micro = ["qec-cycle", "--microscopic", "--rounds", "1"]

    def chunk():
        return [
            ("job1", move + ["C", "--seed", seed()]),
            ("job2", move + ["D", "--seed", seed()]),
        ] + [
            ("job4", micro + ["--width", "3", "--height", "1", "--p", "0.03", "--seed", seed()])
            for _ in range(10)
        ] + [
            ("job6", ["ribbon-demo", "--anyon", "D", "--trials", "100", "--seed", seed()]),
        ]

    return (
        chunk()
        + [("job3", micro + ["--width", "2", "--height", "2", "--p", "0", "--seed", seed()])]
        + chunk()
        + [("job5", ["circuit-equivalence"])]
    )


def _label_protocols(seed):
    # job1-job4: fusion-tree protocols and the phenomenological QEC loop,
    # whose grid is large enough for the cubic greedy decoder to dominate.
    # job5/job6: deterministic oracles of the category (pentagon, hexagon,
    # gauge invariants) and of the concatenated code's recovery.  No lattice
    # state is built, so every lattice change is predicted to leave it alone.
    def chunk():
        jobs = [
            ("job1", ["measure-mu", "--trials", "50"]),
            ("job2", ["measure-ma", "--trials", "750"]),
            ("job3", ["merge-split", "--trials", "125"]),
            ("job4", ["qec-cycle", "--width", "40", "--height", "40", "--p", "0.01",
                      "--rounds", "5"]),
        ]
        return [(slot, argv + ["--seed", seed()]) for slot, argv in jobs]

    return (
        chunk()
        + [("job5", ["verify-category"])]
        + chunk()
        + chunk()
        + [("job6", ["concat-cc", "--blocks", "9", "--error-site", "4"])]
        + chunk()
    )


WORKLOADS = {
    "lattice-protocols": _lattice_protocols,
    "label-protocols": _label_protocols,
}


def workload_jobs(workload, seed, pass_index):
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return WORKLOADS[workload](lambda: str(rng.randrange(1, 2**31)))


# ---------------------------------------------------------------------------
# Passes


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_pass(jobs, trace, deadline):
    """Run the (slot, argv) jobs in a fresh worker process; returns its JSON
    result with each job's slot and argv added."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    spec = {"src": str(SRC), "jobs": [argv for _, argv in jobs], "trace": trace}
    spec["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=dict(os.environ, **THREAD_ENV),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run time limit") from exc
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    for (slot, argv), job in zip(jobs, result["jobs"]):
        job["slot"], job["argv"] = slot, argv
    return result


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def move_z(anyon, n, wins, trials):
    """z-score of `wins` in `trials` moves of a C or D anyon with round
    budget n, against the closed-form success rate; returns (rate, z)."""
    rate = 1 - 0.5**n if anyon == "C" else 1 - (8 / 9) * 0.5 ** (n - 1)
    return rate, (wins / trials - rate) / math.sqrt(rate * (1 - rate) / trials)


class MoveStats:
    """Wins and trials of the timed move-stats jobs, pooled per (anyon, n).

    A move-stats record is a 3-sigma z-test on its own trials, so a correct
    program flags about 0.25% of jobs by chance and exits 1 on them.  The
    gate is instead one z-test per (anyon, n) over all timed jobs of the
    run, at POOLED_Z_LIMIT; more trials give it more power than any single
    record has, and its false-alarm rate is below 1e-6."""

    def __init__(self):
        self.pooled = {}
        self.flagged = []

    def add(self, checks, name, rec, timed):
        key = (rec["anyon"], rec["n"])
        wins = rec["empirical"] * rec["trials"]
        rate, z = move_z(*key, wins, rec["trials"])
        checks.check(
            abs(rec["analytic"] - rate) < 1e-12
            and abs(wins - round(wins)) < 1e-6
            and abs(rec["z"] - z) < 1e-6
            and rec["pass"] is (abs(rec["z"]) < 3),
            f"inconsistent move-stats record: {name}: {json.dumps(rec)}",
        )
        if not rec["pass"]:
            self.flagged.append(name)
        if timed:
            total = self.pooled.setdefault(key, [0, 0])
            total[0] += round(wins)
            total[1] += rec["trials"]

    def check(self, checks):
        for (anyon, n), (wins, trials) in sorted(self.pooled.items()):
            _, z = move_z(anyon, n, wins, trials)
            checks.check(
                abs(z) < POOLED_Z_LIMIT,
                f"pooled move-stats {anyon} n={n}: {wins}/{trials} wins, z={z:.2f}",
            )

    def details(self):
        return {
            "move_stats_pooled": {f"{a}/{n}": wt for (a, n), wt in sorted(self.pooled.items())},
            "move_stats_3sigma_flags": self.flagged,
        }


def check_outputs(checks, result, moves):
    """Program checks of one pass: exit codes, every record's own pass flag
    (move-stats records go to `moves` instead), and the decoder bound on
    qec-cycle records.  Returns the zero-residual microscopic qec rounds and
    how many of them reached the ground state."""
    zero = ground = 0
    for job in result["jobs"]:
        name = " ".join(job["argv"])
        records = []
        for line in job["stdout"].splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                checks.check(False, f"unparsable record: {name}")
        if job["argv"][0] == "move-stats" and job["error"] is None and records:
            # the CLI exits 1 exactly when one of its records is flagged
            want_rc = 0 if all(rec.get("pass") is True for rec in records) else 1
            checks.check(job["rc"] == want_rc, f"exit {job['rc']}, want {want_rc}: {name}")
            for rec in records:
                moves.add(checks, name, rec, job["slot"] is not None)
            continue
        checks.check(job["rc"] == 0, f"exit {job['rc']} {job['error'] or ''}: {name}")
        for rec in records:
            line = json.dumps(rec)
            checks.check(rec.get("pass") is True, f"record failed: {name}: {line}")
            if rec.get("check") == "qec-round":
                checks.check(
                    len(rec["actions"]) <= len(rec["syndrome"]) // 2,
                    f"more decoder actions than syndrome pairs: {name}: {line}",
                )
                if "fidelity" in rec and rec["residual"] == 0:
                    zero += 1
                    ground += abs(rec["fidelity"] - 1) < 1e-9
    return zero, ground


def check_same_output(checks, reference, other, label):
    """Every job of `other` that `reference` also ran (same argv, so same
    seed) must have printed byte-identical output."""
    ref = {tuple(job["argv"]): job["stdout"] for job in reference["jobs"]}
    for job in other["jobs"]:
        argv = tuple(job["argv"])
        if argv in ref:
            checks.check(
                digest(ref[argv]) == digest(job["stdout"]),
                f"{label}: output differs at the same seed: {' '.join(argv)}",
            )


def slot_seconds(result, slot=None):
    """Time of one slot's jobs in a pass, or of all timed jobs."""
    return sum(
        job["seconds"]
        for job in result["jobs"]
        if job["slot"] is not None and slot in (None, job["slot"])
    )


# ---------------------------------------------------------------------------
# Modes


def measure(workload, seed, seconds, checks, deadline):
    """Untraced passes for --seconds (at least MIN_PASSES); medians."""
    start = time.monotonic()
    passes = []
    while True:
        jobs = workload_jobs(workload, seed, len(passes))
        if passes:
            # determinism: every later pass also re-runs pass 0's quickest
            # job (untimed, slot None) unless it already runs that exact job
            repeat = min(passes[0]["jobs"], key=lambda job: job["seconds"])["argv"]
            if repeat not in [argv for _, argv in jobs]:
                jobs.append((None, repeat))
        passes.append(run_pass(jobs, False, deadline))
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(passes)
        if len(passes) >= MIN_PASSES and (next_end > seconds or next_end > PASS_BUDGET_S):
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass([], False, deadline)["setup_s"])

    moves = MoveStats()
    for p in passes:
        check_outputs(checks, p, moves)
    moves.check(checks)
    for p in passes[1:]:
        check_same_output(checks, passes[0], p, "repeat pass")

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(slot_seconds(p) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for slot in SLOTS:
        metrics[slot + "_s"] = statistics.median(slot_seconds(p, slot) for p in passes)
    return metrics, passes, {"setup_samples": setups, **moves.details()}


def trace(workload, seed, checks, deadline):
    """Two traced passes of pass 0's jobs around one untraced pass (the
    bracket evens out a drift in machine speed for the overhead ratio)."""
    jobs = workload_jobs(workload, seed, 0)
    traced = [run_pass(jobs, True, deadline)]
    plain = run_pass(jobs, False, deadline)
    traced.append(run_pass(jobs, True, deadline))

    moves = MoveStats()
    zero, ground = check_outputs(checks, plain, moves)
    moves.check(checks)
    for t in traced:
        check_same_output(checks, plain, t, "traced run")
    first, second = (t["layers"] for t in traced)
    differing = sorted(
        k for k in first if not layers.timing_metric(k) and first[k] != second[k]
    )
    checks.check(not differing, f"traced counts differ between two runs: {differing}")

    metrics = {
        k: statistics.median([first[k], second[k]]) if layers.timing_metric(k) else first[k]
        for k in first
    }
    wall = [slot_seconds(p) for p in (plain, *traced)]
    metrics["trace.overhead_ratio"] = statistics.median(wall[1:]) / wall[0]
    metrics["qec.zero_residual_ground_ratio"] = ground / zero if zero else 0.0
    details = {
        "qec_zero_residual_rounds": zero,
        "qec_zero_residual_ground": ground,
        "edges": traced[0]["edges"],
        **moves.details(),
    }
    return metrics, [plain, *traced], details


# ---------------------------------------------------------------------------
# Provenance and output


def provenance(workload, seed, trace_flag):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10,
        )
        git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_commit = None
    with open(ROOT / "pyproject.toml", "rb") as f:
        package_version = tomllib.load(f)["project"]["version"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace_flag,
        "package_version": package_version,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "fr_table_sha256": hashlib.sha256(FR_TABLE.read_bytes()).hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": THREAD_ENV,
        "git_commit": git_commit,
    }


def declared_metrics(trace_flag):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_flag else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "s3double" / "cli.py").is_file():
        raise BenchError(f"no s3double package under {SRC}")
    checks = Checks()
    if args.trace:
        metrics, passes, details = trace(args.workload, args.seed, checks, deadline)
        metrics["check_fail_ratio"] = len(checks.failures) / checks.attempted
        units = {name: unit for name, unit, _ in layers.metric_specs()}
    else:
        metrics, passes, details = measure(
            args.workload, args.seed, args.seconds, checks, deadline
        )
        metrics["check_pass_ratio"] = 1 - len(checks.failures) / checks.attempted
        units = dict(END_TO_END)

    if units != declared_metrics(args.trace) or set(metrics) != set(units):
        raise BenchError("reported metrics do not match BENCHMARK.json")

    print(json.dumps({
        "provenance": provenance(args.workload, args.seed, args.trace),
        "passes": [
            [
                {k: job[k] for k in ("slot", "argv", "seconds")} | {"sha256": digest(job["stdout"])}
                for job in p["jobs"]
            ]
            for p in passes
        ],
        "failures": checks.failures,
        **details,
    }))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
