"""qbisim benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random_sequential --seed 1 --seconds 30 --trace 0

One closed-loop client: every unit of work runs in a fresh interpreter
(`worker.py`), one after another, each query sent only after the previous
one returned.  With `--trace 0` the run first times several cold set-ups,
then runs a fixed number of units, sized from `--seconds`, and prints the
end-to-end metrics.  With `--trace 1` it runs a fixed number of units
traced and untraced, repeats the first traced unit under another
PYTHONHASHSEED, fails unless every layer count repeats exactly, and prints
the per-layer metrics.
Either way the last line of stdout is one JSON object
`{"correct", "attempted", "failed", "metrics"}`, and the exit code is
non-zero when any output was wrong.

`--workload all` runs every workload in turn with a short report per
workload, for use by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("bb84_security", "random_sequential", "random_concurrent")
# Items per second of --seconds.  A run answers a fixed set of items, not
# as many as fit in a time box, so two commits compared on one seed answer
# exactly the same queries.  On a 2-core x86-64 virtual machine, at the
# commit that introduced the benchmark, the queries of a run take 65-115 %
# of --seconds.  A corpus item is one system; a bb84_security item is one
# protocol instance.
ITEMS_PER_SECOND = {"bb84_security": 0.3, "random_sequential": 1.4, "random_concurrent": 1.0}
ITEMS_PER_UNIT = {"bb84_security": 1, "random_sequential": 8, "random_concurrent": 8}
TRACED_UNITS = {"bb84_security": 1, "random_sequential": 2, "random_concurrent": 2}
SETUP_PROBES = 9        # cold set-ups timed besides those of the units
RUN_LIMIT_S = 170.0     # every child is killed past this point of a run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; times are self times
PER_LAYER = {
    "semantics.step_s": "s",
    "semantics.step_calls": "count",
    "semantics.step_hit_ratio": "ratio",
    "semantics.configs": "count",
    "semantics.distinct_matrices": "count",
    "calculus.parse_s": "s",
    "calculus.subst_s": "s",
    "calculus.subst_calls": "count",
    "lp.solve_s": "s",
    "lp.solve_calls": "count",
    "lp.cols_mean": "count",
    "lp.rows_mean": "count",
    "lp.feasible_ratio": "ratio",
    "bisim.self_s": "s",
    "bisim.relation_search_share": "ratio",
    "bisim.witness_pairs": "count",
    "bisim.replay_s": "s",
    "quantum.op_apply_s": "s",
    "quantum.op_apply_calls": "count",
    "linalg.eig_s": "s",
    "linalg.eig_calls": "count",
    "bb84.probability_s": "s",
    "setup.import_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


class ChildError(RuntimeError):
    pass


class Runner:
    """Starts workers from the checkout root and collects their records."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src if not path else src + os.pathsep + path,
            PYTHONPYCACHEPREFIX=os.path.join(root, ".bench_build", "pycache"),
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        )
        # Bytecode goes to the prefix, written by the untimed first start;
        # without it every start would compile the standard library, numpy
        # and qbisim again and set-up would time the compiler.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, unit: int, *, setup_only=False, trace=0, hash_seed=None) -> dict:
        size = ITEMS_PER_UNIT[self.workload]
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--first", str(unit * size), "--count", str(size), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        hash_seed = self.seed if hash_seed is None else hash_seed
        env = dict(self.env, PYTHONHASHSEED=str(hash_seed % 2 ** 32))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildError("run time limit reached")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildError(f"unit {unit} killed at the run time limit") from None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise ChildError(f"unit {unit} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise ChildError(f"unit {unit} printed no record")
        return json.loads(lines[-1])


def _around(values, q: float) -> float:
    """Mean of the values ranked within 5 points of quantile `q`.

    A smoothed quantile: on a few hundred queries a single order statistic
    jumps between neighbouring queries whose latencies differ by several
    percent, while the window averages over a tenth of them.
    """
    ranked = sorted(values)
    n = len(ranked)
    lo = min(n - 1, int((q - 0.05) * n))
    hi = max(lo + 1, int((q + 0.05) * n))
    return statistics.fmean(ranked[lo:hi])


def _tally(records) -> tuple:
    attempted = sum(len(r["ok"]) for r in records)
    failed = sum(not ok for r in records for ok in r["ok"])
    for r in records:
        for ok, fingerprint in zip(r["ok"], r["fingerprints"]):
            if not ok:
                print(f"wrong output: {fingerprint}", file=sys.stderr)
        for note in r["notes"]:
            print(f"note: {note}", file=sys.stderr)
    return attempted, failed


def measure(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics of an untraced run."""
    runner.child(0, setup_only=True)  # fills the bytecode cache; not timed
    setups = [runner.child(0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    workload = runner.workload
    count = max(1, round(seconds * ITEMS_PER_SECOND[workload] / ITEMS_PER_UNIT[workload]))
    units = [runner.child(u) for u in range(count)]
    latencies = [t for r in units for t in r["latencies"]]
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in units]),
        "wall_s": sum(r["wall_s"] for r in units),
        "query_p50_s": _around(latencies, 0.5),
        "query_p90_s": _around(latencies, 0.9),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in units),
    }
    print(f"{workload}: {len(units)} units, {len(latencies)} queries", file=sys.stderr)
    return metrics, _tally(units)


def trace(runner: Runner) -> tuple:
    """Per-layer metrics of a traced run, with the determinism self-check."""
    plain, traced = [], []
    for unit in range(TRACED_UNITS[runner.workload]):
        plain.append(runner.child(unit))
        traced.append(runner.child(unit, trace=1))
    repeat = runner.child(0, trace=1, hash_seed=runner.seed + 1)

    problems = []
    for p, t in zip(plain, traced):
        if p["fingerprints"] != t["fingerprints"]:
            problems.append("tracing changed a verdict")
    if repeat["counts"] != traced[0]["counts"]:
        diff = {k: (traced[0]["counts"].get(k), repeat["counts"].get(k))
                for k in set(traced[0]["counts"]) | set(repeat["counts"])
                if traced[0]["counts"].get(k) != repeat["counts"].get(k)}
        problems.append(f"layer counts differ across PYTHONHASHSEED values: {diff}")
    if repeat["fingerprints"] != traced[0]["fingerprints"]:
        problems.append("verdicts differ across PYTHONHASHSEED values")
    for missing in traced[0]["missing"]:
        problems.append(f"trace target not found: {missing}")

    self_s = {k: sum(r["self_s"][k] for r in traced) for k in traced[0]["self_s"]}
    counts = {}
    for r in traced:
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
    wall = sum(r["total_s"] for r in traced)
    import_s = sum(r["import_s"] for r in traced)
    unattributed = wall - import_s - sum(self_s.values())
    if unattributed < -1e-6:
        problems.append(f"layer self times exceed the traced wall time by {-unattributed:.6f} s")

    def ratio(num, den):
        return num / den if den else 0.0

    step_calls = counts.get("semantics.step_calls", 0)
    lp_calls = counts.get("lp.solve_calls", 0)
    distribution_calls = counts.get("bisim.distribution_calls", 0)
    metrics = {
        "semantics.step_s": self_s["semantics.step"],
        "semantics.step_calls": step_calls,
        "semantics.step_hit_ratio": 1.0 - ratio(counts.get("semantics.step_distinct", 0), step_calls),
        "semantics.configs": counts.get("semantics.configs", 0),
        "semantics.distinct_matrices": counts.get("semantics.distinct_matrices", 0),
        "calculus.parse_s": self_s["calculus.parse"],
        "calculus.subst_s": self_s["calculus.subst"],
        "calculus.subst_calls": counts.get("calculus.subst_calls", 0),
        "lp.solve_s": self_s["lp.solve"],
        "lp.solve_calls": lp_calls,
        "lp.cols_mean": ratio(counts.get("lp.cols", 0), lp_calls),
        "lp.rows_mean": ratio(counts.get("lp.rows", 0), lp_calls),
        "lp.feasible_ratio": ratio(counts.get("lp.feasible", 0), lp_calls),
        "bisim.self_s": self_s["bisim.engine"],
        "bisim.relation_search_share": ratio(counts.get("bisim.relation_search", 0),
                                               distribution_calls),
        "bisim.witness_pairs": counts.get("bisim.witness_pairs", 0),
        "bisim.replay_s": self_s["bisim.replay"],
        "quantum.op_apply_s": self_s["quantum.op_apply"],
        "quantum.op_apply_calls": counts.get("quantum.op_apply_calls", 0),
        "linalg.eig_s": self_s["linalg.eig"],
        "linalg.eig_calls": counts.get("linalg.eig_calls", 0),
        "bb84.probability_s": self_s["bb84.probability"],
        "setup.import_s": import_s,
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.overhead_ratio": ratio(wall, sum(r["total_s"] for r in plain)),
    }
    attempted, failed = _tally(plain + traced + [repeat])
    for problem in problems:
        print(f"trace: {problem}", file=sys.stderr)
    return metrics, (attempted, failed + len(problems))


def run_one(root: str, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    runner = Runner(root, workload, seed)
    try:
        metrics, (attempted, failed) = trace(runner) if traced else measure(runner, seconds)
    except ChildError as exc:
        print(f"{workload}: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    units = PER_LAYER if traced else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qbisim benchmark runner")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qbisim", "__init__.py")):
        print("run from the root of a qbisim checkout: src/qbisim is missing",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_one(root, workload, args.seed, args.seconds,
                                    bool(args.trace))
        if len(workloads) > 1:
            print(workload, json.dumps(results[workload]))
    if len(workloads) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
