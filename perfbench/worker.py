"""One benchmark unit in a fresh interpreter.

`run.py` starts this script once per unit, from the root of a checkout,
with the checkout's `src` on PYTHONPATH.  The unit imports qbisim, builds
its models (the set-up), then answers its queries one after another, each
followed by the independent replay of its refutation or witness, and checks
every output.  The last line of stdout is a JSON record for `run.py`.

A unit of `bb84_security` is one cold `verify_security(2)` plus the
re-verification of its witness.  A unit of a corpus workload is one batch
of generated systems; each pair of a system gets `decide_state_based`,
`decide_bisim` and `distance_upper_bound`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

REPLAY_TOL = 1e-7
BB84_TOL = 1e-9

# The BB84 instance: n = 2 qubits.  Its exact forbidden-action probability
# comes from the brute-force enumeration in tests/bb84_oracle.py (hacked is
# 0 for all n); the configuration count is what the system interns for the
# protocol and the silent ideal process.
BB84_N = 2
BB84_BOUND = Fraction(3, 64)
BB84_CONFIGS = 6728


def _import_program(root: str):
    import qbisim

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(qbisim.__file__).startswith(src):
        raise SystemExit(f"qbisim imported from {qbisim.__file__}, not from {src}")
    return qbisim


# ---------------------------------------------------------------------------
# workloads: set-up returns a list of (query, check); a query returns its
# result, and check(result) returns (ok, fingerprint, note)


def _bb84_setup(qbisim, args):
    instance = qbisim.bb84.build_bb84_security_test(BB84_N)

    def query():
        bound = qbisim.bb84.verify_security(BB84_N)
        replay = qbisim.bisim.check_lambda_relation(bound.witness, bound.value,
                                                    instance.system, tol=REPLAY_TOL)
        return bound, replay

    def check(result):
        bound, replay = result
        reached = len(instance.system.reachable(
            list(instance.root.support) + list(instance.ideal.support)))
        ok = (abs(bound.value - float(BB84_BOUND)) <= BB84_TOL
              and reached == BB84_CONFIGS and replay.holds)
        return ok, [bound.mode, round(bound.value, 12), reached, replay.holds], None

    return [(query, check)]


def _corpus_setup(qbisim, args):
    queries = []
    for item in args.items:
        system = qbisim.System(qbisim.parse_module("Dummy := nil"),
                               register=qbisim.QubitRegister.of(list(item.qubits)))
        for left, right, bisimilar in item.pairs:
            c = system.config(left, item.matrix)
            d = system.config(right, item.matrix)
            queries.extend(_pair_queries(qbisim, system, c, d, bisimilar))
    return queries


def _pair_queries(qbisim, system, c, d, bisimilar):
    """The three queries on one pair, and the cross-checks between them.

    Each cross-check runs with the last query of the pair, so a miss is
    counted against the query that completes the inconsistent triple.
    A pair bisimilar by construction must hold distribution-based and get
    a zero bound.  Its state-based verdict is not gated: the state-based
    engine refutes some probabilistic-duplication twins (for instance
    `meas Mcomp[q1; x] . meas Mcomp[q1; y] . nil` against a 1/2-1/2 choice
    between two copies of itself), and each such miss is reported as a
    note instead.
    """
    bisim = qbisim.bisim
    got = {}

    def relation_query(decide, key):
        # A state-based witness is a family of point pairs, not closed under
        # canonical saturation, which the saturated checker needs; it is
        # re-verified by the exhaustive checker, the literal definition.
        mode = "exhaustive" if key == "state" else "auto"

        def query():
            report = decide(c, d, system)
            if report.holds:
                replay = bisim.check_ground_bisim_relation(
                    report.witness, system, tol=REPLAY_TOL, mode=mode).holds
            else:
                replay = bisim.replay_refutation(report, system)
            return report, replay

        def check(result):
            report, replay = result
            got[key] = report.holds
            ok = replay and (report.holds or not bisimilar or key == "state")
            note = None
            if bisimilar and not report.holds and key == "state":
                note = (f"decide_state_based refutes a pair bisimilar by construction: "
                        f"{qbisim.pretty(c.term)} vs {qbisim.pretty(d.term)}")
            return ok, [key, report.mode, report.holds, replay], note

        return query, check

    def bound_query():
        bound = bisim.distance_upper_bound(c, d, system)
        replay = bisim.check_lambda_relation(bound.witness, bound.value, system,
                                             tol=REPLAY_TOL)
        return bound, replay

    def bound_check(result):
        bound, replay = result
        tol = system.tol
        ok = replay.holds
        ok &= (bound.value <= tol) == got["distribution"]   # bound <= tol iff bisimilar
        ok &= not got["state"] or got["distribution"]       # state-based is finer
        ok &= not bisimilar or bound.value <= tol
        return ok, ["bound", bound.mode, round(bound.value, 12), replay.holds], None

    return [relation_query(bisim.decide_state_based, "state"),
            relation_query(bisim.decide_bisim, "distribution"),
            (bound_query, bound_check)]


def _run(query, check) -> tuple:
    """(latency, ok, fingerprint, note) of one query; an exception is a
    wrong output, reported on stderr, not the end of the unit."""
    t = time.perf_counter()
    try:
        result = query()
        latency = time.perf_counter() - t
        ok, fingerprint, note = check(result)
    except Exception as exc:
        latency = time.perf_counter() - t
        traceback.print_exc(file=sys.stderr)
        return latency, False, ["error", type(exc).__name__], None
    return latency, bool(ok), fingerprint, note


SETUPS = {
    "bb84_security": _bb84_setup,
    "random_sequential": _corpus_setup,
    "random_concurrent": _corpus_setup,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--first", type=int, default=0, help="first corpus item")
    p.add_argument("--count", type=int, default=1, help="corpus items")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.perf_counter()
    qbisim = _import_program(os.getcwd())
    import_s = time.perf_counter() - start  # numpy included, as a user pays it
    # corpus generation is the benchmark's own work: keep it out of set-up
    import corpus
    args.items = []
    if args.workload in corpus.GENERATORS:
        args.items = [corpus.item(args.workload, args.seed, i)
                      for i in range(args.first, args.first + args.count)]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    build = time.perf_counter()
    queries = SETUPS[args.workload](qbisim, args)
    setup_s = import_s + time.perf_counter() - build
    record = {"setup_s": setup_s, "import_s": import_s}

    if not args.setup_only:
        runs = [_run(query, check) for query, check in queries]
        latencies = [latency for latency, _, _, _ in runs]
        record.update(
            wall_s=sum(latencies), latencies=latencies,
            ok=[ok for _, ok, _, _ in runs],
            fingerprints=[fingerprint for _, _, fingerprint, _ in runs],
            notes=[note for _, _, _, note in runs if note])
    # traced wall time: the program's own work, without corpus generation
    # and tracer installation
    record["total_s"] = import_s + time.perf_counter() - build
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["self_s"] = tracer.self_times()
        record["counts"] = tracer.counts()
        record["missing"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
