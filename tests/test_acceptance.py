"""End-to-end acceptance gate.

Each criterion is one test that prints a single [PASS]/[FAIL] line with
its wall time (run with -s to watch the scoreboard).  Refutations and
distance witnesses produced along the way are pooled and replayed
independently by the final criterion.
"""

import functools
import time
from fractions import Fraction
from math import comb

import numpy as np

import bb84_oracle
import randsys
from test_bb84 import SECURITY_FAIL, soundness_negative_control
from qbisim import bb84
from qbisim.bisim import (check_lambda_relation, decide_bisim,
                          decide_state_based, distance_upper_bound,
                          replay_refutation)
from qbisim.calculus import parse_module
from qbisim.lp import solve_nonneg
from qbisim.quantum import QubitRegister, QuantumState, builtin, trace_distance
from qbisim.semantics import System
from randsys import random_density, random_superoperator, random_unitary

F = Fraction

REFUTATIONS = []   # (CheckReport, system)
BOUNDS = []        # (DistanceBound, system)


def _gate(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {label} ({time.perf_counter() - t0:.1f}s)",
                      flush=True)
                raise
            print(f"[PASS] {label} ({time.perf_counter() - t0:.1f}s)",
                  flush=True)
        return run
    return wrap


# ---------------------------------------------------------------------------
# 1. the measurement/dephasing pair


@_gate("criterion 1: dephasing example discriminates the two equivalences")
def test_criterion_1():
    t0 = time.perf_counter()
    module = parse_module(
        "C(; q) := meas Mcomp[q; x] . nil\n"
        "D(; q) := apply Dephase[q] . nil\n")
    system = System(module, register=QubitRegister.of(["q"]))
    rho = QuantumState.product(system.register, {"q": "+"})
    c = system.config("C(; q)", rho)
    d = system.config("D(; q)", rho)

    assert decide_bisim(c, d, system).holds

    # the post-measurement mixture versus the dephased continuation
    (tc,) = system.step(c)
    (td,) = system.step(d)
    assert len(td.dist.support) == 1
    assert decide_bisim(tc.dist, td.dist, system).holds

    state_report = decide_state_based(c, d, system)
    assert not state_report.holds
    REFUTATIONS.append((state_report, system))

    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. protocol soundness


@_gate("criterion 2: bb84 soundness holds for n=1..3, mutant refuted")
def test_criterion_2():
    for n in (1, 2):
        assert bb84.verify_soundness(n, tol=1e-9).holds
    t3 = time.perf_counter()
    assert bb84.verify_soundness(3, tol=1e-9).holds
    assert time.perf_counter() - t3 < 300.0

    for n in (1, 2, 3):
        control = soundness_negative_control(n, tol=1e-9)
        assert not control.holds
        REFUTATIONS.append((control, bb84.build_bb84_test(n).system))


# ---------------------------------------------------------------------------
# 3. protocol security


@_gate("criterion 3: bb84 security bounds under c^n, oracle-exact at n=1 and n=3")
def test_criterion_3():
    for n in range(1, 31):
        bb84.security_bound(n)  # closed form agrees with the binomial sum

    cs = [bb84.security_bound(n) for n in (1, 2, 3)]
    assert cs[0] > cs[1] > cs[2]

    for n in (1, 2, 3):
        t0 = time.perf_counter()
        instance = bb84.build_bb84_security_test(n)
        p = bb84.forbidden_action_probability(instance)
        assert p <= cs[n - 1] + 1e-12
        bound = bb84.verify_security(n)
        assert bound.value <= cs[n - 1] + 1e-9
        BOUNDS.append((bound, instance.system))
        if n == 1:
            exact = bb84_oracle.security_outcomes(1)
            assert abs(p - float(exact["fail"] + exact["hacked"])) <= 1e-9
        if n == 3:
            assert abs(bound.value - float(SECURITY_FAIL[3])) <= 1e-9
            assert time.perf_counter() - t0 < 900.0


# ---------------------------------------------------------------------------
# 4. quantum algebra properties


@_gate("criterion 4: 500-sample quantum algebra properties within 1e-9")
def test_criterion_4():
    rng = np.random.default_rng(20260816)
    registers = [QubitRegister.of(["q1"]), QubitRegister.of(["q1", "q2"])]

    for _ in range(500):
        reg = registers[rng.integers(0, 2)]
        rho = random_density(rng, reg.dim)
        name = ("Mcomp", "Mdiag", "M_" + "".join(
            str(rng.integers(0, 2)) for _ in reg.names))[rng.integers(0, 3)]
        m = builtin(name)
        qubits = list(reg.names[:m.arity])
        total = sum(float((op @ rho @ op.conj().T).trace().real)
                    for _, op in m.embedded(reg, qubits))
        assert abs(total - 1.0) <= 1e-9

    for _ in range(500):
        reg = registers[rng.integers(0, 2)]
        rho = random_density(rng, reg.dim)
        if rng.random() < 0.5:
            sup = builtin(("H", "X", "Set0", "Set1", "Dephase")[rng.integers(0, 5)])
            qubits = [reg.names[rng.integers(0, reg.size)]]
        else:
            sup = random_superoperator(rng, reg.size)
            qubits = list(reg.names)
        out = sup.apply(rho, reg, qubits)
        assert abs(float(out.trace().real) - 1.0) <= 1e-9

    for _ in range(500):
        dim = (2, 4)[rng.integers(0, 2)]
        rho, sigma, tau = (random_density(rng, dim) for _ in range(3))
        d = trace_distance(rho, sigma)
        assert -1e-9 <= d <= 1.0 + 1e-9
        assert trace_distance(rho, rho) <= 1e-9
        assert abs(d - trace_distance(sigma, rho)) <= 1e-9
        assert d <= trace_distance(rho, tau) + trace_distance(tau, sigma) + 1e-9

    for _ in range(500):
        dim = (2, 4)[rng.integers(0, 2)]
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        u = random_unitary(rng, dim)
        rotated = trace_distance(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(rotated - trace_distance(rho, sigma)) <= 1e-9


# ---------------------------------------------------------------------------
# 5. lifting laws


def _lift_witness(pairs, mu, nu):
    """Feasibility oracle: transport weights on `pairs` or None."""
    left = sorted({s for s, _ in pairs} | set(mu))
    right = sorted({t for _, t in pairs} | set(nu))
    rows = [[F(int(s == ps)) for ps, _ in pairs] for s in left]
    rows += [[F(int(t == pt)) for _, pt in pairs] for t in right]
    rhs = [mu.get(s, F(0)) for s in left] + [nu.get(t, F(0)) for t in right]
    return solve_nonneg(rows, rhs)


def _random_member(rng, pairs):
    """A lifted pair constructed from explicit transport weights."""
    weights = [F(int(rng.integers(0, 4))) for _ in pairs]
    if sum(weights) == 0:
        weights[rng.integers(0, len(pairs))] = F(1)
    total = sum(weights)
    weights = [w / total for w in weights]
    mu, nu = {}, {}
    for (s, t), w in zip(pairs, weights):
        if w:
            mu[s] = mu.get(s, F(0)) + w
            nu[t] = nu.get(t, F(0)) + w
    return weights, mu, nu


@_gate("criterion 5: lifting is linear and left-decomposable on 200 samples")
def test_criterion_5():
    rng = np.random.default_rng(2121)
    for _ in range(200):
        na, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        pairs = sorted({(f"a{rng.integers(0, na)}", f"b{rng.integers(0, nb)}")
                        for _ in range(int(rng.integers(2, 7)))})

        # linearity: convex combinations of members stay inside the lifting
        _, mu1, nu1 = _random_member(rng, pairs)
        _, mu2, nu2 = _random_member(rng, pairs)
        p = F(int(rng.integers(1, 4)), 4)
        mix_mu = {s: p * mu1.get(s, F(0)) + (1 - p) * mu2.get(s, F(0))
                  for s in set(mu1) | set(mu2)}
        mix_nu = {t: p * nu1.get(t, F(0)) + (1 - p) * nu2.get(t, F(0))
                  for t in set(nu1) | set(nu2)}
        assert _lift_witness(pairs, mix_mu, mix_nu) is not None

        # left-decomposability: an arbitrary split of the left side induces
        # a matching split of the right side, each part a member again
        weights, mu, nu = _random_member(rng, pairs)
        cut = {s: F(int(rng.integers(0, 5)), 4) for s in mu}
        part1 = {s: cut[s] * v for s, v in mu.items() if cut[s]}
        part2 = {s: (1 - cut[s]) * v for s, v in mu.items() if cut[s] != 1}
        for part in (part1, part2):
            mass = sum(part.values())
            if not mass:
                continue
            sub_nu = {}
            for (s, t), w in zip(pairs, weights):
                if w and s in part:
                    sub_nu[t] = sub_nu.get(t, F(0)) + w * part[s] / mu[s]
            mu_i = {s: v / mass for s, v in part.items()}
            nu_i = {t: v / mass for t, v in sub_nu.items()}
            assert _lift_witness(pairs, mu_i, nu_i) is not None
        reassembled = {}
        for (s, t), w in zip(pairs, weights):
            for part in (part1, part2):
                if w and s in part:
                    reassembled[t] = reassembled.get(t, F(0)) + w * part[s] / mu[s]
        assert reassembled == nu


# ---------------------------------------------------------------------------
# 6. inclusion, kernel, and equivalence on random systems


@_gate("criterion 6: inclusion/kernel/equivalence on 100 random systems")
def test_criterion_6():
    rng = np.random.default_rng(424242)
    accepted = 0
    while accepted < 100:
        system, state = randsys.random_system(rng)
        base = randsys.random_term(rng, 3)
        other = randsys.random_term(rng, 2)
        variant = randsys.variants(base)[1 + int(rng.integers(0, 2))]
        c = system.config(base, state)
        d = system.config(variant, state)
        e = system.config(other, state)
        if len(system.reachable([c, d, e])) > 30:
            continue
        accepted += 1

        for x, y in ((c, d), (c, e)):
            sb = decide_state_based(x, y, system)
            db = decide_bisim(x, y, system)
            if sb.holds:                       # state-based is the finer one
                assert db.holds
            bound = distance_upper_bound(x, y, system)
            if db.holds:
                assert bound.value <= system.tol
            else:
                assert bound.value > system.tol
                REFUTATIONS.append((db, system))
            BOUNDS.append((bound, system))

        if accepted % 3 == 0:
            assert decide_bisim(c, c, system).holds
            ab = decide_bisim(c, d, system)
            ba = decide_bisim(d, c, system)
            assert ab.holds == ba.holds
            if ab.holds and decide_bisim(d, e, system).holds:
                assert decide_bisim(c, e, system).holds


# ---------------------------------------------------------------------------
# 7. everything replays


@_gate("criterion 7: all refutations and distance witnesses re-verify")
def test_criterion_7():
    if not REFUTATIONS or not BOUNDS:   # criteria can run in isolation
        system = System(parse_module("Dummy := nil"),
                        register=QubitRegister.of(["q1"]))
        rho = QuantumState.product(system.register)
        c = system.config("a!0 . nil", rho)
        d = system.config("a!1 . nil", rho)
        REFUTATIONS.append((decide_bisim(c, d, system), system))
        BOUNDS.append((distance_upper_bound(c, d, system), system))

    assert len(REFUTATIONS) >= 5
    assert len(BOUNDS) >= 5
    for report, system in REFUTATIONS:
        assert not report.holds
        assert replay_refutation(report, system)
    for bound, system in BOUNDS:
        check = check_lambda_relation(bound.witness, bound.value, system,
                                      tol=1e-7)
        assert check.holds, check.detail
