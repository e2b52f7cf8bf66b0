"""Bisimulation checking: consistency, relations, decisions, distances."""

import dataclasses
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qbisim.calculus import Channel, parse_module
from qbisim.errors import (BudgetExceededError, ChannelDomainError, CyclicModelError,
                           QuantumInputFragmentError)
from qbisim.quantum import QubitRegister, QuantumState, _matrix_digest
from qbisim import bisim
from qbisim.lp import combination_weights
from qbisim.semantics import PLTS, ConfigDistribution, Label, System, TAU
from qbisim.bisim import (
    CheckReport,
    DistanceBound,
    RelationCandidate,
    check_ground_bisim_relation,
    check_lambda_relation,
    confluence_check,
    decide_bisim,
    decide_state_based,
    distance_upper_bound,
    is_transition_consistent,
    replay_refutation,
    tc_decompose,
)
from qbisim.bisim import _config_sat, _refine, _strong_attacks

import randsys
from randsys import random_density

R1 = QubitRegister.of(["q1"])
R2 = QubitRegister.of(["q1", "q2"])


def fresh(register=R1):
    return System(parse_module("Dummy := nil"), register=register)


def ground(register=R1, **assignment):
    return QuantumState.product(register, assignment or None)


def stepped(system):
    """The configurations `system` has interned and stepped."""
    return [c for table in system._configs.values() for c in table.values()
            if c.moves is not None]


@pytest.fixture(scope="module")
def dephasing():
    """The measurement-versus-dephasing pair: distribution-bisimilar,

    state-distinguishable.  C measures q1 of |+><+| (x) rho, D applies the
    dephasing channel; mu is C's successor distribution and CI is D's.
    """
    s = fresh(R2)
    st = QuantumState.product(R2, {"q1": "+", "q2": "+"})
    C = s.config("meas Mcomp[q1; x] . nil", st)
    D = s.config("apply Dephase[q1] . nil", st)
    mu = s.step(C)[0].dist
    CI = s.step(D)[0].dist
    return s, C, D, mu, CI


class TestTransitionConsistency:
    def test_point_distributions_are_consistent(self):
        s = fresh()
        c = s.config("fail!0 . nil", ground())
        assert is_transition_consistent(s.dirac(c), s)

    def test_measurement_outcomes_with_equal_behaviour(self, dephasing):
        s, _, _, mu, _ = dephasing
        assert is_transition_consistent(mu, s)

    def test_differing_enabled_sets(self):
        s = fresh()
        f = s.config("fail!0 . nil", ground())
        n = s.config("nil", ground())
        mix = s.combine([(0.5, s.dirac(f)), (0.5, s.dirac(n))])
        assert not is_transition_consistent(mix, s)

    def test_weakly_enabled_counts(self):
        # tau . fail!0 and fail!0 share a signature despite distinct strong moves
        s = fresh()
        f = s.config("fail!0 . nil", ground())
        t = s.config("tau . fail!0 . nil", ground())
        mix = s.combine([(0.5, s.dirac(f)), (0.5, s.dirac(t))])
        assert is_transition_consistent(mix, s)


class TestTcDecompose:
    def test_consistent_input_is_one_class(self, dephasing):
        s, _, _, mu, _ = dephasing
        dec = tc_decompose(mu, s)
        assert len(dec.classes) == 1
        assert dec.classes[0].weight == pytest.approx(1.0)

    def test_grouping_by_signature(self):
        s = fresh()
        f = s.config("fail!0 . nil", ground())
        n1 = s.config("nil", ground())
        n2 = s.config("nil", np.diag([0.5, 0.5]).astype(complex))
        mix = s.combine([(0.5, s.dirac(f)), (0.25, s.dirac(n1)), (0.25, s.dirac(n2))])
        dec = tc_decompose(mix, s)
        got = {tuple(sorted(str(l) for l in c.signature)): c.weight
               for c in dec.classes}
        assert got == {(): pytest.approx(0.5), ("fail!0",): pytest.approx(0.5)}

    def test_recombination_and_distinct_signatures(self):
        s = fresh()
        f = s.config("fail!0 . nil", ground())
        n = s.config("nil", ground())
        mix = s.combine([(0.75, s.dirac(f)), (0.25, s.dirac(n))])
        dec = tc_decompose(mix, s)
        assert sum(c.weight for c in dec.classes) == pytest.approx(1.0)
        rebuilt = s.combine([(c.weight, c.dist) for c in dec.classes])
        assert rebuilt.digest == mix.digest
        sigs = [c.signature for c in dec.classes]
        assert len(sigs) == len(set(sigs))
        for c in dec.classes:
            assert is_transition_consistent(c.dist, s)

    def test_json_shape(self):
        s = fresh()
        f = s.config("fail!0 . nil", ground())
        payload = tc_decompose(s.dirac(f), s).to_json()
        assert payload["classes"][0]["signature"] == ["fail!0"]
        json.dumps(payload)


class TestGroundRelationCheck:
    def test_identity_pair_holds(self):
        s = fresh()
        n = s.config("nil", ground())
        report = check_ground_bisim_relation([(s.dirac(n), s.dirac(n))], s)
        assert report.holds

    def test_dephasing_relation_holds(self, dephasing):
        s, _, _, mu, CI = dephasing
        report = check_ground_bisim_relation([(mu, CI), (CI, CI)], s)
        assert report.holds
        assert report.mode == "saturated"

    def test_engines_agree_on_dephasing(self, dephasing):
        s, _, _, mu, CI = dephasing
        rel = [(mu, CI), (CI, CI)]
        assert check_ground_bisim_relation(rel, s, mode="exhaustive").holds
        report = check_ground_bisim_relation(rel, s)
        assert report.holds
        assert report.mode == "saturated"

    def test_unmatched_output_fails_clause_ii(self):
        s = fresh()
        c = s.config("c!0 . nil", ground())
        n = s.config("nil", ground())
        report = check_ground_bisim_relation([(s.dirac(c), s.dirac(n))], s)
        assert not report.holds
        assert report.clause == "ii"
        assert str(report.label) == "c!0"
        assert replay_refutation(report, s)

    def test_empty_relation_is_vacuous(self):
        s = fresh()
        assert check_ground_bisim_relation([], s).holds

    def test_quantum_input_relation_checks_exhaustively(self):
        # the pair only differs by internal padding after the receive, but a
        # visible quantum input leaves the super-operator clause unproved,
        # so neither engine returns a verdict
        s = fresh()
        a = s.config("#c?q . d!0 . nil", ground())
        b = s.config("#c?q . tau . d!0 . nil", ground())
        after_a = s.step(a)[0].dist
        after_b = s.step(b)[0].dist
        rel = [(s.dirac(a), s.dirac(b)), (after_a, after_b)]
        for mode in ("auto", "exhaustive"):
            with pytest.raises(QuantumInputFragmentError):
                check_ground_bisim_relation(rel, s, mode=mode)

    def test_state_dependent_quantum_input_is_refused(self):
        """Why a relation with visible quantum input gets no verdict.

        A receive-then-measure process equals a receive-then-announce-zero
        process exactly when the incoming qubit is |0>: the family below
        passes every clause the checkers test, yet an X flip on the unheld
        q1 breaks it (the flipped family fails clause (ii)).  The closure
        under super-operators is proved only without visible quantum input
        (the `bisim` module docstring), so both families are refused.
        """
        s = fresh()

        def family(bit):
            st = ground(q1=bit)
            a = s.config(
                "#c?y . meas Mcomp[y; x] . "
                "( if x = 0 then d!0 . nil else d!1 . nil )", st)
            b = s.config("#c?y . meas Mcomp[y; x] . d!0 . nil", st)
            after_a = s.step(a)[0].dist
            after_b = s.step(b)[0].dist
            tail_a = s.step(after_a.support[0])[0].dist
            tail_b = s.step(after_b.support[0])[0].dist
            return [(s.dirac(a), s.dirac(b)), (after_a, after_b),
                    (tail_a, tail_b)]

        for bit in ("0", "1"):
            with pytest.raises(QuantumInputFragmentError):
                check_ground_bisim_relation(family(bit), s)

    def test_exhaustive_mode_does_not_explore_the_reach(self):
        # the reach is infinite; the pair's matches need three configurations
        s = System(parse_module("Grow(n;) := c!n . Grow(n + 1;)"), register=R1)
        grow = s.config("Grow(0;)", ground())
        padded = s.config("tau . Grow(0;)", ground())
        report = check_ground_bisim_relation([(grow, padded)], s, mode="exhaustive")
        assert report.holds
        assert len(stepped(s)) == 3

    def test_refutation_with_deeper_quantum_input_replays(self):
        # the quantum input sits past the refuting move; relation search
        # refuses the reach, so the replay stands on the checked move
        s = fresh()
        sender = s.config("c!0 . #d?q . nil", ground())
        report = check_ground_bisim_relation([(sender, s.config("nil", ground()))], s)
        assert (report.holds, report.clause, str(report.label)) == (False, "ii", "c!0")
        assert replay_refutation(report, s)

    def test_report_json_round_trips(self):
        s = fresh()
        c = s.config("c!0 . nil", ground())
        n = s.config("nil", ground())
        report = check_ground_bisim_relation([(s.dirac(c), s.dirac(n))], s)
        payload = json.loads(report.to_json_str())
        assert payload["verdict"] == "fails"
        assert payload["clause"] == "ii"
        assert payload["label"] == "c!0"
        assert payload["attack"]


class TestDephasingEquivalences:
    """The fixed separating example: C ~ D at distribution level only."""

    def test_distribution_bisimilar(self, dephasing):
        s, C, D, _, _ = dephasing
        report = decide_bisim(C, D, s)
        assert report.holds
        assert report.mode == "canonical"

    def test_successor_matches_the_collapsed_config(self, dephasing):
        s, _, _, mu, CI = dephasing
        assert decide_bisim(mu, CI, s).holds

    def test_not_state_based_bisimilar(self, dephasing):
        s, C, D, _, _ = dephasing
        report = decide_state_based(C, D, s)
        assert not report.holds
        assert report.clause == "ii"
        assert report.label == TAU
        assert replay_refutation(report, s)

    def test_state_based_reflexive(self, dephasing):
        s, C, _, _, _ = dephasing
        assert decide_state_based(C, C, s).holds

    def test_decision_witness_re_verifies(self, dephasing):
        s, C, D, _, _ = dephasing
        report = decide_bisim(C, D, s)
        assert check_ground_bisim_relation(report.witness, s).holds

    def test_state_based_witness_re_verifies(self, dephasing):
        s, C, _, _, _ = dephasing
        report = decide_state_based(C, C, s)
        assert check_ground_bisim_relation(report.witness, s).holds

    def test_distance_is_zero(self, dephasing):
        s, C, D, _, _ = dephasing
        bound = distance_upper_bound(C, D, s)
        assert bound.value == 0.0
        assert check_lambda_relation(bound.witness, 0.0, s).holds

    def test_environment_mismatch_refutes_states(self):
        s = fresh()
        a = s.config("nil", ground())
        b = s.config("nil", np.diag([0.5, 0.5]).astype(complex))
        report = decide_state_based(a, b, s)
        assert not report.holds
        assert report.clause == "i"
        assert replay_refutation(report, s)


class TestDecide:
    def test_distinct_outputs_refuted(self):
        s = fresh()
        a = s.config("c!0 . nil", ground())
        b = s.config("c!1 . nil", ground())
        report = decide_bisim(a, b, s)
        assert not report.holds
        assert report.clause == "ii"
        assert str(report.label) in ("c!0", "c!1")
        assert replay_refutation(report, s)

    def test_measurement_equals_probabilistic_choice_after_reset(self):
        # resetting the measured qubit hides the post-measurement state, so
        # outcome announcement and a fair coin are indistinguishable
        s = fresh()
        st = ground(q1="+")
        m = s.config("meas Mcomp[q1; x] . apply Set0[q1] . a!x . nil", st)
        p = s.config(
            "pchoice { 1/2 -> apply Set0[q1] . a!0 . nil"
            " ; 1/2 -> apply Set0[q1] . a!1 . nil }", st)
        assert decide_bisim(m, p, s).holds
        assert decide_bisim(m, p, s, mode="relation-search").holds

    def test_linearity_on_mixtures(self, dephasing):
        s, C, D, mu, CI = dephasing
        left = s.combine([(0.3, s.dirac(C)), (0.7, mu)])
        right = s.combine([(0.3, s.dirac(D)), (0.7, CI)])
        assert decide_bisim(left, right, s).holds

    def test_nondeterministic_identity_uses_relation_search(self):
        s = fresh()
        nd = s.config("tau . c!0 . nil + tau . c!1 . nil", ground())
        report = decide_bisim(nd, nd, s)
        assert report.holds
        assert report.mode == "relation-search"
        assert check_ground_bisim_relation(report.witness, s).holds

    def test_nondeterministic_refutation(self):
        s = fresh()
        nd = s.config("tau . c!0 . nil + tau . c!1 . nil", ground())
        half = s.config("tau . c!0 . nil", ground())
        report = decide_bisim(nd, half, s)
        assert not report.holds
        assert replay_refutation(report, s)

    def test_visible_quantum_input_rejected(self):
        s = fresh()
        qin = s.config("#c?q . nil", ground())
        with pytest.raises(QuantumInputFragmentError):
            decide_bisim(qin, qin, s)

    def test_restricted_quantum_input_is_internal(self):
        s = fresh()
        cfg = s.config("( #c!q1 . nil || #c?q . d!0 . nil ) \\ {#c}", ground())
        report = decide_bisim(cfg, cfg, s)
        assert report.holds
        for mode in ("auto", "exhaustive"):
            assert check_ground_bisim_relation(report.witness, s, mode=mode).holds

    def test_cycle_rejected(self):
        s = System(parse_module("Loop := tau . Loop"), register=R1)
        cfg = s.config("Loop(;)", ground())
        with pytest.raises(CyclicModelError):
            decide_bisim(cfg, cfg, s)

    def test_unknown_mode_rejected(self):
        s = fresh()
        n = s.config("nil", ground())
        with pytest.raises(ValueError):
            decide_bisim(n, n, s, mode="guess")

    def test_unknown_mode_rejected_before_exploring(self):
        """On a cyclic system a bad mode is a ValueError, not the cycle
        error that exploring first would raise, and nothing is stepped."""
        s = System(parse_module("Loop := tau . Loop"), register=R1)
        cfg = s.config("Loop(;)", ground())
        for mode in ("bogus", "canonical"):
            with pytest.raises(ValueError):
                decide_bisim(cfg, cfg, s, mode=mode)
        for mode in ("bogus", "saturated"):
            with pytest.raises(ValueError):
                check_lambda_relation([(cfg, cfg)], 0.0, s, mode=mode)
        assert stepped(s) == []


class TestInternalChains:
    """Canonical saturation, the weak moves and the canonical walk are folds
    on an explicit stack (`qbisim.semantics.fold`), not one Python frame
    per step, so chains deeper than the interpreter's stack limit are
    decided by every entry point.  An internal cycle still raises, keeping
    no saturation, and a fold that raises leaves nothing open behind it."""

    CHAIN = "T(n;) := if n < 2000 then ( tau . T(n + 1;) ) else ( a!0 . nil )"
    VISIBLE = "Chain(n;) := if n < 2000 then ( a!0 . Chain(n + 1;) )"

    def test_a_chain_of_2000_internal_steps_is_decided(self):
        s = System(parse_module(self.CHAIN), register=R1)
        c, d = s.config("T(0;)", ground()), s.config("a!0 . nil", ground())
        report = decide_bisim(c, d, s)
        assert (report.holds, report.mode) == (True, "canonical")
        bound = distance_upper_bound(c, d, s)
        assert (bound.value, bound.mode) == (0.0, "canonical")
        links = [c]
        while s.tau_transitions(links[-1]):
            links.append(s.step(links[-1])[0].target)
        assert len(links) == 2001
        sat = s.dirac(links[-1])
        assert all(_config_sat(s, x) is sat for x in links)

    @pytest.mark.parametrize("source", [
        "L := tau . M\nM := tau . L",
        "L := tau . pchoice { 1/2 -> tau . L ; 1/2 -> nil }",
    ])
    def test_an_internal_cycle_raises_and_keeps_nothing(self, source):
        s = System(parse_module(source), register=R1)
        c = s.config("L(;)", ground())
        for _ in range(2):
            with pytest.raises(CyclicModelError):
                _config_sat(s, c)
            assert all(x.sat is None for x in stepped(s))
        with pytest.raises(CyclicModelError):
            decide_bisim(c, c, s)

    def test_a_chain_of_2000_visible_steps_is_decided(self):
        s = System(parse_module(self.VISIBLE), register=R1)
        c, d = s.config("Chain(0;)", ground()), s.config("tau . Chain(0;)", ground())
        report = decide_bisim(c, d, s)
        assert (report.holds, report.mode) == (True, "canonical")
        bound = distance_upper_bound(c, d, s)
        assert (bound.value, bound.mode) == (0.0, "canonical")
        for witness, lam in ((report.witness, 0.0), (bound.witness, bound.value)):
            assert len(witness.pairs) == 2002
            for mode in ("auto", "exhaustive"):
                assert check_lambda_relation(witness, lam, s, mode=mode).holds

    def test_weak_moves_down_a_chain_of_2000_internal_steps(self):
        # each link adds one halting point to the extremes below it; a
        # point move merges its target's extremes for one work unit, so
        # the 2000 links cost 2000 units, not 2000 * 2001 / 2
        s = System(parse_module(self.CHAIN), register=R1)
        c = s.config("T(0;)", ground())
        assert [str(l) for l in s.weak_enabled(c)] == ["a!0"]
        assert len(s.weak_extremes(c, TAU)) == 2001
        assert s.work == 2000

    def test_a_chain_of_500_internal_steps_is_decided_state_based(self):
        s = System(parse_module(self.CHAIN.replace("2000", "500")), register=R1)
        c, d = s.config("T(0;)", ground()), s.config("a!0 . nil", ground())
        report = decide_state_based(c, d, s)
        assert (report.holds, report.mode) == (True, "state-based")

    def test_a_chain_of_2000_internal_steps_stops_at_the_budget_state_based(self):
        # its 2,003 configurations make about 2 million candidate pairs,
        # charged in one product before the first one is built
        s = System(parse_module(self.CHAIN), register=R1, budget=100_000)
        c, d = s.config("T(0;)", ground()), s.config("a!0 . nil", ground())
        with pytest.raises(BudgetExceededError):
            decide_state_based(c, d, s)
        n = len(s.reachable([c, d]))
        assert n == 2003
        assert s.work >= n * (n - 1) // 2

    def test_a_fold_that_raises_leaves_nothing_open(self):
        # the chain ends in a visible input on a channel with no domain
        s = System(parse_module("U(n;) := if n < 3 then ( tau . U(n + 1;) ) else ( c?x . nil )"),
                   register=R1)
        c = s.config("U(0;)", ground())
        for ask in (s.weak_enabled, lambda c: s.weak_extremes(c, TAU),
                    lambda c: _config_sat(s, c)):
            for _ in range(2):
                with pytest.raises(ChannelDomainError):
                    ask(c)


class TestSaturationFromTheWalk:
    """The walk that proves a reach (`_prepare`) sets each configuration's
    first-choice saturation from its successors', and `_config_sat` reads
    it: every one is the saturation a plain recursion gives."""

    @staticmethod
    def first_choice(system, config, memo):
        """The first-choice saturation of `config`, by recursion: index ->
        probability."""
        got = memo.get(config.index)
        if got is None:
            taus = [t for t in system.step(config) if not t.label.visible]
            got = {config.index: 1.0}
            if taus:
                got = {}
                for d, p in taus[0].dist:
                    for i, q in TestSaturationFromTheWalk.first_choice(system, d, memo).items():
                        got[i] = got.get(i, 0.0) + float(p) * q
            memo[config.index] = got
        return got

    def assert_matches(self, system, roots):
        memo = {}
        configs = system.reachable(roots)
        for c in configs:
            want = tuple(sorted((i, round(p, 10))
                                for i, p in self.first_choice(system, c, memo).items()))
            assert _config_sat(system, c).digest == want, repr(c)
        return len(configs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_bb84(self, n):
        from qbisim.bb84 import build_bb84_security_test
        instance = build_bb84_security_test(n)
        roots = instance.root.support + instance.ideal.support
        assert self.assert_matches(instance.system, roots) == {1: 285, 2: 6728}[n]

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        system, rho = randsys.random_system(rng, randsys.REGISTER2)
        roots = [system.config(randsys.random_term(rng, 4), rho),
                 system.config(randsys.random_par_term(rng, 2), rho),
                 system.config(randsys.random_nested_term(
                     rng, randsys.NESTED_SHAPES[seed % len(randsys.NESTED_SHAPES)]), rho)]
        assert self.assert_matches(system, roots) >= len(roots)

    def test_a_point_chain_shares_its_end(self):
        s = fresh()
        c = s.config("tau . tau . pchoice { 1/2 -> a!0 . nil ; 1/2 -> tau . b!0 . nil }",
                     ground())
        mid = s.step(c)[0].target
        assert _config_sat(s, c) is _config_sat(s, mid) is s.step(mid)[0].target.sat

    @pytest.mark.parametrize("label", [TAU, Label(Label.OUT, Channel("a"), 0)])
    @pytest.mark.parametrize("source, root", [
        ("L := tau . M\nM := tau . L + a!0 . nil", "L(;)"),          # a cycle
        ("Grow(n;) := a!n . Grow(n + 1;)", "tau . Grow(0;)"),        # no end
    ])
    def test_attack_evidence_outside_a_proved_reach_is_false(self, label, source, root):
        s = System(parse_module(source), register=R1)
        attacker = s.dirac(s.config(root, ground()))
        target = s.dirac(s.config("nil", ground()))
        assert bisim._attack_exists(s, attacker, label, target) is False

    def test_attack_evidence_on_a_quantum_input_is_false(self):
        # the attack is no strong move of the attacker, so only canonical
        # evidence could match it, and no engine gives that here
        s = fresh(R2)
        x = s.dirac(s.config("tau . tau . #c?r . nil", ground(R2)))
        y = s.dirac(s.config("nil", ground(R2)))
        attack = s.dirac(s.config("#c?r . nil", ground(R2)))
        assert not bisim._attack_exists(s, x, TAU, attack)
        report = CheckReport(holds=False, mode="exhaustive", clause="ii", pair=(x, y),
                             direction="left", label=TAU, attack=attack, lam=0.0)
        assert replay_refutation(report, s) is False


class TestDuplicatedMeasurement:
    """A measurement chain against a fair choice between two copies of itself.

    The pair is state-based bisimilar by construction (probabilistic
    duplication), so both deciders should hold.
    """

    TERM = "meas Mcomp[q1; x] . meas Mcomp[q1; y] . nil"

    def pair(self):
        s = fresh()
        rho = random_density(np.random.default_rng(3), 2)
        c = s.config(self.TERM, rho)
        d = s.config(f"pchoice {{ 1/2 -> {self.TERM} ; 1/2 -> {self.TERM} }}", rho)
        return s, c, d

    def test_distribution_bisimilar(self):
        s, c, d = self.pair()
        assert decide_bisim(c, d, s).holds

    def test_state_based_bisimilar(self):
        s, c, d = self.pair()
        assert decide_state_based(c, d, s).holds


class TestNonDyadicWeights:
    """Weights with no exact float, against the same mass spread otherwise.

    A nested choice and its flattening are distribution bisimilar; they are
    not state-based bisimilar, since the inner choice is a state the flat
    term has no partner for (the dyadic control gets the same verdict).
    Merging branches only regroups the mass, so every engine holds.
    """

    FLAT = "pchoice {{ {} -> a!0 . nil ; {} -> b!0 . nil ; {} -> c!0 . nil }}"
    NESTED = "pchoice {{ {} -> pchoice {{ {} -> a!0 . nil ; {} -> b!0 . nil }} ; {} -> c!0 . nil }}"
    PAIRS = {
        "tenths": (NESTED.format("1/10", "3/10", "7/10", "9/10"),
                   FLAT.format("3/100", "7/100", "9/10"), False),
        "thirds": (NESTED.format("1/3", "1/3", "2/3", "2/3"),
                   FLAT.format("1/9", "2/9", "2/3"), False),
        "halves": (NESTED.format("1/2", "1/2", "1/2", "1/2"),
                   FLAT.format("1/4", "1/4", "1/2"), False),
        "merged": ("pchoice { 1/10 -> a!0 . nil ; 1/5 -> b!0 . nil ; 7/10 -> a!0 . nil }",
                   "pchoice { 4/5 -> a!0 . nil ; 1/5 -> b!0 . nil }", True),
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_verdicts(self, name):
        left, right, state_based = self.PAIRS[name]
        s = fresh()
        rho = random_density(np.random.default_rng(3), 2)
        c, d = s.config(left, rho), s.config(right, rho)
        assert decide_bisim(c, d, s).holds
        sb = decide_state_based(c, d, s)
        assert sb.holds == state_based
        if not sb.holds:
            assert replay_refutation(sb, s)
        json.loads(sb.to_json_str())
        bound = distance_upper_bound(c, d, s)
        assert bound.value == 0.0
        assert check_lambda_relation(bound.witness, 0.0, s).holds
        json.loads(bound.to_json_str())

    def test_products_of_weights_are_exact(self):
        s = fresh()
        c = s.config(self.PAIRS["tenths"][0], ground())
        probs = {tuple(sorted(e.probs.values())) for e in s.weak_extremes(c, TAU)}
        assert (Fraction(3, 100), Fraction(7, 100), Fraction(9, 10)) in probs


class TestMeasuredThirds:
    """A measurement against a 1/3-2/3 choice between itself and itself
    after a silent step.

    State-based bisimilar by construction, but 1/3 p + 2/3 p need not
    equal p in floats for a measured p.  (Two plain copies of the term
    are one configuration, so the choice between them steps to a point.)
    """

    TERM = "meas Mcomp[q1; x] . c!x . nil"

    def pair(self):
        s = fresh()
        rho = random_density(np.random.default_rng(3), 2)
        c = s.config(self.TERM, rho)
        d = s.config(f"pchoice {{ 1/3 -> {self.TERM} ; 2/3 -> tau . {self.TERM} }}", rho)
        return s, c, d

    def test_distribution_bisimilar(self):
        s, c, d = self.pair()
        assert decide_bisim(c, d, s).holds
        assert distance_upper_bound(c, d, s).value == 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "the measured weak move of the twin carries 1/3 p + 2/3 p in floats, "
        "which the exact LP reads as different from the attack's p"))
    def test_state_based_bisimilar(self):
        s, c, d = self.pair()
        assert decide_state_based(c, d, s).holds

    def test_the_false_refutation_has_a_certificate(self):
        """The certificate is checked against the float probabilities the
        engine used, where the defect lies, so it verifies; it says so."""
        s, c, d = self.pair()
        report = decide_state_based(c, d, s)
        assert not report.holds and report.certificate.entries
        assert replay_refutation(report, s)
        assert "exact relative to the float probabilities" in report.certificate.detail


class TestMarginPair:
    """Four `a!k . nil` branches at weights 1/4 +- d/(4 10^9) against the
    uniform four-way choice.  Every class weight is within the tolerance
    (1e-9) of its partner's, but the mass the classes leave unmatched,
    1 - sum(min(wl, wr)), is 2 d/(4 10^9): within it for d = 1, past it for
    d = 3."""

    def pair(self, d):
        s = fresh()
        hi, lo = f"{10**9 + d}/{4 * 10**9}", f"{10**9 - d}/{4 * 10**9}"
        p = s.config(f"pchoice {{ {hi} -> a!0 . nil ; {hi} -> a!1 . nil ; "
                     f"{lo} -> a!2 . nil ; {lo} -> a!3 . nil }}", ground())
        q = s.config("pchoice { 1/4 -> a!0 . nil ; 1/4 -> a!1 . nil ; "
                     "1/4 -> a!2 . nil ; 1/4 -> a!3 . nil }", ground())
        return s, p, q

    def test_unmatched_mass_past_the_tolerance_refutes(self):
        s, p, q = self.pair(3)
        report = decide_bisim(p, q, s)
        assert (report.mode, report.holds, report.clause) == ("canonical", False, "iii")
        assert replay_refutation(report, s)
        assert distance_upper_bound(p, q, s).value == 1.500000013088254e-09

    def test_unmatched_mass_within_the_tolerance_holds(self):
        s, p, q = self.pair(1)
        report = decide_bisim(p, q, s)
        assert (report.mode, report.holds) == ("canonical", True)
        assert check_ground_bisim_relation(report.witness, s).holds

    @pytest.mark.xfail(strict=True, reason=(
        "numeric identity: the exact LP reads the sub-tolerance weight gaps as "
        "real, so the strong tau move has no weak match in the closure"))
    def test_refinement_engines_hold_within_the_tolerance(self):
        s, p, q = self.pair(1)
        assert [decide_bisim(p, q, s, mode="relation-search").holds,
                decide_state_based(p, q, s).holds] == [True, True]


class TestDuplicationTwins:
    """A term against a fair choice between two copies of itself.

    The copies are one configuration, so the choice steps to a point and
    the engines compare the term with itself.  While they stayed apart,
    each pair below took over 2,000 work units and over 10 seconds, over
    1.7 to 2.6 times the configurations; the budget pins the difference.
    """

    BUDGET = 500

    COUPLED = ("( meas Mcomp[q1; x1] . meas Mcomp[q1; x2] . a!x2 . #m!q1 . nil "
               "|| pchoice { 1/2 -> #m?r . nil ; 1/2 -> #m?r . nil } ) \\ {#m}")

    def test_coupled_twin_is_decided_quickly(self):
        system, state = randsys.random_system(
            np.random.default_rng(20261018), randsys.REGISTER2)
        system.budget = self.BUDGET
        c = system.config(self.COUPLED, state)
        d = system.config(randsys.variants(self.COUPLED)[2], state)
        report = decide_bisim(c, d, system)
        assert report.holds and report.mode == "relation-search"
        assert check_ground_bisim_relation(report.witness, system).holds
        bound = distance_upper_bound(c, d, system)
        assert bound.value == 0.0
        assert check_lambda_relation(bound.witness, 0.0, system).holds

    def test_wide_twin_is_state_based_bisimilar(self):
        rng = np.random.default_rng(2)
        system, state = randsys.random_system(rng, randsys.REGISTER2)
        system.budget = self.BUDGET
        base = randsys.random_wide_term(rng)
        c = system.config(base, state)
        d = system.config(randsys.variants(base)[2], state)
        report = decide_state_based(c, d, system)
        assert report.holds
        assert check_ground_bisim_relation(report.witness, system).holds


class TestRelationSearchFamily:
    """A measurement against the same measurement made twice.

    The pair is bisimilar: measuring a collapsed qubit again changes
    nothing but how long the qubit stays held.  The bisimulation needs
    partly progressed distributions (one outcome has measured again, the
    other not yet), which the family of lifted strong moves holds and the
    relation-search family does not.
    """

    def pair(self):
        s = fresh()
        rho = random_density(np.random.default_rng(0), 2)
        c = s.config("meas Mcomp[q1; x] . nil", rho)
        d = s.config("meas Mcomp[q1; x] . meas Mcomp[q1; y] . nil", rho)
        return s, s.dirac(c), s.dirac(d)

    def test_lifted_move_family_proves_it(self):
        s, mu, nu = self.pair()
        family = {}
        todo = [mu, nu]
        while todo:
            x = todo.pop()
            if x.digest not in family:
                family[x.digest] = x
                todo += [moved for _, moved in _strong_attacks(s, x, {})]
        members = sorted(family.values(), key=lambda m: m.digest)
        report = _refine(s, members, mu, nu, s.tol, "lifted-moves")
        assert report.holds
        assert check_ground_bisim_relation(report.witness, s, mode="exhaustive").holds
        assert decide_bisim(mu, nu, s).holds

    @pytest.mark.xfail(strict=True, reason=(
        "the relation-search family holds one-step targets but not the partly "
        "progressed distributions the bisimulation needs"))
    def test_relation_search_holds(self):
        s, mu, nu = self.pair()
        assert decide_bisim(mu, nu, s, mode="relation-search").holds


class TestWorkBudget:
    """`System.work` counts per query: the outermost engine call starts it
    from zero, and calls nested in one query share its budget."""

    LEFT = "tau . meas Mcomp[q1; x] . tau . nil || tau . nil"
    RIGHT = "apply Dephase[q1] . tau . tau . nil || tau . nil"

    def pair(self, budget=2_000_000):
        s = System(parse_module("Dummy := nil"), register=R2, budget=budget)
        st = QuantumState.product(R2, {"q1": "+", "q2": "+"})
        return s, s.config(self.LEFT, st), s.config(self.RIGHT, st)

    def one_query_cost(self):
        s, c, d = self.pair()
        assert decide_bisim(c, d, s).holds
        assert s.work > 1
        return s.work

    def test_long_lived_system_repeats_a_query(self):
        cost = self.one_query_cost()
        s, c, d = self.pair(budget=cost + 1)
        for _ in range(2):
            assert decide_bisim(c, d, s).holds
            assert s.work == cost

    def test_nested_queries_share_one_budget(self):
        cost = self.one_query_cost()
        s, c, d = self.pair(budget=cost + 1)
        with s.query():
            assert decide_bisim(c, d, s).holds
            with pytest.raises(BudgetExceededError):
                decide_bisim(c, d, s)
        assert decide_bisim(c, d, s).holds


class TestLambdaRelations:
    def test_environment_threshold(self):
        # diag(.55,.45) vs diag(.45,.55) sit at trace distance exactly 0.1
        s = fresh()
        a = s.config("nil", np.diag([0.55, 0.45]).astype(complex))
        b = s.config("nil", np.diag([0.45, 0.55]).astype(complex))
        rel = [(s.dirac(a), s.dirac(b))]
        assert check_lambda_relation(rel, 0.1, s).holds
        report = check_lambda_relation(rel, 0.05, s)
        assert not report.holds
        assert report.clause == "i"

    def test_ground_relation_holds_at_zero(self, dephasing):
        s, _, _, mu, CI = dephasing
        assert check_lambda_relation([(mu, CI), (CI, CI)], 0.0, s).holds

    def test_lambda_range_validated(self):
        s = fresh()
        with pytest.raises(ValueError):
            check_lambda_relation([], 1.5, s)

    def test_unmatched_mass_threshold(self):
        # 3/4 a!0 + 1/4 stall against a fair coin leaves mass 1/4 unmatched
        s = fresh()
        p = s.config("pchoice { 3/4 -> a!0 . nil ; 1/4 -> nil }", ground())
        q = s.config("pchoice { 1/2 -> a!0 . nil ; 1/2 -> nil }", ground())
        bound = distance_upper_bound(p, q, s)
        assert bound.value == pytest.approx(0.25)
        assert check_lambda_relation(bound.witness, 0.25, s).holds
        report = check_lambda_relation(bound.witness, 0.2, s)
        assert not report.holds
        assert report.clause == "iii"


class TestDistance:
    def test_self_distance_zero(self, dephasing):
        s, _, _, mu, _ = dephasing
        assert distance_upper_bound(mu, mu, s).value == 0.0

    def test_trivial_bound_for_distinct_outputs(self):
        s = fresh()
        a = s.config("c!0 . nil", ground())
        b = s.config("c!1 . nil", ground())
        assert distance_upper_bound(a, b, s).value == 1.0

    def test_bound_is_exactly_symmetric(self):
        s = fresh()
        p = s.config("pchoice { 3/4 -> a!0 . nil ; 1/4 -> nil }", ground())
        q = s.config(
            "pchoice { 1/2 -> a!0 . nil ; 1/2 -> apply Dephase[q1] . nil }",
            ground(q1="+"))
        forward = distance_upper_bound(p, q, s).value
        backward = distance_upper_bound(q, p, s).value
        assert forward == backward

    def test_environment_gap_bounds(self):
        s = fresh()
        a = s.config("nil", np.diag([0.55, 0.45]).astype(complex))
        b = s.config("nil", np.diag([0.45, 0.55]).astype(complex))
        bound = distance_upper_bound(a, b, s)
        assert bound.value == pytest.approx(0.1)
        assert check_lambda_relation(bound.witness, bound.value, s).holds

    def test_kernel_agrees_with_decision(self, dephasing):
        s, C, D, mu, CI = dephasing
        assert decide_bisim(C, D, s).holds
        assert distance_upper_bound(C, D, s).value <= s.tol
        a = s.config("c!0 . nil", QuantumState.product(R2, None))
        b = s.config("c!1 . nil", QuantumState.product(R2, None))
        assert not decide_bisim(a, b, s).holds
        assert distance_upper_bound(a, b, s).value > s.tol

    def test_uncertified_fallback(self):
        s = fresh()
        nd = s.config("tau . c!0 . nil + tau . c!1 . nil", ground())
        half = s.config("tau . c!0 . nil", ground())
        assert distance_upper_bound(nd, nd, s).value == 0.0
        bound = distance_upper_bound(nd, half, s)
        assert bound.value == 1.0
        assert bound.mode == "relation-search"

    def test_json_shape(self):
        s = fresh()
        p = s.config("pchoice { 3/4 -> a!0 . nil ; 1/4 -> nil }", ground())
        q = s.config("pchoice { 1/2 -> a!0 . nil ; 1/2 -> nil }", ground())
        payload = distance_upper_bound(p, q, s).to_json()
        assert payload["value"] == pytest.approx(0.25)
        assert payload["witness"]["pairs"]
        json.dumps(payload)


class TestWalkPairs:
    """At a pair whose forms have one class each, that class's derivatives
    are the shared ones the walk visited first, so the same memoised node
    stands under its parent twice.  The witness expands each node once and
    lists each pair once, so a chain of k visible steps keeps k + 1 pairs,
    not 2^(k+1)."""

    @staticmethod
    def chain(k):
        s = System(parse_module(f"Chain(n;) := if n < {k} then ( a!0 . Chain(n + 1;) )"),
                   register=R1)
        rho = QuantumState.product(R1, None)
        return s, s.config("Chain(0;)", rho), s.config("tau . Chain(0;)", rho)

    def test_a_witness_lists_each_pair_once(self):
        s, c, d = self.chain(12)
        node = bisim._walk(s, bisim._saturate(s, s.dirac(c)),
                           bisim._saturate(s, s.dirac(d)), math.inf, {}, [])
        keys = [(a.digest, b.digest) for a, b in bisim._witness_pairs((node,))]
        assert len(keys) == len(set(keys)) == 13

    def test_a_long_chain_holds(self):
        s, c, d = self.chain(40)
        report = decide_bisim(c, d, s)
        assert report.holds and report.mode == "canonical"
        assert len(report.witness.pairs) == 42
        bound = distance_upper_bound(c, d, s)
        assert bound.value == 0.0 and len(bound.witness.pairs) == 42


class TestKernel:
    """Bisimilarity is the kernel of the distance: on every pair,
    `decide_bisim` holds exactly when `distance_upper_bound` is within the
    tolerance, and a holding decision's witness is the bound's set of
    pairs.  Random twins and unrelated pairs of each `randsys` shape."""

    SHAPES = {
        "plain": (randsys.REGISTER, lambda rng: randsys.random_term(rng, 3)),
        "parallel": (randsys.REGISTER2, lambda rng: randsys.random_par_term(rng, 2)),
        "entangled": (randsys.REGISTER2, randsys.random_entangled_term),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_decision_is_the_kernel_of_the_bound(self, shape):
        register, make = self.SHAPES[shape]
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(6):
            system, state = randsys.random_system(rng, register)
            base = make(rng)
            c = system.config(base, state)
            for src in randsys.variants(base) + [make(rng)]:
                d = system.config(src, state)
                report = decide_bisim(c, d, system)
                bound = distance_upper_bound(c, d, system)
                assert report.holds == (bound.value <= system.tol), src
                if report.holds:
                    assert set(report.witness.pairs) == set(bound.witness.pairs)
                seen.add((report.mode, report.holds))
        assert ("canonical", True) in seen and ("canonical", False) in seen


class TestConfluence:
    def test_probabilistic_chain_is_confluent(self):
        s = fresh()
        cfg = s.config("tau . pchoice { 1/2 -> a!0 . nil ; 1/2 -> a!1 . nil }",
                       ground())
        assert confluence_check(PLTS(s, s.dirac(cfg)))

    def test_genuine_nondeterminism_is_not(self):
        s = fresh()
        cfg = s.config("tau . c!0 . nil + tau . c!1 . nil", ground())
        assert not confluence_check(PLTS(s, s.dirac(cfg)))

    def test_commuting_interleavings_are(self):
        s = fresh(R2)
        cfg = s.config("( apply X[q1] . a!0 . nil || apply H[q2] . b!1 . nil )",
                       QuantumState.product(R2, None))
        assert confluence_check(PLTS(s, s.dirac(cfg)))

    def test_needs_roots_with_bare_system(self):
        s = fresh()
        with pytest.raises(ValueError):
            confluence_check(s)

    def test_visible_choice_is_confluent_when_saturations_meet(self):
        s = fresh()
        meet = s.config("a!0 . tau . b!0 . nil + a!0 . b!0 . nil", ground())
        assert confluence_check(PLTS(s, s.dirac(meet)))
        split = s.config("a!0 . b!0 . nil + a!0 . b!1 . nil", ground())
        assert not confluence_check(PLTS(s, s.dirac(split)))
        report = decide_bisim(split, s.config("a!0 . b!0 . nil", ground()), s)
        assert report.mode == "relation-search"
        assert not report.holds

    def test_schedules_that_agree_do_not_certify(self):
        """Three of P's four internal moves, the first and the last among
        them, lead to a!0, so most schedules agree on P's canonical form;
        the one leading to a!1 makes P not bisimilar to Q."""
        s = fresh()
        p = s.config("tau . a!0 . nil + tau . a!1 . nil + tau . a!0 . nil "
                     "+ tau . a!0 . nil", ground())
        q = s.config("tau . a!0 . nil", ground())
        report = decide_bisim(p, q, s)
        assert not report.holds
        assert replay_refutation(report, s)
        assert distance_upper_bound(p, q, s).value == 1.0
        assert not confluence_check(PLTS(s, s.dirac(p)))
        assert not check_lambda_relation([(p, q)], 0.0, s).holds


def check_inclusion_and_kernel(system, state, base, twins=None, state_based=True):
    """Every twin of `base` (by default its `randsys.variants`) is state-based
    bisimilar to it by construction, hence distribution bisimilar, and the
    distance bound vanishes on it with a witness that re-verifies.  With
    `state_based` false the state-based engine is not asked."""
    for variant in randsys.variants(base) if twins is None else twins:
        c = system.config(base, state)
        d = system.config(variant, state)
        if state_based:
            assert decide_state_based(c, d, system).holds, f"{base!r} vs {variant!r}"
        assert decide_bisim(c, d, system).holds, f"{base!r} vs {variant!r}"
        bound = distance_upper_bound(c, d, system)
        assert bound.value <= system.tol
        assert check_lambda_relation(
            bound.witness, bound.value, system, tol=1e-7).holds


def non_dyadic_twins(rng, base):
    split = randsys.NON_DYADIC_WEIGHTS[rng.integers(0, len(randsys.NON_DYADIC_WEIGHTS))]
    return randsys.variants(base, split)[1:] + [randsys.padded_mix(base, split)]


class TestRandomSystems:
    def test_inclusion_and_kernel(self):
        rng = np.random.default_rng(20260816)
        for _ in range(20):
            system, state = randsys.random_system(rng)
            check_inclusion_and_kernel(system, state, randsys.random_term(rng, 3))

    def test_inclusion_and_kernel_parallel(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            system, state = randsys.random_system(rng, randsys.REGISTER2)
            check_inclusion_and_kernel(system, state, randsys.random_par_term(rng, 2))

    def test_relabelled_variants(self):
        """BB84-shaped terms: `decide_bisim` holds every twin with a witness
        that re-verifies, and a refutation against another such term
        replays.  Depth 2: a twin whose outer receiver can take either of
        two outputs on `c` is not confluent, so relation search decides it;
        the duplicated branches are one configuration, which keeps that
        search small."""
        rng = np.random.default_rng(12)
        refuted = 0
        for _ in range(20):
            system, state = randsys.random_system(rng, randsys.REGISTER2)
            base = randsys.random_relabelled_term(rng, 2)
            c = system.config(base, state)
            for variant in randsys.variants(base):
                report = decide_bisim(c, system.config(variant, state), system)
                assert report.holds, f"{base!r} vs {variant!r}"
                assert check_ground_bisim_relation(report.witness, system).holds
            other = system.config(randsys.random_relabelled_term(rng, 2), state)
            report = decide_bisim(c, other, system)
            if not report.holds:
                refuted += 1
                assert replay_refutation(report, system)
        assert refuted >= 5

    def test_non_dyadic_twins(self):
        """Without measurements every probability is a product of the
        weights, held exactly, so all three engines hold every twin."""
        rng = np.random.default_rng(5)
        for _ in range(8):
            system, state = randsys.random_system(rng)
            base = randsys.random_term(
                rng, 3, weights=randsys.NON_DYADIC_WEIGHTS, measure=False)
            check_inclusion_and_kernel(system, state, base, non_dyadic_twins(rng, base))

    def test_non_dyadic_twins_with_measurement(self):
        """The distribution-based engines hold every twin; the state-based
        one misses some (`TestMeasuredThirds`)."""
        rng = np.random.default_rng(6)
        for _ in range(8):
            system, state = randsys.random_system(rng)
            base = randsys.random_term(rng, 3, weights=randsys.NON_DYADIC_WEIGHTS)
            check_inclusion_and_kernel(system, state, base, non_dyadic_twins(rng, base),
                                       state_based=False)

    def test_nested_choice_against_its_flattening(self):
        rng = np.random.default_rng(7)
        for measure in (False, True):
            for _ in range(5):
                system, state = randsys.random_system(rng)
                nested, flat = randsys.nested_choice(rng, measure=measure)
                check_inclusion_and_kernel(system, state, nested, [flat],
                                           state_based=False)

    def test_verdicts_are_an_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            system, state = randsys.random_system(rng)
            base = randsys.random_term(rng, 2)
            a, b, c = (system.config(src, state)
                       for src in randsys.variants(base))
            assert decide_bisim(a, a, system).holds
            rab = decide_bisim(a, b, system)
            rba = decide_bisim(b, a, system)
            assert rab.holds == rba.holds
            if rab.holds and decide_bisim(b, c, system).holds:
                assert decide_bisim(a, c, system).holds

    def test_linearity_of_verdicts(self):
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(10):
            system, state = randsys.random_system(rng)
            b1 = randsys.random_term(rng, 2)
            b2 = randsys.random_term(rng, 2)
            v1 = randsys.variants(b1)
            v2 = randsys.variants(b2)
            m1 = system.config(b1, state)
            n1 = system.config(v1[1], state)
            m2 = system.config(b2, state)
            n2 = system.config(v2[1], state)
            if not (decide_bisim(m1, n1, system).holds and
                    decide_bisim(m2, n2, system).holds):
                continue
            hits += 1
            p = float(rng.choice([0.25, 0.5, 0.75]))
            left = system.combine([(p, system.dirac(m1)), (1 - p, system.dirac(m2))])
            right = system.combine([(p, system.dirac(n1)), (1 - p, system.dirac(n2))])
            assert decide_bisim(left, right, system).holds
        assert hits >= 5

    def test_refutations_replay(self):
        rng = np.random.default_rng(4242)
        refuted = 0
        for _ in range(15):
            system, state = randsys.random_system(rng)
            c = randsys.random_config(rng, system, state, depth=2)
            d = randsys.random_config(rng, system, state, depth=2)
            report = decide_bisim(c, d, system)
            if not report.holds:
                refuted += 1
                assert replay_refutation(report, system)
            sb = decide_state_based(c, d, system)
            if not sb.holds:
                assert replay_refutation(sb, system)
        assert refuted >= 5


    def test_entangled_systems(self):
        """Components a CNOT couples: twins hold in every engine, a canonical
        refutation is also one of relation search, and every refutation
        replays."""
        rng = np.random.default_rng(1)
        modes, refuted = set(), 0
        for _ in range(8):
            system, state = randsys.random_system(rng, randsys.REGISTER2)
            base = randsys.random_entangled_term(rng)
            c = system.config(base, state)
            twins = randsys.variants(base)
            for src in twins + [randsys.random_entangled_term(rng)]:
                d = system.config(src, state)
                auto = decide_bisim(c, d, system)
                reports = (auto, decide_bisim(c, d, system, mode="relation-search"),
                           decide_state_based(c, d, system))
                modes.add(auto.mode)
                if src in twins:
                    assert all(r.holds for r in reports), src
                    assert check_ground_bisim_relation(auto.witness, system).holds
                elif auto.mode == "canonical" and not auto.holds:
                    assert not reports[1].holds
                for report in reports:
                    if not report.holds:
                        refuted += 1
                        assert replay_refutation(report, system)
        assert modes == {"canonical", "relation-search"}
        assert refuted >= 6


class TestConfluenceProof:
    """Systems whose certification takes the local-diamond proof: two
    uncoupled silent components interleave their internal moves."""

    PROVED = "certified: confluence proved by local diamonds"

    def test_canonical_agrees_with_relation_search(self):
        """Canonical verdicts on the proof path against relation search.

        Every variant gets the full cross-check: relation search holds it
        and the exhaustive checker verifies the canonical witness.  Against
        an unrelated system only canonical refutations are cross-checked,
        since relation search also refutes some bisimilar pairs
        (`TestRelationSearchFamily`).
        """
        rng = np.random.default_rng(1)
        refuted = 0
        for _ in range(8):
            system, state = randsys.random_system(rng, randsys.REGISTER2)
            base = randsys.random_wide_term(rng)
            c = system.config(base, state)
            twins = randsys.variants(base)
            for src in twins + [randsys.random_wide_term(rng)]:
                d = system.config(src, state)
                report = decide_bisim(c, d, system)
                assert report.mode == "canonical"
                assert report.detail.endswith(self.PROVED)
                if src in twins:
                    assert report.holds
                    assert decide_bisim(c, d, system, mode="relation-search").holds
                    assert check_ground_bisim_relation(
                        report.witness, system, mode="exhaustive").holds
                elif not report.holds:
                    refuted += 1
                    assert not decide_bisim(c, d, system, mode="relation-search").holds
                    assert replay_refutation(report, system)
        assert refuted >= 4

    def test_duplication_witness_is_a_literal_bisimulation(self):
        # the duplicated branches are one configuration, so the choice
        # steps to a point and the witness needs no saturation
        s = fresh()
        base = "meas Mcomp[q1; x] . nil"
        c = s.config(base, ground(q1="+"))
        d = s.config(randsys.variants(base)[2], ground(q1="+"))
        report = decide_bisim(c, d, s)
        assert report.holds
        assert check_ground_bisim_relation(report.witness, s, mode="exhaustive").holds

    @pytest.mark.xfail(strict=True, reason=(
        "canonical witnesses relate saturations only; the padded side passes "
        "through an intermediate configuration the other side lacks, so its "
        "strong tau move has no literal match in the witness's closure"))
    def test_padding_witness_is_a_literal_bisimulation(self):
        s = fresh(R2)
        state = ground(R2, q1="+", q2="+")
        c = s.config("meas Mcomp[q1; x] . tau . nil || meas Mcomp[q2; y] . nil", state)
        d = s.config("meas Mcomp[q1; x] . nil || meas Mcomp[q2; y] . nil", state)
        report = decide_bisim(c, d, s)
        assert report.holds
        assert check_ground_bisim_relation(report.witness, s, mode="exhaustive").holds


class LPOnly(bisim._Relation):
    """A relation that offers `_coupling_answer` no point pairs, so only the
    identity coupling answers a match without an LP."""

    __slots__ = ()

    def points(self):
        return {}


def sweep_refine(record, system, members, mu, nu, tol, mode):
    """Reference for `_refine`: the chaotic sweep it ran before its worklist.

    Every pass re-checks every surviving pair against the family as it
    stood at the start of the pass, a relation built anew for the pass,
    until a pass deletes nothing.  Clause (i) is checked pair by pair, and
    matches get no point pairs (`LPOnly`), so only the identity coupling
    skips the LP.  Candidates are pairs of two distinct members, as in the
    engine: identity pairs are implicit in every closure.  The surviving
    index pairs and the number of passes go into `record`.
    """
    shapes = []
    for m in members:
        sigs = {system.weak_enabled(c) for c in m.support}
        shapes.append(sigs.pop() if len(sigs) == 1 else None)
    alive = set()
    for i, a in enumerate(members):
        for j in range(i + 1, len(members)):
            if (shapes[i] is not None and shapes[j] is not None
                    and shapes[i] != shapes[j]):
                continue
            if bisim._clause_i(a, members[j], tol) is None:
                alive.add((i, j))

    attack_cache = {}

    def violation(a, b, rel):
        for x, y, side in ((a, b, "left"), (b, a, "right")):
            bad = bisim._violation(system, rel, x, y, 0.0, tol, attack_cache)
            if bad is not None:
                return dict(bad, direction=side)
        return None

    def relation(extra=()):
        return LPOnly(bisim._oriented([(members[i], members[j])
                                       for i, j in sorted(alive)]) + extra)

    rounds = 0
    changed = True
    while changed:
        rounds += 1
        changed = False
        rel = relation()
        for i, j in sorted(alive):
            if violation(members[i], members[j], rel) is not None:
                alive.discard((i, j))
                changed = True
    record.update(alive=set(alive), rounds=rounds)

    pos = {m.digest: k for k, m in enumerate(members)}
    if tuple(sorted((pos[mu.digest], pos[nu.digest]))) in alive or mu.digest == nu.digest:
        witness = RelationCandidate(tuple(
            (members[i], members[j]) for i, j in sorted(alive)))
        return CheckReport(True, mode, tol=tol, witness=witness,
                           detail=f"{len(alive)} pairs survive over a family of "
                                  f"{len(members)} distributions")
    detail = bisim._clause_i(mu, nu, tol)
    if detail is not None:
        return CheckReport(False, mode, clause="i", pair=(mu, nu), tol=tol, detail=detail)
    bad = violation(mu, nu, relation(((mu, nu), (nu, mu)))) or {}
    detail = bad.pop("detail", "deleted during refinement")
    return CheckReport(False, mode, pair=(mu, nu), tol=tol, detail=detail, **bad)


class TestWorklistRefinement:
    """The dependency worklist of `_ground_fixpoint` against the chaotic
    sweep it replaced: same surviving pairs, same reports."""

    ENGINES = (
        decide_state_based,
        lambda c, d, s: decide_bisim(c, d, s, mode="relation-search"),
    )

    def compare(self, monkeypatch, decide, c, d, system) -> int:
        """Decide (c, d) with the worklist and with the sweep; return the
        sweep's number of passes."""
        got, reference = {}, {}
        fixpoint = bisim._ground_fixpoint

        def spy(*args):
            got["alive"] = fixpoint(*args)
            return got["alive"]

        with monkeypatch.context() as m:
            m.setattr(bisim, "_ground_fixpoint", spy)
            report = decide(c, d, system)
        with monkeypatch.context() as m:
            m.setattr(bisim, "_refine", functools.partial(sweep_refine, reference))
            expected = decide(c, d, system)
        assert got["alive"] == reference["alive"]
        assert report.to_json() == expected.to_json()
        return reference["rounds"]

    def test_agrees_with_the_sweep(self, monkeypatch):
        rng = np.random.default_rng(1)
        rounds = []
        for _ in range(10):
            system, state = randsys.random_system(rng)
            base = randsys.random_term(rng, 3)
            c = system.config(base, state)
            for src in randsys.variants(base)[1:] + [randsys.random_term(rng, 3)]:
                d = system.config(src, state)
                for decide in self.ENGINES:
                    rounds.append(self.compare(monkeypatch, decide, c, d, system))
        # deletions that cascade over several passes exercise the re-checks
        assert max(rounds) >= 3

    def test_agrees_with_the_sweep_parallel(self, monkeypatch):
        rng = np.random.default_rng(1)
        for _ in range(4):
            system, state = randsys.random_system(rng, randsys.REGISTER2)
            base = randsys.random_par_term(rng, 2)
            c = system.config(base, state)
            d = system.config(randsys.variants(base)[2], state)
            for decide in self.ENGINES:
                self.compare(monkeypatch, decide, c, d, system)

    def test_agrees_with_the_sweep_wide(self, monkeypatch):
        """Interleaved silent components: many members share an
        environment class, so clause (i) is answered per class."""
        rng = np.random.default_rng(2)
        for _ in range(3):
            system, state = randsys.random_system(rng, randsys.REGISTER2)
            base = randsys.random_wide_term(rng)
            c = system.config(base, state)
            for src in (randsys.variants(base)[1], randsys.random_wide_term(rng)):
                d = system.config(src, state)
                for decide in self.ENGINES:
                    self.compare(monkeypatch, decide, c, d, system)

    def test_environment_classes_split_on_bytes(self):
        """Two members whose environments share a 10-decimal digest but
        differ in bytes fall on either side of the clause (i) bound
        against a third member, so they must not share a class."""
        s = fresh(R2)
        stuck = "( #m!q1 . nil ) \\ {#m}"   # holds q1, never moves
        z = np.diag([1.0, -1.0])

        def member(bit, env):
            q1 = np.zeros((2, 2))
            q1[bit, bit] = 1.0
            return s.dirac(s.config(stuck, np.kron(q1, env)))

        half = np.eye(2) / 2
        members = [member(0, half), member(1, half - 1e-13 * z),
                   member(0, half + z / 4)]
        (_, ea, *_), (_, eb, *_) = (bisim._environment(m) for m in members[:2])
        assert bisim._env_class(members[0])[1] is bisim._env_class(members[0])[1]  # kept
        assert _matrix_digest(ea) == _matrix_digest(eb)
        assert np.asarray(ea).tobytes() != np.asarray(eb).tobytes()
        tol = bisim._env_distance(members[0], members[2])
        assert bisim._env_distance(members[1], members[2]) > tol

        reference = {}
        sweep_refine(reference, s, members, members[0], members[1], tol, "state-based")
        alive = bisim._ground_fixpoint(s, members, tol, {})
        assert alive == reference["alive"]
        assert (0, 2) in alive and (1, 2) not in alive


def count_lps(monkeypatch) -> list:
    """Record the column count of every exact LP the engines solve."""
    calls = []
    solve = bisim.combination_weights

    def counted(columns, target, *farkas):
        calls.append(len(columns))
        return solve(columns, target, *farkas)

    monkeypatch.setattr(bisim, "combination_weights", counted)
    return calls


class TestIdentityPairs:
    """Identity pairs are implicit in every closure and never candidates:
    the column of (mu, mu) is a nonnegative sum of identity carriers, so
    witnesses hold no identity pair, and certificates replay as before."""

    # shape -> (rng seed, register, term maker)
    SHAPES = {
        "term": (1, randsys.REGISTER, lambda rng: randsys.random_term(rng, 3)),
        "wide": (2, randsys.REGISTER2, randsys.random_wide_term),
        "entangled": (3, randsys.REGISTER2, randsys.random_entangled_term),
        "nested": (4, randsys.REGISTER2, lambda rng: randsys.random_nested_term(
            rng, randsys.NESTED_SHAPES[rng.integers(0, len(randsys.NESTED_SHAPES))])),
    }

    def instances(self, shape, count):
        """(system, base, tau-padded twin, unrelated term) per instance."""
        seed, register, term = self.SHAPES[shape]
        rng = np.random.default_rng(seed)
        for _ in range(count):
            system, state = randsys.random_system(rng, register)
            base = term(rng)
            yield (system, system.config(base, state),
                   system.config(randsys.variants(base)[1], state),
                   system.config(term(rng), state))

    def test_identity_column_is_a_sum_of_carriers(self):
        """On members of the relation-search family, the column of
        (mu, mu) exists exactly when supp(mu) lies in supp(left) and in the
        rows, and then equals the sum of mu(c) times the carrier of c."""
        rng = np.random.default_rng(7)
        checked = absent = spread = 0
        for shape in sorted(self.SHAPES):
            for system, c, d, _ in self.instances(shape, 3):
                mu, nu = system.dirac(c), system.dirac(d)
                family = bisim._search_family(system, mu, nu)
                for k in rng.permutation(len(family))[:20]:
                    m = family[k]
                    lefts = [x for x in family if all(y in x.probs for y in m.probs)]
                    for left in lefts[:4]:
                        inside = set(left.probs)
                        rows = {y for y in inside if rng.random() < 0.8} | set(m.probs)
                        if rng.random() < 0.3:
                            rows.discard(next(iter(m.probs)))
                        tag = ("L", int(rng.integers(0, 3)))
                        columns, origins = bisim._closure_columns(
                            bisim._Relation([(m, m)]), left, rows, tag)
                        carriers = {next(key for key in col if key[0] == "R"): col
                                    for col, k in zip(columns, origins) if k is None}
                        assert len(carriers) == len(inside & rows)
                        own = [col for col, k in zip(columns, origins) if k == 0]
                        if not all(y in rows for y in m.probs):
                            assert own == []
                            absent += 1
                            continue
                        total = {}
                        for y, p in m.probs.items():
                            for key, v in carriers["R", y.index].items():
                                total[key] = total.get(key, 0) + Fraction(p) * Fraction(v)
                        (column,) = own
                        assert {key: Fraction(v) for key, v in column.items()} == total
                        checked += 1
                        spread += len(m.probs) > 1
        assert checked >= 100 and absent >= 10 and spread >= 10, (checked, absent, spread)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_witnesses_hold_no_identity_pair(self, shape):
        for system, c, twin, _ in self.instances(shape, 2):
            for report in (decide_state_based(c, twin, system),
                           decide_bisim(c, twin, system, mode="relation-search")):
                assert report.holds
                pairs = report.witness.pairs
                assert pairs and all(a.digest != b.digest for a, b in pairs)
                assert check_ground_bisim_relation(report.witness, system,
                                                   mode="exhaustive").holds

    def test_certificates_replay_and_reject_edits(self):
        refuted = {"state-based": 0, "relation-search": 0}
        for shape in sorted(self.SHAPES):
            for system, c, _, other in self.instances(shape, 3):
                for report in (decide_state_based(c, other, system),
                               decide_bisim(c, other, system, mode="relation-search")):
                    if report.holds or report.clause == "i":
                        continue
                    entries = report.certificate.entries
                    assert all(a.digest != b.digest for a, b in (e.pair for e in entries))
                    assert replay_refutation(report, system)
                    for k in range(len(entries)):
                        cut = report.certificate._replace(entries=entries[:k] + entries[k + 1:])
                        assert not replay_refutation(
                            dataclasses.replace(report, certificate=cut), system)
                    refuted[report.mode] += 1
        assert min(refuted.values()) >= 3, refuted


class TestCouplingAnswer:
    """`_match_weak` answers a point defender without an LP when a
    one-to-one coupling along identity and related point pairs maps the
    attack onto one of its weak moves, and in no other case."""

    def point_move(self):
        s = fresh()
        d = s.config("pchoice { 1/4 -> a!0 . nil ; 3/4 -> a!1 . nil }", ground(q1="+"))
        (move,) = s.step(d)
        return s, d, move.dist

    def test_exact_match_skips_the_lp(self, monkeypatch):
        s, d, e = self.point_move()
        calls = count_lps(monkeypatch)
        attack = ConfigDistribution(dict(e.probs))
        used = set()
        assert bisim._match_weak(s, bisim._Relation(()), attack, s.dirac(d), TAU, used)
        assert calls == []
        assert used == set()

    def test_crossing_assignment_skips_the_lp(self, monkeypatch):
        """x may stay itself or go to z, and y may only go to x: matching
        in order gives x to itself and strands y, so sigma must reroute x."""
        s = fresh()
        d = s.config("pchoice { 1/2 -> a!0 . nil ; 1/2 -> a!1 . nil }", ground(q1="+"))
        (move,) = s.step(d)
        x, z = move.dist.support
        y = s.config("a!2 . nil", ground(q1="+"))
        attack = ConfigDistribution({x: 0.5, y: 0.5})
        pairs = [(s.dirac(x), s.dirac(z)), (s.dirac(y), s.dirac(x))]
        calls = count_lps(monkeypatch)
        used = set()
        assert bisim._match_weak(s, bisim._Relation(pairs), attack, s.dirac(d), TAU,
                                 used)
        assert calls == []
        assert used == {0, 1}

    def test_equal_digests_still_solve_the_lp(self, monkeypatch):
        # 1e-11 apart: one digest (10 decimals), different rationals
        s, d, e = self.point_move()
        (x, p), (y, q) = e.probs.items()
        attack = ConfigDistribution({x: p + 1e-11, y: q - 1e-11})
        assert attack.digest == e.digest
        assert Fraction(attack.probability(x)) != Fraction(p)
        calls = count_lps(monkeypatch)
        assert not bisim._match_weak(s, bisim._Relation(()), attack, s.dirac(d), TAU)
        assert len(calls) == 1

    def test_one_ulp_off_solves_the_lp(self, monkeypatch):
        """Float equality is the test even where the pairs offer a swap:
        an attack one ulp off is a different rational, so the LP decides."""
        s, d, e = self.point_move()
        (x, p), (y, q) = e.probs.items()
        attack = ConfigDistribution({x: math.nextafter(p, 1.0), y: q})
        pairs = [(s.dirac(x), s.dirac(y)), (s.dirac(y), s.dirac(x))]
        calls = count_lps(monkeypatch)
        bisim._match_weak(s, bisim._Relation(pairs), attack, s.dirac(d), TAU)
        assert len(calls) == 1

    def test_mass_below_one_solves_the_lp(self, monkeypatch):
        s, d, e = self.point_move()
        defender = ConfigDistribution({d: 1.0 - 2.0 ** -53})
        calls = count_lps(monkeypatch)
        bisim._match_weak(s, bisim._Relation(()), ConfigDistribution(dict(e.probs)),
                          defender, TAU)
        assert len(calls) == 1

    def test_answered_matches_are_feasible(self, monkeypatch):
        """Every match answered without an LP is one the LP also finds from
        the pairs the answer recorded, the identity carriers and one
        extreme weak move of the defender, with only the columns the
        engine's LP would have: those on rows the defender's moves debit."""
        calls = count_lps(monkeypatch)
        answered = []
        match = bisim._match_weak

        def spy(system, rel, attack, defender, label, used=None, proof=None):
            before = len(calls)
            recorded = set()
            got = match(system, rel, attack, defender, label, recorded, proof)
            if used is not None:
                used.update(recorded)
            if got and len(calls) == before:
                (d,) = defender.support
                extremes = system.weak_extremes(d, label)
                columns, _ = bisim._closure_columns(
                    bisim._Relation([rel.pairs[k] for k in sorted(recorded)]), attack,
                    bisim._debited([(d, extremes)]))
                target = {("L", c.index): p for c, p in attack}
                target.update((("D", c.index), p) for c, p in defender)
                assert any(combination_weights(
                    columns + bisim._extreme_columns([(d, (e,))]), target) is not None
                    for e in extremes)
                answered.append(len(recorded))
            return got

        monkeypatch.setattr(bisim, "_match_weak", spy)
        rng = np.random.default_rng(5)
        for k in range(8):
            if k % 2:
                system, state = randsys.random_system(rng, randsys.REGISTER2)
                base = randsys.random_par_term(rng, 2)
                others = [randsys.variants(base)[2]]
            else:
                system, state = randsys.random_system(rng)
                base = randsys.random_term(rng, 3)
                others = randsys.variants(base)[1:] + [randsys.random_term(rng, 3)]
            c = system.config(base, state)
            for src in others:
                d = system.config(src, state)
                for report in (decide_state_based(c, d, system),
                               decide_bisim(c, d, system, mode="relation-search")):
                    if report.holds:
                        assert check_ground_bisim_relation(
                            report.witness, system, mode="exhaustive").holds
        assert len(answered) >= 20
        # some answers go through related point pairs, not only identities
        assert sum(1 for n in answered if n) >= 5


def indexed_system(register, state, sources):
    """A System whose configurations are all interned before any query, in
    one fixed order, so an index names the same configuration in every
    System built from the same sources, whatever the queries asked first."""
    s = System(parse_module("Dummy := nil"), register=register)
    roots = [s.config(src, state) for src in sources]
    s.reachable(roots)
    return s, roots


def forget(system):
    """Empty what `system` keeps from earlier refinements."""
    system._state_facts.clear()
    system._searches.clear()
    system._env_distances.clear()


class TestSharedRefinement:
    """A System keeps its state-based verdicts and relation-search outcomes
    across queries.  Answers on one shared System, with the pairs asked in
    either order, equal those on a fresh System per query, byte for byte,
    at fewer LPs."""

    ENGINES = (decide_state_based, decide_bisim, distance_upper_bound)
    # shape -> (rng seed, register, term maker, variants used); the wide
    # duplication twin is left out, as its state-based LPs take seconds each
    SHAPES = {
        "sequential": (3, randsys.REGISTER, lambda rng: randsys.random_term(rng, 3),
                       slice(1, None)),
        "parallel": (1, randsys.REGISTER2, lambda rng: randsys.random_par_term(rng, 2),
                     slice(1, None)),
        "wide": (2, randsys.REGISTER2, randsys.random_wide_term, slice(1, 2)),
    }

    def instances(self, shape, count):
        seed, register, term, used = self.SHAPES[shape]
        rng = np.random.default_rng(seed)
        for _ in range(count):
            _, state = randsys.random_system(rng, register)
            base = term(rng)
            yield register, state, [base] + randsys.variants(base)[used] + [term(rng)]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shared_system_answers_like_fresh_ones(self, shape, monkeypatch):
        calls = count_lps(monkeypatch)
        fresh_lps, shared_lps = 0, [0, 0]   # per order of the shared runs
        for register, state, sources in self.instances(shape, 3):
            order = list(range(1, len(sources)))
            expected = {}
            before = len(calls)
            for k in order:
                for n, engine in enumerate(self.ENGINES):
                    s, roots = indexed_system(register, state, sources)
                    expected[k, n] = engine(roots[0], roots[k], s).to_json()
            fresh_lps += len(calls) - before
            for run, others in enumerate((order, order[::-1])):
                s, roots = indexed_system(register, state, sources)
                before = len(calls)
                got = {(k, n): engine(roots[0], roots[k], s).to_json()
                       for k in others for n, engine in enumerate(self.ENGINES)}
                assert got == expected
                shared_lps[run] += len(calls) - before
        assert max(shared_lps) < fresh_lps

    def test_members_of_different_fixpoints_are_paired(self):
        """Two configurations that earlier state-based fixpoints reached
        only apart are still a candidate pair when a later one reaches
        both: the pairs a fixpoint decided are those of its own members."""
        sources = ["a!0 . b!1 . nil", "c!0 . nil",
                   "a!0 . ( b!1 . nil || nil )", "c!1 . nil"]
        s, roots = indexed_system(R1, ground(q1="+"), sources)
        assert not decide_state_based(roots[0], roots[1], s).holds
        assert not decide_state_based(roots[2], roots[3], s).holds
        got = decide_state_based(roots[0], roots[2], s)
        f, froots = indexed_system(R1, ground(q1="+"), sources)
        assert got.holds
        assert got.to_json() == decide_state_based(froots[0], froots[2], f).to_json()

    def uncertified(self):
        """A sum offering a visible and an internal move, so `decide_bisim`
        runs relation search: padded (bisimilar) and with the internal
        branch changed (refuted)."""
        base = "a!2 . nil + tau . pchoice { 1/4 -> a!0 . nil ; 3/4 -> tau . a!1 . nil }"
        return [base, f"tau . ( {base} )",
                "a!2 . nil + tau . pchoice { 1/4 -> a!0 . nil ; 3/4 -> a!0 . nil }"]

    def test_bound_reads_the_relation_search(self, monkeypatch):
        sources = self.uncertified()
        calls = count_lps(monkeypatch)
        for k, holds in ((1, True), (2, False)):
            s, roots = indexed_system(R1, ground(q1="+"), sources)
            report = decide_bisim(roots[0], roots[k], s)
            assert report.mode == "relation-search"
            assert report.holds == holds
            assert calls
            calls.clear()
            bound = distance_upper_bound(roots[0], roots[k], s)
            assert calls == []
            f, froots = indexed_system(R1, ground(q1="+"), sources)
            expected = distance_upper_bound(froots[0], froots[k], f)
            assert calls
            assert bound.mode == expected.mode == "relation-search"
            assert (bound.value, bound.detail) == (expected.value, expected.detail)
            assert bound.witness.to_json() == expected.witness.to_json()
            assert bound.value == (0.0 if holds else 1.0)

    def test_replays_read_nothing_kept(self, monkeypatch):
        """Replays and witness checks solve as many LPs on a System that
        kept every verdict as on one that kept nothing: witness checks
        solve their LPs again, certificate replays take none, and the
        relation search that re-decides a canonical refutation solves its
        own."""
        sources = self.uncertified() + list(CERTIFIED_APART)
        state = ground(q1="+")
        calls = count_lps(monkeypatch)

        def replay_costs(system, roots, forgetful):
            costs = []
            queries = (
                (decide_state_based, 0, 2, "state-based"),
                (decide_bisim, 0, 2, "relation-search"),
                (decide_bisim, 0, 1, "relation-search"),
                (decide_bisim, 3, 4, "canonical"),
            )
            for decide, i, k, mode in queries:
                report = decide(roots[i], roots[k], system)
                assert report.mode == mode
                if forgetful:
                    forget(system)
                calls.clear()
                if report.holds:
                    assert check_ground_bisim_relation(report.witness, system).holds
                else:
                    assert replay_refutation(report, system)
                costs.append((report.to_json(), len(calls)))
            return costs

        warm, roots = indexed_system(R1, state, sources)
        for i, k in ((0, 1), (0, 2), (3, 4)):
            decide_state_based(roots[i], roots[k], warm)
            decide_bisim(roots[i], roots[k], warm)
            distance_upper_bound(roots[i], roots[k], warm)
        got = replay_costs(warm, roots, False)
        expected = replay_costs(*indexed_system(R1, state, sources), True)
        assert got == expected
        assert [n > 0 for _, n in got] == [False, False, True, True]


# a certified pair that `decide_bisim` refutes canonically, in clause (iii):
# the silent splits weigh a!0 at 1/2 and at 1/4
CERTIFIED_APART = ("tau . pchoice { 1/2 -> a!0 . nil ; 1/2 -> a!1 . nil }",
                   "tau . pchoice { 1/4 -> a!0 . nil ; 3/4 -> a!1 . nil }")


class TestCanonicalReplay:
    """At lambda 0, every refutation without a certificate is re-decided by
    relation search, canonical ones too; when relation search cannot run,
    the directly verified evidence stands."""

    def canonical_refutation(self):
        s = fresh()
        x, y = (s.config(src, ground(q1="+")) for src in CERTIFIED_APART)
        report = decide_bisim(x, y, s)
        assert (report.mode, report.clause, report.holds) == ("canonical", "iii", False)
        return s, report

    def test_canonical_engine_does_not_re_decide(self, monkeypatch):
        s, report = self.canonical_refutation()

        def refuse(*args, **kwargs):
            raise AssertionError("a replay ran the canonical engine")

        monkeypatch.setattr(bisim, "_walk", refuse)
        assert replay_refutation(report, s)

    def test_replay_follows_relation_search(self, monkeypatch):
        s, report = self.canonical_refutation()
        searched = []

        def holds(canon, mu, nu, tol, configs=None):
            searched.append((mu, nu))
            return CheckReport(True, "relation-search", tol=tol)

        monkeypatch.setattr(bisim, "_relation_search", holds)
        assert not replay_refutation(report, s)
        assert searched == [report.pair]

    def test_family_overflow_stands_on_the_evidence(self, monkeypatch):
        s = fresh()
        x = s.config("tau . c!0 . nil + tau . c!1 . nil", ground(q1="+"))
        y = s.config("c!0 . nil", ground(q1="+"))
        report = check_ground_bisim_relation([(x, y)], s, mode="exhaustive")
        assert (report.mode, report.clause, report.holds) == ("exhaustive", "ii", False)
        monkeypatch.setattr(bisim, "_FAMILY_CAP", 2)
        with pytest.raises(BudgetExceededError):
            bisim._search_family(s, *report.pair)
        assert replay_refutation(report, s)

    def test_replay_walks_the_reach_once(self, monkeypatch):
        s, report = self.canonical_refutation()
        walks = []
        reachable = System.reachable
        monkeypatch.setattr(System, "reachable", lambda self, roots, **kw: (
            walks.append(kw) or reachable(self, roots, **kw)))
        assert replay_refutation(report, s)
        assert walks == [{"max_configs": bisim._FAMILY_CAP}]

    def test_a_cyclic_reach_past_the_cap_stands_on_the_evidence(self):
        """A reach of more configurations than `_FAMILY_CAP` would overflow
        the relation-search family, so the replay walks no further, and a
        cycle beyond the cap goes unseen."""
        s = System(parse_module("Cyc(n;) := if n < 600 then ( b!0 . Cyc(n + 1;) ) "
                                "else ( b!0 . Cyc(0;) )"), register=R1)
        x, y = s.config("a!0 . Cyc(0;)", ground()), s.config("a!1 . nil", ground())
        report = check_ground_bisim_relation([(x, y)], s, mode="exhaustive")
        assert (report.mode, report.clause, report.holds) == ("exhaustive", "ii", False)
        assert replay_refutation(report, s)
        with pytest.raises(CyclicModelError):
            decide_bisim(x, y, s)


class TestKeptCanonicalValues:
    """Saturations, derivatives and behaviour forms are kept once per System
    on the objects they derive from.  Replaying a bound's witness and
    repeating a decision build none of them again, and a repeated query
    still spends the work units of the first."""

    # (register, state assignment, left, right), each pair certified
    PAIRS = (
        (R2, {"q1": "+", "q2": "+"}, TestWorkBudget.LEFT, TestWorkBudget.RIGHT),
        (R1, {"q1": "0"}, "pchoice { 3/4 -> a!0 . b!0 . nil ; 1/4 -> nil }",
         "pchoice { 1/2 -> a!0 . b!0 . nil ; 1/2 -> nil }"),
        (R1, {"q1": "+"}) + CERTIFIED_APART,
        (R1, {"q1": "+"}, "tau . meas Mcomp[q1; x] . c!x . nil",
         "meas Mcomp[q1; y] . tau . c!y . nil"),
    )

    @pytest.mark.parametrize("k", range(len(PAIRS)))
    def test_replay_and_repeat_build_nothing(self, k, monkeypatch):
        register, assignment, left, right = self.PAIRS[k]
        s = fresh(register)
        c, d = (s.config(src, ground(register, **assignment)) for src in (left, right))
        first = decide_bisim(c, d, s)
        cost = s.work
        bound = distance_upper_bound(c, d, s)
        assert (first.mode, bound.mode) == ("canonical", "canonical")
        combined = []
        combine = System.combine

        def counted(system, parts):
            combined.append(parts)
            return combine(system, parts)

        monkeypatch.setattr(System, "combine", counted)
        assert check_lambda_relation(bound.witness, bound.value, s).holds
        again = decide_bisim(c, d, s)
        assert combined == []
        assert s.work == cost
        assert again.to_json_str() == first.to_json_str()


class TestQueryOrder:
    """Kept values are keyed by object identity, never by the 10-decimal
    digest: answers on one System do not depend on which pairs it answered
    before, even when their distributions share a digest."""

    # the saturations of A and B and their a!0 derivatives share digests:
    # 333333333333/10^12 and 1/3 agree to 10 decimals
    A = ("tau . pchoice { 1/3 -> a!0 . b!0 . nil ; 2/3 -> a!0 . b!1 . nil }",
         "pchoice { 1/3 -> tau . a!0 . b!0 . nil ; 2/3 -> a!0 . b!1 . nil }")
    B = ("tau . pchoice { 333333333333/1000000000000 -> a!0 . b!0 . nil ; "
         "666666666667/1000000000000 -> a!0 . b!1 . nil }",
         "pchoice { 1/2 -> a!0 . b!0 . nil ; 1/2 -> a!0 . b!1 . nil }")

    def answers(self, s, c, d) -> tuple:
        """The JSON of the decision and the bound on (c, d), both replayed."""
        report = decide_bisim(c, d, s)
        if report.holds:
            assert check_ground_bisim_relation(report.witness, s).holds
        else:
            assert replay_refutation(report, s)
        bound = distance_upper_bound(c, d, s)
        assert check_lambda_relation(bound.witness, bound.value, s).holds
        return report.to_json_str(), bound.to_json_str()

    @pytest.mark.parametrize("register, assignment, a", [
        (R1, {"q1": "+"}, A),
        (R2, {"q1": "+", "q2": "+"}, (TestWorkBudget.LEFT, TestWorkBudget.RIGHT))])
    def test_an_unrelated_pair_between_changes_nothing(self, register, assignment, a):
        state = ground(register, **assignment)
        sources = list(a + self.B)
        s, roots = indexed_system(register, state, sources)
        first = self.answers(s, roots[0], roots[1])
        between = self.answers(s, roots[2], roots[3])
        assert self.answers(s, roots[0], roots[1]) == first
        f, froots = indexed_system(register, state, sources)
        assert self.answers(f, froots[2], froots[3]) == between


class TestRefutationCertificates:
    """State-based and relation-search refutations carry a certificate:
    deletion entries with Farkas vectors.  `replay_refutation` checks it by
    exact dot products, solving no LP, and rejects it once edited."""

    def refutations(self):
        """(system, report) for the clause (ii) and (iii) refutations of
        both engines on random sequential and parallel pairs."""
        rng = np.random.default_rng(4242)
        for k in range(16):
            register = randsys.REGISTER2 if k % 4 == 3 else randsys.REGISTER
            system, state = randsys.random_system(rng, register)
            if register is randsys.REGISTER:
                c = randsys.random_config(rng, system, state, depth=3)
                d = randsys.random_config(rng, system, state, depth=3)
            else:
                c, d = (system.config(randsys.random_par_term(rng, 2), state)
                        for _ in range(2))
            for report in (decide_state_based(c, d, system),
                           decide_bisim(c, d, system, mode="relation-search")):
                if not report.holds and report.clause != "i":
                    yield system, report

    @staticmethod
    def with_certificate(report, **changes):
        certificate = report.certificate._replace(**changes)
        return dataclasses.replace(report, certificate=certificate)

    @staticmethod
    def with_entry(report, k, **changes):
        entries = list(report.certificate.entries)
        entries[k] = entries[k]._replace(**changes)
        return TestRefutationCertificates.with_certificate(report, entries=tuple(entries))

    def test_replays_solve_no_lp(self, monkeypatch):
        calls = count_lps(monkeypatch)
        modes, sizes = [], []
        for system, report in self.refutations():
            sizes.append(len(report.certificate.entries))
            calls.clear()
            assert replay_refutation(report, system)
            assert calls == []
            modes.append(report.mode)
        assert modes.count("state-based") >= 5 and modes.count("relation-search") >= 5
        assert min(sizes) >= 1 and max(sizes) >= 2

    def test_a_dropped_entry_is_rejected(self):
        dropped = 0
        for system, report in self.refutations():
            entries = report.certificate.entries
            for k in range(len(entries)):
                cut = self.with_certificate(report, entries=entries[:k] + entries[k + 1:])
                assert not replay_refutation(cut, system)
                dropped += 1
        assert dropped > len(list(self.refutations()))

    def test_a_changed_farkas_entry_is_rejected(self):
        """Adding mass to a defender row's multiplier makes the vector's
        product with the LP's target positive, in the LP of either clause."""
        changed = {"ii": 0, "iii": 0}
        for system, report in self.refutations():
            for k, entry in enumerate(report.certificate.entries):
                if entry.proof is None:
                    continue
                defender = entry.pair[1] if entry.direction == "left" else entry.pair[0]
                d, _ = max(defender, key=lambda cp: cp[1])
                y = dict(entry.proof)
                y[("D", d.index)] = y.get(("D", d.index), 0) + 10 ** 9 * (
                    1 + sum(abs(v) for v in y.values()))
                assert not replay_refutation(self.with_entry(report, k, proof=y), system)
                changed[entry.clause] += 1
        assert changed["ii"] >= 10 and changed["iii"] >= 4, changed

    def test_a_swapped_label_is_rejected(self):
        """Also when the defender has no weak move with the new label, so
        that "no weak move" would be true evidence for that label, and
        when the report's label is swapped with the last entry's."""
        swapped, unmatched = 0, 0
        for system, report in self.refutations():
            entries = report.certificate.entries
            for k, entry in enumerate(entries):
                if entry.clause != "ii":
                    continue
                defender = entry.pair[1] if entry.direction == "left" else entry.pair[0]
                labels = {TAU} | {label for side in entry.pair
                                  for label, _ in _strong_attacks(system, side, {})}
                for other in labels - {entry.label}:
                    edits = [dict(label=other)]
                    if not all(system.weak_extremes(d, other) for d in defender.support):
                        edits.append(dict(label=other, proof=None))
                        unmatched += 1
                    for edit in edits:
                        edited = self.with_entry(report, k, **edit)
                        assert not replay_refutation(edited, system)
                        if k == len(entries) - 1:
                            edited = dataclasses.replace(edited, label=other)
                            assert not bisim._certificate_holds(system, edited)
                        swapped += 1
        assert swapped >= 5 and unmatched >= 2

    def test_a_relation_search_family_must_match(self):
        checked = 0
        for system, report in self.refutations():
            family = report.certificate.family
            if family is None:
                continue
            assert not replay_refutation(self.with_certificate(report, family=family[1:]),
                                         system)
            checked += 1
        assert checked >= 5


class Anything:
    """A set of configurations that holds every configuration."""

    def __contains__(self, config):
        return True


class TestMatchColumns:
    """The LPs of `_match_weak` and `_match_decomposition` build a pair
    column or identity carrier only where all its right-hand mass lies on
    rows that the defender's extreme moves debit; the dropped columns carry
    no weight, so every LP decides as it would with all of them.  The live
    relation (`_Relation`) answers as one rebuilt from its survivors."""

    # shape -> (rng seed, register, term maker)
    SHAPES = {
        "plain": (1, randsys.REGISTER, lambda rng: randsys.random_term(rng, 3)),
        "parallel": (2, randsys.REGISTER2, randsys.random_par_term),
        "wide": (3, randsys.REGISTER2, randsys.random_wide_term),
        "entangled": (4, randsys.REGISTER2, randsys.random_entangled_term),
    }

    def pairs(self, shape, count):
        """(system, c, d) for a twin and an unrelated term of each base."""
        seed, register, term = self.SHAPES[shape]
        rng = np.random.default_rng(seed)
        for _ in range(count):
            system, state = randsys.random_system(rng, register)
            base = term(rng)
            c = system.config(base, state)
            for src in (randsys.variants(base)[1], term(rng)):
                yield system, c, system.config(src, state)

    def test_debited_columns_decide_like_all_columns(self, monkeypatch):
        solve, closure = bisim.combination_weights, bisim._closure_columns
        debited = []   # per running match, the indices of the rows it debits
        full = []      # every pair column and carrier of the LP being built
        lps = {}       # (match, feasible) -> LPs; "narrowed" -> LPs with fewer columns

        def columns(rel, left, rows, row=("L",)):
            got = closure(rel, left, rows, row)
            every, _ = closure(rel, left, Anything(), row)
            full.extend(every)
            lps["narrowed"] = lps.get("narrowed", 0) + (len(every) > len(got[0]))
            return got

        def watched(match, name, label_of):
            def spy(system, rel, x, defender, *rest):
                label = label_of(rest)
                debited.append((name, {y.index for d in defender.probs
                                       for e in system.weak_extremes(d, label)
                                       for y in e.probs}))
                try:
                    return match(system, rel, x, defender, *rest)
                finally:
                    debited.pop()
            return spy

        def lp(cols, target, *farkas):
            got = solve(cols, target, *farkas)
            if debited:
                name, rows = debited[-1]
                for col in cols:
                    if not any(key[0] == "D" for key in col):
                        assert all(key[1] in rows for key in col if key[0] == "R")
                feasible = solve(cols + full, target) is not None
                assert (got is not None) == feasible
                lps[name, feasible] = lps.get((name, feasible), 0) + 1
            full.clear()
            return got

        monkeypatch.setattr(bisim, "_closure_columns", columns)
        monkeypatch.setattr(bisim, "combination_weights", lp)
        monkeypatch.setattr(bisim, "_match_weak",
                            watched(bisim._match_weak, "weak", lambda rest: rest[0]))
        monkeypatch.setattr(bisim, "_match_decomposition",
                            watched(bisim._match_decomposition, "split", lambda rest: TAU))
        for shape in sorted(self.SHAPES):
            before = lps.get("narrowed", 0)
            for system, c, d in self.pairs(shape, 3):
                decide_state_based(c, d, system)
                decide_bisim(c, d, system, mode="relation-search")
            assert lps.get("narrowed", 0) > before, shape
        for key in (("weak", True), ("weak", False), ("split", True), ("split", False)):
            assert lps.get(key, 0) >= 3, (key, lps)

    def test_dropping_matches_rebuilding(self):
        """Random drops, with the indexes built before, between or after
        them."""
        rng = np.random.default_rng(11)
        checked = 0
        for shape in sorted(self.SHAPES):
            for system, c, d in self.pairs(shape, 1):
                configs = system.reachable([c, d])
                members = [system.dirac(x) for x in configs]
                members += [t.dist for x in configs for t in system.step(x)]
                picks = rng.integers(len(members), size=(3 * len(members), 2))
                pairs = bisim._unique_pairs((members[i], members[j]) for i, j in picks)
                lefts = members + [system.combine([(0.5, a), (0.5, b)])
                                   for a, b in zip(members, members[1:])]
                rel = bisim._Relation(pairs)
                live = list(range(len(pairs)))
                for step, k in enumerate(rng.permutation(len(pairs))[:2 * len(pairs) // 3]):
                    if step % 7 == 3:
                        rel.points() if rng.random() < 0.5 else rel.inside({})
                    rel.drop(int(k))
                    live.remove(int(k))
                    if step % 5:
                        continue
                    rebuilt = bisim._Relation([pairs[j] for j in live])
                    assert [(k, p) for k, p in enumerate(rel.pairs) if p is not None] == [
                        (j, pairs[j]) for j in live]
                    for left in lefts:
                        assert rel.inside(left.probs) == [
                            live[j] for j in rebuilt.inside(left.probs)]
                    assert rel.points() == {
                        x: {y: live[j] for y, j in ys.items()}
                        for x, ys in rebuilt.points().items()}
                    checked += 1
        assert checked >= 20


class TestClauseIVerdicts:
    """A System computes the environment distance of clause (i) once for
    each pair of environment classes, across queries, and answers as a
    fresh System does."""

    def test_a_second_decision_computes_no_seen_distance(self, monkeypatch):
        distance = bisim._env_distance
        computed = []

        def spy(a, b):
            computed.append(frozenset((bisim._env_class(a), bisim._env_class(b))))
            return distance(a, b)

        monkeypatch.setattr(bisim, "_env_distance", spy)
        fresh_total = shared_total = 0
        for shape in sorted(TestSharedRefinement.SHAPES):
            for register, state, sources in TestSharedRefinement().instances(shape, 3):
                s, roots = indexed_system(register, state, sources)
                computed.clear()
                decide_state_based(roots[0], roots[1], s)
                seen = set(computed)
                for k in range(2, len(sources)):
                    computed.clear()
                    got = decide_state_based(roots[0], roots[k], s).to_json()
                    assert len(set(computed)) == len(computed)
                    assert not seen & set(computed)
                    seen |= set(computed)
                    shared_total += len(computed)
                    f, froots = indexed_system(register, state, sources)
                    computed.clear()
                    assert decide_state_based(froots[0], froots[k], f).to_json() == got
                    fresh_total += len(computed)
        assert shared_total < fresh_total


def spy_member_lin(monkeypatch) -> list:
    """Record the closure-membership LPs of the saturated rule."""
    member_lin = bisim._member_lin
    calls = []

    def spy(rel, mu, nu):
        calls.append((mu, nu))
        return member_lin(rel, mu, nu)

    monkeypatch.setattr(bisim, "_member_lin", spy)
    return calls


class TestSaturatedRule:
    """Every path of the saturated checking rule, at lambda 0 on q1, in
    auto mode on certified systems, with the exact report each gives."""

    def check(self, s, pairs):
        report = check_lambda_relation(pairs, 0.0, s)
        assert report.mode == "saturated"
        return report

    def point(self, s, src):
        return s.dirac(s.config(src, ground()))

    def test_saturation_outside_the_closure(self, monkeypatch):
        s = fresh()
        x, y = (self.point(s, src) for src in ("tau . a!0 . nil", "tau . a!1 . nil"))
        calls = spy_member_lin(monkeypatch)
        report = self.check(s, [(x, y)])
        assert (report.holds, report.clause, report.direction, report.label) == (
            False, "ii", "left", TAU)
        assert report.pair == (x, y)
        assert report.attack.digest == self.point(s, "a!0 . nil").digest
        assert report.detail == "canonical saturation of the pair is not in the closure"
        assert len(calls) == 1

    def test_unrelated_whole_distribution_derivatives(self):
        s = fresh()
        x, y = (self.point(s, src) for src in ("a!0 . b!0 . nil", "a!0 . b!1 . nil"))
        report = self.check(s, [(x, y)])
        assert (report.holds, report.clause, report.direction, str(report.label)) == (
            False, "ii", "left", "a!0")
        assert report.pair == (x, y)
        assert report.attack.digest == self.point(s, "b!0 . nil").digest
        assert report.detail == "whole-distribution a!0 derivatives are unrelated"

    def targets(self):
        s = fresh()
        mx, my = (s.step(s.config(src, ground()))[0].dist for src in (
            "pchoice { 1/2 -> a!0 . nil ; 1/2 -> nil }",
            "pchoice { 1/2 -> a!0 . c!0 . nil ; 1/2 -> nil }"))
        return s, mx, my

    def assert_half_unmatched(self, report, pair):
        assert (report.holds, report.clause, report.direction, report.label) == (
            False, "iii", "left", TAU)
        assert report.pair == pair
        assert report.attack is None
        assert report.detail == ("only 0.5 class mass matches; "
                                 "0.5 exceeds the allowed 1e-09")

    def test_unrelated_classes(self, monkeypatch):
        s, mx, my = self.targets()
        calls = spy_member_lin(monkeypatch)
        self.assert_half_unmatched(self.check(s, [(mx, my)]), (mx, my))
        assert len(calls) == 1   # the a!0 classes; the nil classes are one

    def test_unrelated_class_derivatives(self, monkeypatch):
        s, mx, my = self.targets()
        ax, ay = ([c.dist for c in tc_decompose(m, s).classes if c.signature][0]
                  for m in (mx, my))
        calls = spy_member_lin(monkeypatch)
        self.assert_half_unmatched(self.check(s, [(mx, my), (ax, ay)]), (mx, my))
        assert len(calls) == 1   # the a!0 derivatives, nil against c!0 . nil

    def test_closure_membership_accepts(self, monkeypatch):
        s = fresh()
        x, y = (s.config(src, ground(q1="+")) for src in (
            "tau . meas Mcomp[q1; x] . c!x . tau . nil", "meas Mcomp[q1; x] . c!x . nil"))
        witness = decide_state_based(x, y, s)
        assert witness.holds
        calls = spy_member_lin(monkeypatch)
        report = self.check(s, witness.witness)
        assert report.holds
        assert report.detail == (f"{2 * len(witness.witness.pairs)} oriented pairs "
                                 "verified; certified: scheduling is deterministic")
        assert len(calls) == 2


class TestLambdaReplay:
    """Above lambda 0 too, a replay re-decides a refutation without a
    certificate by relation search: a holding search disproves it, since a
    ground-bisimilar pair is lambda-bisimilar for every lambda, and a
    refuting one leaves the move the replay verified directly."""

    def refutation(self, right, lam):
        s = fresh()
        x, y = (s.config(src, ground()) for src in ("a!0 . c!0 . nil", right))
        report = check_lambda_relation([(x, y)], lam, s, mode="exhaustive")
        assert (report.holds, report.clause, str(report.label)) == (False, "ii", "a!0")
        return s, x, y, report

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_bisimilar_pair_is_not_confirmed(self, lam):
        # the one-pair relation lacks the pair of a!0 derivatives
        s, x, y, report = self.refutation("a!0 . ( c!0 . nil + c!0 . nil )", lam)
        assert decide_bisim(x, y, s).holds
        assert distance_upper_bound(x, y, s).value == 0.0
        assert not replay_refutation(report, s)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_distinct_pair_is_confirmed(self, lam):
        s, _, _, report = self.refutation("a!0 . c!1 . nil", lam)
        assert replay_refutation(report, s)


class TestClauseIIIReadings:
    """Every checking rule reads clause (iii) one way: a class may be
    matched in part, in proportion to it, and 1 - sum(min(wl, wr)) is left
    unmatched, as the canonical walk leaves it.  The exhaustive rule asks
    it of one LP (`_match_decomposition`).  3/4 a!0 + 1/4 stall against a
    fair coin is 1/4 apart; a reading that matched or dropped whole
    coarsest classes would put it 3/4 apart."""

    def bound(self):
        s = fresh()
        p, q = (s.config(src, ground()) for src in (
            "pchoice { 3/4 -> a!0 . nil ; 1/4 -> nil }",
            "pchoice { 1/2 -> a!0 . nil ; 1/2 -> nil }"))
        bound = distance_upper_bound(p, q, s)
        assert (bound.value, bound.mode, len(bound.witness.pairs)) == (0.25, "canonical", 4)
        return s, p, q, bound.witness

    def test_saturated_rule_holds_the_bound(self):
        s, _, _, witness = self.bound()
        report = check_lambda_relation(witness, 0.25, s)
        assert (report.holds, report.mode) == (True, "saturated")

    def test_exhaustive_rule_needs_a_quarter(self):
        s, p, q, witness = self.bound()
        for lam in (0.24, 0.2499999):
            report = check_lambda_relation(witness, lam, s, mode="exhaustive")
            assert (report.holds, report.clause) == (False, "iii")
            assert ({d.digest for d in report.pair}
                    == {s.step(c)[0].dist.digest for c in (p, q)})
        assert check_lambda_relation(witness, 0.25, s, mode="exhaustive").holds

    def test_exhaustive_rule_holds_at_the_bound(self):
        s, _, _, witness = self.bound()
        assert check_lambda_relation(witness, 0.25, s, mode="exhaustive").holds
