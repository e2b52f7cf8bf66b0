"""Bisimulation checking: consistency, relations, decisions, distances."""

import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qbisim.calculus import parse_module
from qbisim.errors import BudgetExceededError, CyclicModelError, QuantumInputFragmentError
from qbisim.quantum import QubitRegister, QuantumState, _matrix_digest, random_density
from qbisim import bisim
from qbisim.lp import combination_weights
from qbisim.semantics import PLTS, ConfigDistribution, System, TAU, combine
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
    superop_closure_sample_test,
    tc_decompose,
)
from qbisim.bisim import _refine, _strong_attacks

import randsys

R1 = QubitRegister.of(["q1"])
R2 = QubitRegister.of(["q1", "q2"])


def fresh(register=R1):
    return System(parse_module("Dummy := nil"), register=register)


def ground(register=R1, **assignment):
    return QuantumState.product(register, assignment or None)


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
        mix = combine([(0.5, s.dirac(f)), (0.5, s.dirac(n))])
        assert not is_transition_consistent(mix, s)

    def test_weakly_enabled_counts(self):
        # tau . fail!0 and fail!0 share a signature despite distinct strong moves
        s = fresh()
        f = s.config("fail!0 . nil", ground())
        t = s.config("tau . fail!0 . nil", ground())
        mix = combine([(0.5, s.dirac(f)), (0.5, s.dirac(t))])
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
        mix = combine([(0.5, s.dirac(f)), (0.25, s.dirac(n1)), (0.25, s.dirac(n2))])
        dec = tc_decompose(mix, s)
        got = {tuple(sorted(str(l) for l in c.signature)): c.weight
               for c in dec.classes}
        assert got == {(): pytest.approx(0.5), ("fail!0",): pytest.approx(0.5)}

    def test_recombination_and_distinct_signatures(self):
        s = fresh()
        f = s.config("fail!0 . nil", ground())
        n = s.config("nil", ground())
        mix = combine([(0.75, s.dirac(f)), (0.25, s.dirac(n))])
        dec = tc_decompose(mix, s)
        assert sum(c.weight for c in dec.classes) == pytest.approx(1.0)
        rebuilt = combine([(c.weight, c.dist) for c in dec.classes])
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
        assert check_ground_bisim_relation(rel, s, mode="saturated").holds

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
        # visible quantum input forces enumeration; the pair only differs by
        # internal padding after the receive
        s = fresh()
        a = s.config("#c?q . d!0 . nil", ground())
        b = s.config("#c?q . tau . d!0 . nil", ground())
        after_a = s.step(a)[0].dist
        after_b = s.step(b)[0].dist
        rel = [(s.dirac(a), s.dirac(b)), (after_a, after_b)]
        report = check_ground_bisim_relation(rel, s)
        assert report.holds
        assert report.mode == "exhaustive"

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
        left = combine([(0.3, s.dirac(C)), (0.7, mu)])
        right = combine([(0.3, s.dirac(D)), (0.7, CI)])
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
        assert decide_bisim(cfg, cfg, s).holds

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
        probs = {tuple(sorted(e.probs.values())) for e in s.weak_tau_extremes(c)}
        assert (Fraction(3, 100), Fraction(7, 100), Fraction(9, 10)) in probs


class TestMeasuredThirds:
    """A measurement against a 1/3-2/3 choice between two copies of itself.

    State-based bisimilar by construction, like `TestDuplicatedMeasurement`,
    but 1/3 p + 2/3 p need not equal p in floats for a measured p.
    """

    TERM = "meas Mcomp[q1; x] . c!x . nil"

    def pair(self):
        s = fresh()
        rho = random_density(np.random.default_rng(3), 2)
        c = s.config(self.TERM, rho)
        d = s.config(f"pchoice {{ 1/3 -> {self.TERM} ; 2/3 -> {self.TERM} }}", rho)
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


class TestSuperopClosure:
    def test_dephasing_relation_closed(self, dephasing):
        s, C, D, mu, CI = dephasing
        rel = [(s.dirac(C), s.dirac(D)), (mu, CI), (CI, CI)]
        report = superop_closure_sample_test(rel, s, samples=8, seed=3)
        assert report.holds
        assert "q2" in report.detail

    def test_fully_held_register_is_vacuous(self):
        s = fresh()
        cfg = s.config("meas Mcomp[q1; x] . nil", ground(q1="+"))
        report = superop_closure_sample_test([(s.dirac(cfg), s.dirac(cfg))], s,
                                             samples=3, seed=0)
        assert report.holds
        assert "vacuous" in report.detail

    def test_invalid_relation_yields_channel_evidence(self):
        s = fresh()
        a = s.config("nil", np.diag([0.55, 0.45]).astype(complex))
        b = s.config("nil", np.diag([0.45, 0.55]).astype(complex))
        report = superop_closure_sample_test([(s.dirac(a), s.dirac(b))], s,
                                             samples=3, seed=0)
        assert not report.holds
        assert "sample 0" in report.detail
        assert report.clause == "i"

    def test_state_dependence_breaks_under_bit_flip(self):
        """The phenomenon the sampler looks for, driven by hand.

        A receive-then-measure process equals a receive-then-announce-zero
        process exactly when the incoming qubit is |0>; the same family
        rebuilt over the X-flipped state fails clause (ii).  Quantum input
        is the one fragment where a channel on an unheld qubit changes
        behaviour, and responding to the input puts the qubit into the
        pair's quantum variables, so the sampler itself can only reach this
        through the transformed-family check, never a complement channel.
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

        assert check_ground_bisim_relation(family("0"), s).holds
        report = check_ground_bisim_relation(family("1"), s)
        assert not report.holds
        assert report.clause == "ii"


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
            left = combine([(p, system.dirac(m1)), (1 - p, system.dirac(m2))])
            right = combine([(p, system.dirac(n1)), (1 - p, system.dirac(n2))])
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


class TestConfluenceProof:
    """Systems whose certification takes the local-diamond proof: two
    uncoupled silent components interleave their internal moves."""

    PROVED = "certified: confluence proved by local diamonds"

    def test_canonical_agrees_with_relation_search(self):
        """Canonical verdicts on the proof path against relation search.

        The padding variants get the full cross-check.  The duplication
        twin is only decided canonically: relation search refutes some
        twins (`TestDuplicatedMeasurement`) and their canonical witnesses
        fail the literal checker (the strict xfail below).  Against an
        unrelated system only canonical refutations are cross-checked,
        since relation search also refutes some bisimilar pairs
        (`TestRelationSearchFamily`).
        """
        rng = np.random.default_rng(1)
        refuted = 0
        for _ in range(8):
            system, state = randsys.random_system(rng, randsys.REGISTER2)
            base = randsys.random_wide_term(rng)
            c = system.config(base, state)
            *padded, twin = randsys.variants(base)
            for src in padded + [twin, randsys.random_wide_term(rng)]:
                d = system.config(src, state)
                report = decide_bisim(c, d, system)
                assert report.mode == "canonical"
                assert report.detail.endswith(self.PROVED)
                if src == twin:
                    assert report.holds
                    continue
                if src in padded:
                    assert report.holds
                    assert decide_bisim(c, d, system, mode="relation-search").holds
                    assert check_ground_bisim_relation(
                        report.witness, system, mode="exhaustive").holds
                elif not report.holds:
                    refuted += 1
                    assert not decide_bisim(c, d, system, mode="relation-search").holds
                    assert replay_refutation(report, system)
        assert refuted >= 4

    @pytest.mark.xfail(strict=True, reason=(
        "canonical witnesses relate saturations only; the duplicated branches "
        "rename the measurement variable apart, so they stay distinct "
        "configurations and the strong move into one branch has no literal "
        "match in the witness's closure"))
    def test_duplication_witness_is_a_literal_bisimulation(self):
        s = fresh()
        base = "meas Mcomp[q1; x] . nil"
        c = s.config(base, ground(q1="+"))
        d = s.config(randsys.variants(base)[2], ground(q1="+"))
        report = decide_bisim(c, d, s)
        assert report.holds
        assert check_ground_bisim_relation(report.witness, s, mode="exhaustive").holds


def sweep_refine(record, system, members, mu, nu, tol, mode):
    """Reference for `_refine`: the chaotic sweep it ran before its worklist.

    Every pass re-checks every surviving pair against the family as it
    stood at the start of the pass, until a pass deletes nothing.  Clause
    (i) is checked pair by pair, and matches get an empty point-pair index,
    so only the identity coupling skips the LP.  The surviving index pairs
    and the number of passes go into `record`.
    """
    shapes = []
    for m in members:
        sigs = {system.weak_enabled(c) for c in m.support}
        shapes.append(sigs.pop() if len(sigs) == 1 else None)
    alive = set()
    for i, a in enumerate(members):
        for j in range(i, len(members)):
            if (shapes[i] is not None and shapes[j] is not None
                    and shapes[i] != shapes[j]):
                continue
            if bisim._clause_i(a, members[j], tol) is None:
                alive.add((i, j))

    attack_cache = {}

    def violation(a, b, rel):
        for x, y, side in ((a, b, "left"), (b, a, "right")):
            bad = bisim._violation(system, rel, {}, x, y, 0.0, tol, attack_cache)
            if bad is not None:
                return dict(bad, direction=side)
        return None

    def relation():
        return bisim._oriented([(members[i], members[j]) for i, j in sorted(alive)])

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
    bad = violation(mu, nu, relation() + ((mu, nu), (nu, mu))) or {}
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
        (_, ea, _), (_, eb, _) = (bisim._environment(m) for m in members[:2])
        assert _matrix_digest(ea) == _matrix_digest(eb)
        assert ea.tobytes() != eb.tobytes()
        tol = bisim._env_distance(members[0], members[2])
        assert bisim._env_distance(members[1], members[2]) > tol

        reference = {}
        sweep_refine(reference, s, members, members[0], members[1], tol, "state-based")
        alive = bisim._ground_fixpoint(s, members, tol, {})
        assert alive == reference["alive"]
        assert (0, 2) in alive and (1, 2) not in alive


class TestCouplingAnswer:
    """`_match_weak` answers a point defender without an LP when a
    one-to-one coupling along identity and related point pairs maps the
    attack onto one of its weak moves, and in no other case."""

    def point_move(self):
        s = fresh()
        d = s.config("pchoice { 1/4 -> a!0 . nil ; 3/4 -> a!1 . nil }", ground(q1="+"))
        (move,) = s.step(d)
        return s, d, move.dist

    def count_lps(self, monkeypatch) -> list:
        calls = []
        solve = bisim.combination_weights

        def counted(columns, target):
            calls.append(len(columns))
            return solve(columns, target)

        monkeypatch.setattr(bisim, "combination_weights", counted)
        return calls

    def test_exact_match_skips_the_lp(self, monkeypatch):
        s, d, e = self.point_move()
        calls = self.count_lps(monkeypatch)
        attack = ConfigDistribution(dict(e.probs))
        used = set()
        assert bisim._match_weak(s, (), {}, attack, s.dirac(d), TAU, used)
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
        calls = self.count_lps(monkeypatch)
        used = set()
        assert bisim._match_weak(s, pairs, bisim._point_index(pairs), attack,
                                 s.dirac(d), TAU, used)
        assert calls == []
        assert used == {0, 1}

    def test_equal_digests_still_solve_the_lp(self, monkeypatch):
        # 1e-11 apart: one digest (10 decimals), different rationals
        s, d, e = self.point_move()
        (x, p), (y, q) = e.probs.items()
        attack = ConfigDistribution({x: p + 1e-11, y: q - 1e-11})
        assert attack.digest == e.digest
        assert Fraction(attack.probability(x)) != Fraction(p)
        calls = self.count_lps(monkeypatch)
        assert not bisim._match_weak(s, (), {}, attack, s.dirac(d), TAU)
        assert len(calls) == 1

    def test_one_ulp_off_solves_the_lp(self, monkeypatch):
        """Float equality is the test even where the pairs offer a swap:
        an attack one ulp off is a different rational, so the LP decides."""
        s, d, e = self.point_move()
        (x, p), (y, q) = e.probs.items()
        attack = ConfigDistribution({x: math.nextafter(p, 1.0), y: q})
        pairs = [(s.dirac(x), s.dirac(y)), (s.dirac(y), s.dirac(x))]
        calls = self.count_lps(monkeypatch)
        bisim._match_weak(s, pairs, bisim._point_index(pairs), attack,
                          s.dirac(d), TAU)
        assert len(calls) == 1

    def test_mass_below_one_solves_the_lp(self, monkeypatch):
        s, d, e = self.point_move()
        defender = ConfigDistribution({d: 1.0 - 2.0 ** -53})
        calls = self.count_lps(monkeypatch)
        bisim._match_weak(s, (), {}, ConfigDistribution(dict(e.probs)), defender, TAU)
        assert len(calls) == 1

    def test_answered_matches_are_feasible(self, monkeypatch):
        """Every match answered without an LP is one the LP also finds from
        the pairs the answer recorded, the identity carriers and one
        extreme weak move of the defender."""
        calls = self.count_lps(monkeypatch)
        answered = []
        match = bisim._match_weak

        def spy(system, pairs, points, attack, defender, label, used=None):
            before = len(calls)
            recorded = set()
            got = match(system, pairs, points, attack, defender, label, recorded)
            if used is not None:
                used.update(recorded)
            if got and len(calls) == before:
                columns, _ = bisim._closure_columns(
                    [pairs[k] for k in sorted(recorded)], attack)
                target = {("L", c.index): p for c, p in attack}
                target.update((("D", c.index), p) for c, p in defender)
                (d,) = defender.support
                assert any(combination_weights(
                    columns + bisim._extreme_columns([(d, (e,))]), target) is not None
                    for e in bisim._weak_extremes(system, d, label))
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
