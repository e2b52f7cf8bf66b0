"""Transition rules, weak closure, lifting and graph export."""

from fractions import Fraction

import numpy as np
import pytest

import qbisim.calculus as ca
import qbisim.semantics as sem
from qbisim.calculus import Channel, parse_module, parse_term, pretty
from qbisim.errors import (
    BudgetExceededError,
    ChannelDomainError,
    CyclicModelError,
    EvaluationError,
    QuantumInputFragmentError,
    WellFormednessError,
)
from qbisim.quantum import (
    BitString,
    QubitRegister,
    QuantumState,
    _matrix_digest,
    partial_trace,
)
from qbisim.semantics import (
    PLTS,
    ConfigDistribution,
    Label,
    PointMove,
    System,
    Transition,
    TAU,
    _Cap,
    _compose,
    _key,
    relabel_label,
)
from qbisim.bb84 import build_bb84_security_test, eventual_label_probabilities
from qbisim.bisim import (
    _closure_columns,
    _config_sat,
    _member_lin,
    _prepare,
    _Relation,
    check_lambda_relation,
    decide_bisim,
    distance_upper_bound,
    tc_decompose,
)
from qbisim.lp import combination_weights

import randsys

R1 = QubitRegister.of(["q1"])
R2 = QubitRegister.of(["q1", "q2"])


def fresh(source="", register=R1):
    mod = parse_module(source) if source else parse_module("Dummy := nil")
    return System(mod, register=register)


def state(register=R1, assignment=None, default="0"):
    return QuantumState.product(register, assignment, default)


def labels_of(system, config):
    return {str(t.label) for t in system.step(config)}


def only_transition(system, config):
    trans = system.step(config)
    assert len(trans) == 1
    return trans[0]


class TestStepRules:
    def test_nil_has_no_transitions(self):
        s = fresh()
        assert s.step(s.config("nil", state())) == ()

    def test_tau_prefix(self):
        s = fresh()
        t = only_transition(s, s.config("tau . nil", state()))
        assert t.label == TAU
        assert [(p, type(c.term).__name__) for c, p in t.dist] == [(1.0, "Nil")]

    def test_output_evaluates_payload(self):
        s = fresh()
        t = only_transition(s, s.config("c!(1 + 2) . nil", state()))
        assert str(t.label) == "c!3"

    def test_declared_input_enumerates_domain(self):
        s = fresh("channels { c : {0, 1} }\nDummy := nil")
        cfg = s.config("c?x . d!x . nil", state())
        trans = s.step(cfg)
        assert {str(t.label) for t in trans} == {"c?0", "c?1"}
        conts = {str(t.label): t.dist.support[0].term for t in trans}
        assert "d!0 . nil" in __import__("qbisim.calculus", fromlist=["pretty"]).pretty(
            conts["c?0"])

    def test_undeclared_input_is_an_error(self):
        s = fresh()
        with pytest.raises(ChannelDomainError):
            s.step(s.config("c?x . nil", state()))

    def test_real_channel_input_is_an_error(self):
        s = fresh("channels { c : real }\nDummy := nil")
        with pytest.raises(ChannelDomainError):
            s.step(s.config("c?x . nil", state()))

    def test_restricted_input_needs_no_domain(self):
        s = fresh()
        cfg = s.config("(c?x . d!x . nil || c!1 . nil) \\ {c}", state())
        t = only_transition(s, cfg)
        assert t.label == TAU
        follow = only_transition(s, t.dist.support[0])
        assert str(follow.label) == "d!1"

    def test_superop_is_internal(self):
        s = fresh()
        cfg = s.config("apply H[q1] . nil", state())
        t = only_transition(s, cfg)
        assert t.label == TAU
        succ = t.dist.support[0]
        assert np.allclose(succ.matrix, np.full((2, 2), 0.5))

    def test_measurement_branches(self):
        s = fresh()
        cfg = s.config("meas Mcomp[q1; x] . c!x . nil", state(assignment={"q1": "+"}))
        t = only_transition(s, cfg)
        assert t.label == TAU
        got = sorted((round(p, 6), str(only_transition(s, c).label)) for c, p in t.dist)
        assert got == [(0.5, "c!0"), (0.5, "c!1")]

    def test_deterministic_measurement_prunes(self):
        s = fresh()
        cfg = s.config("meas Mcomp[q1; x] . c!x . nil", state(assignment={"q1": "1"}))
        t = only_transition(s, cfg)
        assert len(t.dist) == 1
        assert str(only_transition(s, t.dist.support[0]).label) == "c!1"

    def test_pchoice_is_one_internal_transition(self):
        s = fresh()
        cfg = s.config("pchoice { 1/4 -> a!0 . nil ; 3/4 -> b!0 . nil }", state())
        t = only_transition(s, cfg)
        assert t.label == TAU
        assert sorted(round(p, 6) for _, p in t.dist) == [0.25, 0.75]

    def test_pchoice_merges_identical_branches(self):
        s = fresh()
        cfg = s.config("pchoice { 1/2 -> a!0 . nil ; 1/2 -> a!0 . nil }", state())
        t = only_transition(s, cfg)
        assert len(t.dist) == 1
        assert t.dist.mass == pytest.approx(1.0)

    def test_guard_true_passes_through(self):
        s = fresh()
        cfg = s.config("if 1 = 1 then a!0 . nil", state())
        assert labels_of(s, cfg) == {"a!0"}

    def test_guard_false_blocks(self):
        s = fresh()
        cfg = s.config("if 1 = 2 then a!0 . nil", state())
        assert s.step(cfg) == ()

    def test_guard_must_be_boolean(self):
        s = fresh()
        with pytest.raises(EvaluationError):
            s.step(s.config("if 1 + 1 then a!0 . nil", state()))

    def test_sum_offers_both(self):
        s = fresh()
        cfg = s.config("a!0 . nil + b!1 . nil", state())
        assert labels_of(s, cfg) == {"a!0", "b!1"}

    def test_parallel_interleaves(self):
        s = fresh()
        cfg = s.config("a!0 . nil || b!1 . nil", state())
        assert labels_of(s, cfg) == {"a!0", "b!1"}

    def test_unrestricted_synchronisation_also_offers_parts(self):
        s = fresh("channels { c : {0, 1} }\nDummy := nil")
        cfg = s.config("c!1 . nil || c?x . d!x . nil", state())
        assert labels_of(s, cfg) == {"c!1", "c?0", "c?1", "tau"}

    def test_restriction_filters_labels(self):
        s = fresh()
        cfg = s.config("(a!0 . nil || b!1 . nil) \\ {a}", state())
        assert labels_of(s, cfg) == {"b!1"}

    def test_relabelling_renames(self):
        s = fresh()
        cfg = s.config("a!0 . nil [a -> b]", state())
        assert labels_of(s, cfg) == {"b!0"}

    def test_constant_unfolding(self):
        s = fresh("Send(x;) := c!x . nil")
        cfg = s.config("Send(7;)", state())
        assert labels_of(s, cfg) == {"c!7"}

    @pytest.mark.parametrize("order", [("A(true;)", "A(1;)"), ("A(1;)", "A(true;)")])
    def test_unfolding_keeps_true_apart_from_one(self, order):
        # True == 1.0 in Python; an unfolding memo keyed by raw values
        # would hand A(1) the body A(true) unfolded to, or the reverse
        source = "A(x;) := if x then c!0 . nil"

        def outcome(system, term):
            try:
                return labels_of(system, system.config(term, state()))
            except EvaluationError as err:
                return str(err)

        shared = fresh(source)
        assert [outcome(shared, term) for term in order] == [
            outcome(fresh(source), term) for term in order]
        assert outcome(fresh(source), "A(true;)") == {"c!0"}
        assert "expected a boolean" in outcome(fresh(source), "A(1;)")

    def test_recursion_through_prefix_is_fine(self):
        s = fresh("Loop := a!0 . Loop")
        cfg = s.config("Loop", state())
        t = only_transition(s, cfg)
        assert t.dist.support[0] is cfg or t.dist.support[0].term == cfg.term

    def test_unguarded_recursion_detected(self):
        s = fresh("Bad := Bad")
        with pytest.raises(CyclicModelError):
            s.step(s.config("Bad", state()))

    def test_unguarded_recursion_in_a_parallel_component(self):
        s = fresh("Bad := Bad")
        with pytest.raises(CyclicModelError):
            s.step(s.config("a!0 . nil || Bad", state()))

    def test_unguarded_recursion_after_a_sibling_was_stepped(self):
        s = fresh("Bad := Bad")
        assert labels_of(s, s.config("a!0 . nil || b!1 . nil", state())) == {"a!0", "b!1"}
        cfg = s.config("a!0 . nil || Bad", state())
        for _ in range(2):
            with pytest.raises(CyclicModelError):
                s.step(cfg)

    def test_call_site_validation(self):
        s = fresh("A(; q) := apply H[q] . nil")
        with pytest.raises(WellFormednessError, match=r"term: call to A with arity \(1; 1\)"):
            s.config("A(1; q1)", state())
        for root in ("Nope", "tau . (nil + Nope)"):
            with pytest.raises(WellFormednessError, match="term: call to undefined process Nope"):
                s.config(root, state())

    def test_unfolding_checks_calls_of_an_unchecked_module(self):
        # `define` without `check`: only unfolding sees the bad calls
        mod = ca.Module()
        mod.define(ca.Definition("A", (), (), ca.Call("B")))
        mod.define(ca.Definition("C", (), (), ca.Call("A", (ca.Lit(1.0),))))
        s = System(mod, register=R1)
        with pytest.raises(WellFormednessError, match="call to undefined process B"):
            s.step(s.config("A", state()))
        with pytest.raises(WellFormednessError,
                           match=r"call to A with arity \(1; 0\), defined with \(0; 0\)"):
            s.step(s.config("C", state()))


class TestQuantumExchange:
    def test_quantum_output(self):
        s = fresh(register=R1)
        cfg = s.config("#c!q1 . nil", state())
        assert labels_of(s, cfg) == {"#c!q1"}

    def test_quantum_input_over_free_qubits(self):
        s = fresh(register=R2)
        cfg = s.config("#c?q . apply H[q] . nil", state(R2))
        assert labels_of(s, cfg) == {"#c?q1", "#c?q2"}

    def test_quantum_input_skips_held_qubits(self):
        s = fresh(register=R2)
        cfg = s.config("#c?q . apply CNOT[q, q1] . nil", state(R2))
        # q1 is already held by the continuation, so only q2 can arrive
        assert labels_of(s, cfg) == {"#c?q2"}

    def test_quantum_input_blocked_by_parallel_holder(self):
        s = fresh(register=R2)
        cfg = s.config("#c?q . apply H[q] . nil || apply X[q2] . nil", state(R2))
        assert "#c?q2" not in labels_of(s, cfg)
        assert "#c?q1" in labels_of(s, cfg)

    def test_qubit_handoff(self):
        s = fresh(register=R1)
        cfg = s.config("(#c!q1 . nil || #c?q . apply X[q] . d!0 . nil) \\ {#c}", state())
        t = only_transition(s, cfg)
        assert t.label == TAU
        mid = t.dist.support[0]
        follow = only_transition(s, mid)
        assert follow.label == TAU
        final = follow.dist.support[0]
        assert np.allclose(final.matrix, np.array([[0, 0], [0, 1]], dtype=complex))
        assert labels_of(s, final) == {"d!0"}

    def test_wellformedness_send_keeps_nothing(self):
        s = fresh(register=R1)
        with pytest.raises(WellFormednessError):
            s.config("#c!q1 . apply H[q1] . nil", state())


def step_signature(system, config):
    """Labels in order, and each target's term, matrix and exact weight."""
    return [(t.label, [(p, type(p), c.term, _matrix_digest(c.matrix)) for c, p in t.dist])
            for t in system.step(config)]


class TestCompositionalStepping:
    """Stepping a configuration on a system that has already stepped many
    others gives what a fresh system gives when it steps that one alone."""

    @staticmethod
    def assert_warm_matches_cold(system, root):
        for config in system.reachable([root]):
            cold = System(system.module, register=system.register)
            alone = cold.config(config.term, config.matrix)
            assert step_signature(system, config) == step_signature(cold, alone), \
                pretty(config.term)

    @pytest.mark.parametrize("name", sorted(randsys.PAR_SYSTEMS))
    def test_hand_written(self, name):
        self.assert_warm_matches_cold(*randsys.par_system(name))

    def test_random_parallel(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            system, rho = randsys.random_system(rng, randsys.REGISTER2)
            root = system.config(randsys.random_par_term(rng, 2), rho)
            self.assert_warm_matches_cold(system, root)

    def test_random_relabelled(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            system, rho = randsys.random_system(rng, randsys.REGISTER2)
            root = system.config(randsys.random_relabelled_term(rng), rho)
            self.assert_warm_matches_cold(system, root)

    @pytest.mark.parametrize("shape", randsys.NESTED_SHAPES)
    def test_random_nested(self, shape):
        rng = np.random.default_rng(8)
        for _ in range(6):
            system, rho = randsys.random_system(rng, randsys.REGISTER2)
            root = system.config(randsys.random_nested_term(rng, shape), rho)
            self.assert_warm_matches_cold(system, root)


class _Unpruned(System):
    """Steps a restricted or relabelled composition without pruning: the
    whole bare `_step_par` output of its parts, which it then filters and
    wraps in the restriction, and renames and wraps in the relabelling, as
    `Restrict` and `Relabel` rules apart from the composition would.
    Targets are components, so wrapping one takes the key of the wrapped
    term.  A bare key of one part is an empty restriction, whose targets
    are its part's.  Counts the part moves the filter drops."""

    hidden_moves = 0

    def _step_par(self, key, mat, fuel):
        hidden, relabel = key[0], key[1]
        moves, caps = super()._step_par((frozenset(), None) + key[2:], mat, fuel)
        if hidden:
            kept = [(label, branches) for label, branches in moves
                    if not (label.visible and label.chan in hidden)]
            self.hidden_moves += len(moves) - len(kept)
            moves, caps = self._wrap(
                kept, [cap for cap in caps if cap.chan not in hidden],
                lambda k: _key(ca.Restrict(_compose(k), hidden)), lambda chan: chan)
        if relabel is not None:
            renamed = dict(relabel)
            moves, caps = self._wrap(
                [(relabel_label(label, relabel), branches) for label, branches in moves],
                caps, lambda k: _key(ca.Relabel(_compose(k), relabel)),
                lambda chan: renamed.get(chan, chan))
        return moves, caps

    @staticmethod
    def _wrap(moves, caps, wrap_key, rename):
        out_moves = [(label, tuple((p, wrap_key(k), s) for p, k, s in branches))
                     for label, branches in moves]
        out_caps = []
        for cap in caps:

            def wrap(v, inst=cap.instantiate):
                k = inst(v)
                return None if k is None else wrap_key(k)

            out_caps.append(_Cap(rename(cap.chan), wrap))
        return out_moves, out_caps


class TestRestrictedStepping:
    """A restricted composition skips the component moves and input
    capabilities on its hidden channels, and builds each target inside its
    restriction and relabelling at once; every configuration still has
    the transitions, in the order, that unpruned stepping gives it."""

    @staticmethod
    def assert_matches_unpruned(system, root):
        reference = _Unpruned(system.module, register=system.register)
        for config in system.reachable([root]):
            twin = reference._intern_key(_key(config.term), config.matrix)
            assert step_signature(system, config) == step_signature(reference, twin), \
                pretty(config.term)
        return reference.hidden_moves

    def test_bb84_security_n1(self):
        instance = build_bb84_security_test(1)
        system = System(instance.system.module, register=instance.register)
        (config,) = instance.root.support
        root = system.config(config.term, config.matrix)
        assert self.assert_matches_unpruned(system, root) > 0

    @pytest.mark.parametrize("name", sorted(randsys.PAR_SYSTEMS))
    def test_hand_written(self, name):
        assert self.assert_matches_unpruned(*randsys.par_system(name)) > 0

    def test_random_parallel(self):
        rng = np.random.default_rng(4)
        hidden = 0
        for _ in range(10):
            system, rho = randsys.random_system(rng, randsys.REGISTER2)
            root = system.config(randsys.random_par_term(rng, 2), rho)
            hidden += self.assert_matches_unpruned(system, root)
        assert hidden > 0

    def test_random_relabelled(self):
        rng = np.random.default_rng(5)
        hidden = 0
        for _ in range(10):
            system, rho = randsys.random_system(rng, randsys.REGISTER2)
            root = system.config(randsys.random_relabelled_term(rng), rho)
            hidden += self.assert_matches_unpruned(system, root)
        assert hidden > 0

    @pytest.mark.parametrize("shape", randsys.NESTED_SHAPES)
    def test_random_nested(self, shape):
        rng = np.random.default_rng(8)
        hidden = 0
        for _ in range(6):
            system, rho = randsys.random_system(rng, randsys.REGISTER2)
            root = system.config(randsys.random_nested_term(rng, shape), rho)
            hidden += self.assert_matches_unpruned(system, root)
        assert hidden > 0

    def test_hidden_output_only_synchronises(self):
        s = fresh()
        cfg = s.config("( c!0 . nil || c?x . d!x . nil ) \\ {c}", state())
        assert cfg.key == (cfg.term.channels, None, *cfg.term.body.parts)
        moves, caps = s._step_par(cfg.key, cfg.matrix, 1)
        assert [label for label, _ in moves] == [TAU] and caps == []
        assert [t.label for t in s.step(cfg)] == [TAU]


class TestComponentKeys:
    """A configuration is interned under the component of its term, a
    leaf term or a key `(hidden, relabel, *parts)` whose parts are
    components, and its term is built only when read."""

    @staticmethod
    def security_roots(n):
        instance = build_bb84_security_test(n)
        system = System(instance.system.module, register=instance.register)
        return system, [system.config(c.term, c.matrix)
                        for c in instance.root.support + instance.ideal.support]

    @staticmethod
    def assert_term_interns_back(system, roots):
        for config in system.reachable(roots):
            assert _key(config.term) == config.key, pretty(config.term)
            assert system.config(config.term, config.matrix) is config, pretty(config.term)

    @pytest.mark.parametrize("n", [1, 2])
    def test_security_reach(self, n):
        self.assert_term_interns_back(*self.security_roots(n))

    @pytest.mark.parametrize("name", sorted(randsys.PAR_SYSTEMS))
    def test_hand_written(self, name):
        system, root = randsys.par_system(name)
        self.assert_term_interns_back(system, [root])

    @pytest.mark.parametrize("shape", randsys.NESTED_SHAPES)
    def test_random_nested(self, shape):
        rng = np.random.default_rng(8)
        for _ in range(6):
            system, rho = randsys.random_system(rng, randsys.REGISTER2)
            self.assert_term_interns_back(
                system, [system.config(randsys.random_nested_term(rng, shape), rho)])

    @pytest.mark.parametrize("term", [
        "( tau . ( c!0 . nil || c?x . d!x . nil ) ) \\ {c}",
        "( tau . ( a!0 . nil || b!1 . nil ) ) [a -> e]",
        "( tau . ( ( a!0 . nil || b!1 . nil ) \\ {a} ) ) [b -> e]",
        "( tau . ( ( a!0 . nil ) \\ {} ) ) [a -> e]",
        "( tau . ( ( a!0 . nil || b!1 . nil ) \\ {} ) ) [a -> e]",
        "( tau . ( ( a!0 . nil || b!1 . nil ) [a -> e] ) ) \\ {b}",
    ])
    def test_one_component_targets(self, term):
        # a one-part key's target may itself be a composition or a
        # restriction, whose parts the key of the same term joins
        s = fresh()
        self.assert_term_interns_back(s, [s.config(term, state())])

    @pytest.mark.parametrize("source, targets", [
        ("( tau . a!0 . nil ) \\ {}", ["a!0 . nil"]),
        ("( tau . a!0 . nil || b!0 . nil ) \\ {}",
         ["a!0 . nil || b!0 . nil", "tau . a!0 . nil || nil"]),
        ("( ( tau . a!0 . nil ) \\ {} || b!0 . nil ) \\ {b}",
         ["(a!0 . nil || b!0 . nil) \\ {b}"]),
        ("( ( tau . a!0 . nil ) \\ {} ) [a -> c]", ["a!0 . nil [a -> c]"]),
    ])
    def test_a_step_leaves_an_empty_restriction_behind(self, source, targets):
        s = fresh()
        cfg = s.config(source, state())
        assert [pretty(c.term) for t in s.step(cfg) for c in t.dist.support] == targets

    def test_reach_builds_no_composed_term(self, monkeypatch):
        system, roots = self.security_roots(2)
        rng = np.random.default_rng(7)
        nested = []
        for shape in randsys.NESTED_SHAPES:
            s, rho = randsys.random_system(rng, randsys.REGISTER2)
            nested.append((s, s.config(randsys.random_nested_term(rng, shape), rho)))
        made = []
        cons = ca._cons

        def counting(cls, fields, key=None):
            if cls is ca.Par:
                entry = ca._TABLE.get((cls,) + fields)
                if entry is None or entry() is None:
                    made.append(fields)
            return cons(cls, fields, key)

        def composing(comp):
            raise AssertionError("stepping built a configuration's term")

        monkeypatch.setattr(ca, "_cons", counting)
        monkeypatch.setattr(sem, "_compose", composing)
        reached = system.reachable(roots)
        assert len(reached) == 6728
        assert made == []
        for s, root in nested:
            reached += s.reachable([root])
        assert len(reached) == 6728 + 63
        # the only new compositions are the two a measurement substitutes
        # its outcome into (fewer when a live term already holds them)
        assert len(made) <= 2

    @pytest.mark.parametrize("wrapped, bare", [
        ("( c!0 . nil ) \\ {}", "c!0 . nil"),
        ("( c!0 . nil ) [c -> d]", "c!0 . nil"),
        ("( c!0 . nil || c?x . nil ) \\ {c}", "c!0 . nil || c?x . nil"),
        ("( c!0 . nil || c?x . nil ) \\ {}", "c!0 . nil || c?x . nil"),
    ])
    def test_wrappers_keep_configurations_apart(self, wrapped, bare):
        s = fresh()
        rho = state()
        outer, inner = s.config(wrapped, rho), s.config(bare, rho)
        assert outer.matrix is inner.matrix
        assert outer is not inner and outer.key != inner.key
        assert outer.term is parse_term(wrapped) and inner.term is parse_term(bare)


class TestAcyclicityMemo:
    """One post-order walk (`_prepare` over `System.post_order`) proves a
    reach once: each configuration it finishes keeps its facts, and a walk
    that finds a cycle keeps nothing."""

    @staticmethod
    def proves(s, root) -> bool:
        """Does `_prepare` prove the reach of `root` acyclic?"""
        try:
            _prepare(s, [s.dirac(root)])
        except CyclicModelError:
            return False
        return True

    @staticmethod
    def proved(s) -> set:
        return {c.index for table in s._configs.values() for c in table.values()
                if c.facts}

    def test_proved_configurations_do_not_hide_a_cycle(self):
        s = fresh("Loop := tau . Loop")
        assert self.proves(s, s.config("tau . nil", state()))
        # the nil successor is proved; the Loop branch still closes a cycle
        assert not self.proves(s, s.config("tau . nil + tau . Loop", state()))
        assert not self.proves(s, s.config("Loop", state()))

    def test_cycle_records_nothing(self):
        s = fresh("Loop := tau . Loop")
        assert self.proves(s, s.config("tau . nil", state()))
        before = self.proved(s)
        assert before
        assert not self.proves(s, s.config("a!0 . nil + tau . Loop", state()))
        assert self.proved(s) == before

    def test_repeated_proof_steps_nothing(self, monkeypatch):
        s = fresh("Loop := tau . Loop")
        root = s.config("tau . nil", state())
        assert self.proves(s, root)
        stepped = []
        step = s.step
        monkeypatch.setattr(s, "step", lambda c: stepped.append(c) or step(c))
        assert self.proves(s, root)
        assert stepped == [] and s.post_order([root]) == []
        # a new root is walked, but not past the proved configurations
        longer = s.config("tau . tau . nil", state())
        assert self.proves(s, longer)
        assert stepped == [longer]


class TestPostOrder:
    """`System.post_order` lists a reach in a finishing order, and the facts
    `_prepare` keeps on each configuration are those of its reach."""

    def test_each_configuration_follows_its_successors(self):
        inst = build_bb84_security_test(1)
        s = inst.system
        order = s.post_order(inst.root.support, skip_proved=False)
        assert len(order) == len(s.reachable(inst.root.support))
        place = {c.index: k for k, c in enumerate(order)}
        assert len(place) == len(order)
        for c in order:
            for t in c.moves:
                assert all(place[d.index] < place[c.index] for d in t.dist.probs)

    def test_a_cold_walk_interns_breadth_first(self):
        """Configurations new to a walk are interned in the order
        `reachable` interns them, across all of its roots."""
        source = "P := pchoice { 1/2 -> tau . a!0 . nil ; 1/2 -> b!0 . tau . nil }"
        texts = ("P || tau . P", "tau . tau . c!0 . P")
        walked, stepped = fresh(source), fresh(source)
        roots = [[s.config(t, state()) for t in texts] for s in (walked, stepped)]
        walked.post_order(roots[0])
        stepped.reachable(roots[1])
        indexed = [[(c.index, c.key) for c in s.reachable(r)]
                   for s, r in ((walked, roots[0]), (stepped, roots[1]))]
        assert indexed[0] == indexed[1]

    def test_deep_chain_needs_no_recursion(self):
        s = fresh("Chain(n;) := if n < 2000 then ( a!0 . Chain(n + 1;) )")
        root = s.config("Chain(0;)", state())
        order = s.post_order([root])
        assert len(order) == 2001 and order[-1] is root
        assert _prepare(s, [s.dirac(root)]) == (True, "certified: scheduling is deterministic")

    def test_facts_are_those_of_the_reach(self):
        s = fresh()
        root = s.config("a!0 . ( b!0 . nil + tau . nil )", state())
        assert _prepare(s, [s.dirac(root)]) == (
            False, "a visibly-enabled configuration has internal moves")
        mixed = s.config("b!0 . nil + tau . nil", state())
        inert = s.config("nil", state())
        assert inert.facts and root.facts == mixed.facts != inert.facts

    def test_a_cycle_is_refused_before_a_quantum_input(self):
        """The fold reads the finishing order, which only an acyclic reach
        has, so a reach with both a cycle and a visible quantum input
        raises CyclicModelError, whichever the walk meets first."""
        s = fresh("Loop := tau . Loop")
        for text in ("#c?r . nil + tau . Loop", "tau . Loop + #c?r . nil"):
            with pytest.raises(CyclicModelError):
                _prepare(s, [s.dirac(s.config(text, state()))])
        with pytest.raises(QuantumInputFragmentError):
            _prepare(s, [s.dirac(s.config("#c?r . nil + tau . nil", state()))])

    def test_a_refused_input_keeps_the_facts_below_it(self):
        s = fresh()
        below = s.config("a!0 . nil", state())
        with pytest.raises(QuantumInputFragmentError):
            _prepare(s, [s.dirac(s.config("#c?r . nil + tau . a!0 . nil", state()))])
        assert below.facts and s.post_order([below]) == []


class TestIndexedWalks:
    """`reachable` marks, and `eventual_label_probabilities` memoises, by
    configuration index in arrays that a cold walk outgrows as stepping
    interns configurations."""

    SOURCE = "P := pchoice { 1/2 -> tau . a!0 . nil ; 1/2 -> b!0 . tau . nil }"
    TEXTS = ("P || tau . P", "tau . tau . c!0 . P", "meas Mcomp[q1; x] . d!x . nil")

    def roots(self):
        s = fresh(self.SOURCE)
        return s, [s.config(t, state(assignment={"q1": "+"})) for t in self.TEXTS]

    @staticmethod
    def indexed(configs):
        return [(c.index, c.key) for c in configs]

    def test_a_cold_reach_is_the_stepped_one(self):
        cold, roots = self.roots()
        assert cold._n_configs == len(roots)
        reach = self.indexed(cold.reachable(roots))
        stepped, again = self.roots()
        stepped.reachable(again)
        assert len(reach) == cold._n_configs > len(roots)
        assert reach == self.indexed(stepped.reachable(again))

    def test_cold_probabilities_are_the_stepped_ones(self):
        cold, roots = self.roots()
        stepped, again = self.roots()
        for q in again:  # in the order the cold folds walk them
            stepped.reachable([q])
        got, want = ([{str(l): p for l, p in eventual_label_probabilities(
            s, s.dirac(r)).items()} for r in rs] for s, rs in ((cold, roots), (stepped, again)))
        assert got == want and got[0] == {"a!0": 0.75, "b!0": 0.75}
        assert self.indexed(cold.reachable(roots)) == self.indexed(stepped.reachable(again))

    def test_the_budget_stops_at_the_same_configuration(self):
        s, roots = self.roots()
        full = self.indexed(s.reachable(roots))
        for budget in (1, 7, len(full) - 1):
            cold, again = self.roots()
            stepped = []
            step = cold.step
            cold.step = lambda c: stepped.append(c) or step(c)
            with pytest.raises(BudgetExceededError) as err:
                cold.reachable(again, max_configs=budget)
            assert err.value.budget == budget
            assert self.indexed(stepped) == full[:budget]
        cold, again = self.roots()
        assert self.indexed(cold.reachable(again, max_configs=len(full))) == full

    def test_proved_reach_is_skipped(self):
        s = fresh()
        below = s.config("a!0 . nil", state())
        _prepare(s, [s.dirac(below)])
        root = s.config("tau . ( a!0 . nil + b!0 . nil )", state())
        other = s.config("tau . a!0 . nil", state())
        walked = s.reachable([other, root], skip_proved=True)
        choice = s.config("a!0 . nil + b!0 . nil", state())
        assert walked == [other, root, choice]
        assert s.reachable([below, other], skip_proved=True) == [other]
        inert = s.config("nil", state())
        assert s.reachable([other, root]) == [other, root, below, choice, inert]


class TestSpecExamples:
    def test_com_c_with_restriction_is_forced(self):
        s = fresh()
        cfg = s.config("(c!0 . nil || c?x . d!x . nil) \\ {c}", state())
        t = only_transition(s, cfg)
        assert t.label == TAU and len(t.dist) == 1

    def test_measurement_on_plus_gives_example_distribution(self):
        s = fresh(register=R2)
        rho = state(R2, assignment={"q1": "+", "q2": "1"})
        cfg = s.config("meas Mcomp[q1; x] . nil", rho)
        t = only_transition(s, cfg)
        assert sorted(round(p, 12) for _, p in t.dist) == [0.5, 0.5]
        # environment of the successor distribution is I/2 (x) rho_env
        keep, env = t.dist.environment()
        assert keep == ("q1", "q2")
        expect = np.kron(np.eye(2) / 2, [[0, 0], [0, 1]])
        assert np.allclose(env, expect)

    def test_superop_route_gives_same_environment(self):
        s = fresh(register=R2)
        rho = state(R2, assignment={"q1": "+", "q2": "1"})
        c = s.config("meas Mcomp[q1; x] . nil", rho)
        d = s.config("apply Dephase[q1] . nil", rho)
        mu = s.step(c)[0].dist
        delta = s.step(d)[0].dist
        _, env_mu = mu.environment()
        _, env_delta = delta.environment()
        assert np.allclose(env_mu, env_delta)

    def test_env_traces_out_held_qubits(self):
        s = fresh(register=R2)
        rho = state(R2, assignment={"q1": "+", "q2": "1"})
        cfg = s.config("apply Dephase[q1] . nil", rho)
        keep, env = s.dirac(cfg).environment()
        assert keep == ("q2",)
        assert np.allclose(env, [[0, 0], [0, 1]])


class TestWeakClosure:
    def test_no_tau_reflexive(self):
        s = fresh()
        cfg = s.config("a!0 . nil", state())
        ext = s.weak_extremes(cfg, TAU)
        assert ext == (s.dirac(cfg),)

    def test_stop_or_step(self):
        s = fresh()
        cfg = s.config("tau . nil", state())
        ext = s.weak_extremes(cfg, TAU)
        assert len(ext) == 2

    def test_two_component_schedules(self):
        s = fresh()
        cfg = s.config("tau . nil || tau . nil", state())
        ext = s.weak_extremes(cfg, TAU)
        assert len(ext) == 4

    def test_weak_visible_through_tau(self):
        s = fresh()
        finals = set()
        for src in ("tau . c!0 . nil", "c!0 . nil"):
            cfg = s.config(src, state())
            out = s.weak_extremes(cfg, Label(Label.OUT, Channel("c"), 0.0))
            assert len(out) == 1
            (final, p), = tuple(out[0])
            assert p == 1.0
            finals.add(final)
        # so a mixture of the two has one weak c!0 move as well
        assert len(finals) == 1

    def test_weak_visible_requires_full_support(self):
        s = fresh()
        cfg = s.config(
            "meas Mcomp[q1; x] . (if x = 0 then c!0 . nil else d!0 . nil)",
            state(assignment={"q1": "+"}))
        # after the measurement, half the mass enables c!0 and half d!0
        assert s.weak_extremes(cfg, Label(Label.OUT, Channel("c"), 0.0)) == ()
        assert s.weak_enabled(cfg) == frozenset()

    def test_weak_enabled_via_tau(self):
        s = fresh()
        cfg = s.config("tau . tau . c!1 . nil", state())
        assert {str(l) for l in s.weak_enabled(cfg)} == {"c!1"}

    def test_internal_cycle_raises(self):
        s = fresh("Spin := tau . Spin")
        cfg = s.config("Spin", state())
        with pytest.raises(CyclicModelError):
            s.weak_extremes(cfg, TAU)

    @pytest.mark.parametrize("first", ["A", "B"])
    def test_cycle_raises_in_any_query_order(self, first):
        """A search that cut the cycle and cached the cut answer gave
        weak_enabled(B) = {} when A was asked first, {a!0} when B was."""
        s = fresh("A := tau . B + a!0 . nil\nB := tau . A")
        cfgs = {name: s.config(name, state()) for name in "AB"}
        a0 = Label(Label.OUT, Channel("a"), 0.0)
        for name in (first, "AB".replace(first, "")):
            with pytest.raises(CyclicModelError):
                s.weak_enabled(cfgs[name])
            for label in (TAU, a0):
                with pytest.raises(CyclicModelError):
                    s.weak_extremes(cfgs[name], label)
        with pytest.raises(CyclicModelError):
            tc_decompose(s.dirac(cfgs["B"]), s)

    def test_budget_guard(self):
        src = " || ".join(["tau . nil"] * 12)
        s = fresh()
        s.budget = 100
        cfg = s.config(src, state())
        with pytest.raises(BudgetExceededError):
            s.weak_extremes(cfg, TAU)


class TestLifting:
    """Lifting a relation to distributions: membership in the convex closure
    of a pair family plus identity pairs, as the bisimulation checks use it."""

    def test_dirac_pair(self):
        s = fresh()
        a = s.config("nil", state())
        b = s.config("tau . nil", state())
        nu = s.dirac(b)
        assert _member_lin(_Relation([(s.dirac(a), nu)]), s.dirac(a), nu)

    def test_linearity(self):
        s = fresh()
        a = s.config("a!0 . nil", state())
        b = s.config("b!0 . nil", state())
        na = s.dirac(s.config("nil", state()))
        nb = s.dirac(s.config("tau . nil", state()))
        pairs = _Relation([(s.dirac(a), na), (s.dirac(b), nb)])
        mu = ConfigDistribution({a: 0.3, b: 0.7})
        nu = s.combine([(0.3, na), (0.7, nb)])
        assert _member_lin(pairs, mu, nu)

    def test_wrong_mixture_fails(self):
        s = fresh()
        a = s.config("a!0 . nil", state())
        b = s.config("b!0 . nil", state())
        na = s.dirac(s.config("nil", state()))
        nb = s.dirac(s.config("tau . nil", state()))
        pairs = _Relation([(s.dirac(a), na), (s.dirac(b), nb)])
        mu = ConfigDistribution({a: 0.3, b: 0.7})
        nu = s.combine([(0.7, na), (0.3, nb)])
        assert not _member_lin(pairs, mu, nu)

    def test_empty_relation_lifts_nothing(self):
        # nothing beyond the implicit identity pairs
        s = fresh()
        a = s.dirac(s.config("a!0 . nil", state()))
        n = s.dirac(s.config("nil", state()))
        assert not _member_lin(_Relation([]), a, n)
        assert _member_lin(_Relation([]), a, a)

    def test_weights_are_exact(self):
        s = fresh()
        a = s.dirac(s.config("a!0 . nil", state()))
        target = s.dirac(s.config("nil", state()))
        columns, _ = _closure_columns(_Relation([(a, target), (a, target)]), a, target.probs)
        goal = {("L", c.index): p for c, p in a}
        goal.update((("R", d.index), q) for d, q in target)
        w = combination_weights(columns, goal)
        assert sum(w) == 1


class TestGraphExport:
    def test_nil_graph(self):
        s = fresh()
        g = PLTS(s, s.config("nil", state()))
        assert len(g.configs) == 1 and g.edges == [] and g.acyclic

    def test_output_graph(self):
        s = fresh()
        g = PLTS(s, s.config("c!0 . nil", state()))
        assert len(g.configs) == 2 and len(g.edges) == 1

    def test_example_counter_graph_has_three_states(self):
        s = fresh(register=R2)
        rho = state(R2, assignment={"q1": "+", "q2": "1"})
        g = PLTS(s, s.config("meas Mcomp[q1; x] . nil", rho))
        assert len(g.configs) == 3

    def test_json_shape(self):
        s = fresh()
        g = PLTS(s, s.config("c!0 . nil", state()))
        d = g.to_json()
        assert {"register", "root", "acyclic", "states", "transitions"} <= set(d)
        assert d["states"][0].keys() >= {"id", "term", "qv", "env_digest"}
        assert d["transitions"][0]["target"][0].keys() == {"id", "p"}

    def test_dot_output(self):
        s = fresh()
        g = PLTS(s, s.config(
            "meas Mcomp[q1; x] . nil", state(assignment={"q1": "+"})))
        dot = g.to_dot()
        assert dot.startswith("digraph")
        assert "style=dashed" in dot  # probabilistic branch rendering

    def test_cyclic_graph_flagged(self):
        s = fresh("Loop := a!0 . Loop")
        g = PLTS(s, s.config("Loop", state()))
        assert not g.acyclic

    def test_config_budget(self):
        s = fresh("Grow(x;) := c!x . Grow(x + 1;)")
        with pytest.raises(BudgetExceededError):
            PLTS(s, s.config("Grow(0;)", state()), max_configs=40)


class TestInterning:
    def test_measurement_branches_merge_on_equal_continuations(self):
        s = fresh(register=R1)
        cfg = s.config("meas Mcomp[q1; x] . nil", state(assignment={"q1": "+"}))
        t = only_transition(s, cfg)
        # different post-states keep the branches apart
        assert len(t.dist) == 2
        terms = {c.term for c, _ in t.dist}
        assert len(terms) == 1

    def test_identical_configs_are_identical_objects(self):
        s = fresh()
        a = s.config("c?x . nil || nil", state())
        b = s.config("c?y . nil || nil", state())
        assert a is b

    def test_alpha_variants_merge(self):
        s = fresh()
        a = s.config(parse_term("c?x . d!x . nil"), state())
        b = s.config(parse_term("c?z . d!z . nil"), state())
        assert a is b


class TestStateValidation:
    """`System.config` checks each density matrix object once: a matrix the
    system has interned was checked when it came in, or the engine made it."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        check = sem.check_density_matrix
        monkeypatch.setattr(sem, "check_density_matrix",
                            lambda mat, tol: calls.append(mat) or check(mat, tol))
        return calls

    def test_same_object_is_checked_once(self, checked):
        s = fresh()
        rho = np.diag([0.25, 0.75]).astype(complex)
        s.config("c!0 . nil", rho)
        s.config("d!0 . nil", rho)
        assert len(checked) == 1

    def test_engine_made_matrix_is_not_checked(self, checked):
        s = fresh()
        cfg = s.config("meas Mcomp[q1; x] . c!x . nil", np.eye(2) / 2)
        post = next(iter(only_transition(s, cfg).dist))[0].matrix
        s.config("nil", post)
        assert len(checked) == 1

    def test_equal_fresh_array_is_checked_again(self, checked):
        s = fresh()
        rho = np.diag([0.25, 0.75]).astype(complex)
        a = s.config("c!0 . nil", rho)
        b = s.config("c!0 . nil", rho.copy())
        assert a is b
        assert len(checked) == 2

    def test_invalid_matrix_raises_on_first_use(self, checked):
        s = fresh()
        bad = np.diag([1.5, -0.5]).astype(complex)
        for _ in range(2):
            with pytest.raises(ValueError, match="negative eigenvalue"):
                s.config("c!0 . nil", bad)
        assert len(checked) == 2


def exact(dist) -> tuple:
    """What makes two distributions one object on a System: configurations
    in order, with each probability's type and value."""
    return tuple((c, p.__class__, p) for c, p in dist.probs.items())


def refers_to(root, target) -> bool:
    """Does `root` reach `target` through tuples, named tuples included?"""
    todo, seen = [root], set()
    while todo:
        x = todo.pop()
        if x is target:
            return True
        if isinstance(x, tuple) and id(x) not in seen:
            seen.add(id(x))
            todo.extend(x)
    return False


class TestSharedDistributions:
    """Distributions are immutable, so a combination that reproduces one
    part returns that part itself, with its cached digest; a move of
    weight exactly int 1 reads the point distribution of its target, and a
    configuration whose moves are all internal shares its step tuple.
    Every other combination, and every transition-consistent class, is
    the System's one object for its exact probabilities."""

    def test_equal_combinations_are_one_object(self):
        s = fresh()
        x, y = s.config("a!0 . nil", state()), s.config("b!0 . nil", state())
        mix = s.combine([(Fraction(1, 3), s.dirac(x)), (Fraction(2, 3), s.dirac(y))])
        assert s.combine([(Fraction(1, 3), s.dirac(x)), (Fraction(2, 3), s.dirac(y))]) is mix
        # another mixture with the same exact result, in the same order
        half = s.combine([(Fraction(1, 2), s.dirac(x)), (Fraction(1, 2), s.dirac(y))])
        assert s.combine([(Fraction(2, 3), half), (Fraction(1, 3), s.dirac(y))]) is mix

    def test_a_decision_and_its_replay_share_their_distributions(self, monkeypatch):
        s = fresh()
        st = state(assignment={"q1": "+"})
        m = s.config("meas Mcomp[q1; x] . apply Set0[q1] . a!x . nil", st)
        p = s.config("pchoice { 1/2 -> apply Set0[q1] . a!0 . nil"
                     " ; 1/2 -> apply Set0[q1] . a!1 . nil }", st)
        built = []
        combine = System.combine
        monkeypatch.setattr(System, "combine",
                            lambda self, parts: built.append(combine(self, parts)) or built[-1])
        report = decide_bisim(m, p, s)
        assert report.holds and report.mode == "canonical"
        decided = {exact(d): d for d in built}
        built.clear()
        assert check_lambda_relation(report.witness, 0.0, s).holds
        again = [d for d in built if exact(d) in decided]
        assert again and all(d is decided[exact(d)] for d in again)

    def test_two_systems_never_share_a_distribution(self):
        made = []
        for _ in range(2):
            s = fresh()
            x, y = s.config("a!0 . nil", state()), s.config("b!0 . nil", state())
            made.append(s.combine([(Fraction(1, 2), s.dirac(x)), (Fraction(1, 2), s.dirac(y))]))
        first, second = made
        assert first is not second
        assert first.digest == second.digest

    def test_other_types_or_orders_get_their_own_object(self):
        s = fresh()
        dx = s.dirac(s.config("a!0 . nil", state()))
        dy = s.dirac(s.config("b!0 . nil", state()))
        built = {
            "exact": lambda: s.combine([(Fraction(1, 2), dx), (Fraction(1, 2), dy)]),
            "float": lambda: s.combine([(0.5, dx), (0.5, dy)]),
            "swapped": lambda: s.combine([(Fraction(1, 2), dy), (Fraction(1, 2), dx)]),
            "float one": lambda: s.combine([(0.5, dx), (0.5, dx)]),
            "exact one": lambda: s.combine([(Fraction(1, 2), dx), (Fraction(1, 2), dx)]),
        }
        first = {name: make() for name, make in built.items()}
        assert len({id(d) for d in first.values()} | {id(dx)}) == len(built) + 1
        assert len({d.digest for d in first.values()}) == 2
        for name, make in built.items():
            assert make() is first[name], name

    def test_a_consistent_distribution_of_mass_one_is_its_own_class(self):
        s = fresh()
        n0 = s.config("nil", state())
        n1 = s.config("nil", state(assignment={"q1": "1"}))
        mix = s.combine([(Fraction(1, 3), s.dirac(n0)), (Fraction(2, 3), s.dirac(n1))])
        for mu in (mix, s.dirac(n0)):
            (cls,) = tc_decompose(mu, s).classes
            assert cls.dist is mu and cls.weight == 1 and cls.signature == frozenset()
            assert tc_decompose(mu, s).classes[0].dist is mu
            assert not refers_to(mu._tc, mu)
        # a float sum over an exact probability: dividing by it would make
        # the class read floats, so the class is not the distribution
        mixed = s.combine([(Fraction(1, 3), s.dirac(n0)), (2 / 3, s.dirac(n1))])
        assert mixed.mass == 1 and type(mixed.mass) is float
        (cls,) = tc_decompose(mixed, s).classes
        assert cls.dist is not mixed
        assert [type(p) for p in cls.dist.probs.values()] == [float, float]

    def test_the_classes_of_a_split_distribution_are_kept_once(self):
        s = fresh()
        f = s.dirac(s.config("fail!0 . nil", state()))
        n0 = s.dirac(s.config("nil", state()))
        n1 = s.dirac(s.config("nil", state(assignment={"q1": "1"})))
        mix = s.combine([(Fraction(1, 2), f), (Fraction(1, 4), n0), (Fraction(1, 4), n1)])
        other = s.combine([(Fraction(1, 4), f), (Fraction(3, 8), n0), (Fraction(3, 8), n1)])
        classes = tc_decompose(mix, s).classes
        assert len(classes) == 2
        assert all(a.dist is b.dist for a, b in zip(tc_decompose(mix, s).classes, classes))
        silent = {c.signature: c.dist for c in classes}[frozenset()]
        assert silent is s.combine([(Fraction(1, 2), n0), (Fraction(1, 2), n1)])
        assert {c.signature: c.dist for c in tc_decompose(other, s).classes}[frozenset()] is silent

    def test_a_configuration_root_is_its_point_distribution(self):
        s = fresh()
        c = s.config("tau . a!0 . nil", state())
        assert PLTS(s, c).root is s.dirac(c)

    def test_a_lone_part_of_weight_one_is_returned(self):
        s = fresh()
        d = s.dirac(s.config("a!0 . nil", state()))
        e = s.dirac(s.config("b!0 . nil", state()))
        assert s.combine([(1, d)]) is d
        assert s.combine([(0, e), (1, d)]) is d
        assert s.combine([]).probs == {}

    def test_two_parts_build_a_new_distribution(self):
        s = fresh()
        x, y = s.config("a!0 . nil", state()), s.config("b!0 . nil", state())
        d = ConfigDistribution({x: Fraction(1, 2), y: Fraction(1, 2)})
        e = s.dirac(y)
        mix = s.combine([(Fraction(1, 3), d), (Fraction(2, 3), e)])
        assert mix is not d and mix is not e
        assert mix.probs == {x: Fraction(1, 6), y: Fraction(5, 6)}
        assert d.probs == {x: Fraction(1, 2), y: Fraction(1, 2)}
        assert e.probs == {y: 1}

    def test_dirac_saturation_chain_shares_one_distribution(self):
        s = fresh()
        c = s.config("tau . tau . a!0 . nil", state())
        with s.query():
            sat = _config_sat(s, c)
            assert s.work == 0  # a saturation is a kept value: no work units
        (mid,) = only_transition(s, c).dist.support
        (last,) = only_transition(s, mid).dist.support
        assert sat.probs == {last: 1}
        assert _config_sat(s, last) is sat
        assert _config_sat(s, mid) is sat
        assert sat is s.dirac(last)
        # the canonical walk visits (sat, sat) and the pair of its a!0
        # derivatives, each charged the support sizes of its two sides
        assert decide_bisim(c, mid, s).holds
        assert s.work == 4

    def test_kept_canonical_values_never_refer_back(self):
        s = fresh()
        st = state(assignment={"q1": "+"})
        c = s.config("tau . pchoice { 1/4 -> a!0 . b!0 . nil ; 3/4 -> nil }", st)
        d = s.config("pchoice { 1/2 -> a!0 . b!0 . nil ; 1/2 -> tau . nil }", st)
        bound = distance_upper_bound(c, d, s)
        assert bound.value == 0.25
        assert check_lambda_relation(bound.witness, bound.value, s).holds
        dists = list(s._dists.values()) + list(s._points.values())
        assert sum(mu._form is not None for mu in dists) > 2
        for mu in dists:
            assert mu._sat is not mu and mu not in (mu._der or {}).values()
            assert not refers_to(mu._form, mu)

    def test_dirac_targets_are_point_distributions(self):
        s = fresh()
        for source in ("tau . a!0 . nil", "apply H[q1] . nil", "a!0 . nil [a -> b]",
                       "( c!0 . nil || c?x . d!x . nil ) \\ {c}",
                       "( a!0 . nil || tau . nil )", "#c!q1 . nil"):
            for t in s.step(s.config(source, state())):
                (target,) = t.dist.support
                assert t.dist is s.dirac(target), (source, str(t.label))

    def test_other_weights_build_their_own_distribution(self):
        s = fresh()
        # a certain measurement outcome has the float weight 1.0, kept as is
        cfg = s.config("meas Mcomp[q1; x] . c!x . nil", state(assignment={"q1": "1"}))
        t = only_transition(s, cfg)
        ((target, p),) = t.dist.probs.items()
        assert type(p) is float and p == 1
        assert t.dist is not s.dirac(target)

    def test_internal_moves_share_the_step_tuple(self):
        s = fresh()
        silent = s.config("tau . a!0 . nil + apply H[q1] . nil", state())
        assert s.tau_transitions(silent) is s.step(silent)
        mixed = s.config("tau . a!0 . nil + b!0 . nil", state())
        assert [t.label for t in s.tau_transitions(mixed)] == [TAU]
        assert [t.label for t in s.step(mixed)] == [TAU, Label(Label.OUT, Channel("b"), 0.0)]
        inert = s.config("nil", state())
        assert s.tau_transitions(inert) is s.step(inert) == ()


class TestCombineMemo:
    """`System.combine` keeps its result per (each weight by its type and
    exact value, each part object), and holds the parts, so equal requests
    combine once and a part's id names it while the memo holds it."""

    def test_equal_parts_combine_once(self, monkeypatch):
        s = fresh()
        x, y = s.config("a!0 . nil", state()), s.config("b!0 . nil", state())
        d = ConfigDistribution({x: Fraction(1, 2), y: Fraction(1, 2)})  # not interned
        mixed = []
        mix = System._mix
        monkeypatch.setattr(System, "_mix",
                            lambda self, parts: mixed.append(parts) or mix(self, parts))
        first = s.combine([(Fraction(1, 3), d), (Fraction(2, 3), s.dirac(y))])
        again = s.combine(iter([(Fraction(1, 3), d), (Fraction(2, 3), s.dirac(y))]))
        assert again is first and len(mixed) == 1
        assert first.probs == {x: Fraction(1, 6), y: Fraction(5, 6)}

    def test_weights_of_one_value_and_another_type_stay_apart(self):
        s = fresh()
        x, y = s.config("a!0 . nil", state()), s.config("b!0 . nil", state())
        dx, dy = s.dirac(x), s.dirac(y)
        for one in (1, 1.0, Fraction(1)):
            assert s.combine([(one, dx)]) is dx
        assert len(s._combined) == 3
        exact = s.combine([(Fraction(1, 2), dx), (Fraction(1, 2), dy)])
        floats = s.combine([(0.5, dx), (0.5, dy)])
        assert exact is not floats
        assert [p.__class__ for p in exact.probs.values()] == [Fraction, Fraction]
        assert [p.__class__ for p in floats.probs.values()] == [float, float]
        # the other order of first requests gives the same two objects
        t = fresh()
        tx, ty = t.config("a!0 . nil", state()), t.config("b!0 . nil", state())
        floats = t.combine([(0.5, t.dirac(tx)), (0.5, t.dirac(ty))])
        exact = t.combine([(Fraction(1, 2), t.dirac(tx)), (Fraction(1, 2), t.dirac(ty))])
        assert [p.__class__ for p in exact.probs.values()] == [Fraction, Fraction]
        assert [p.__class__ for p in floats.probs.values()] == [float, float]

    def test_a_transient_part_stays_alive_while_the_memo_holds_it(self):
        import gc
        s = fresh()
        x, y = s.config("a!0 . nil", state()), s.config("b!0 . nil", state())
        fixed = s.dirac(y)
        # each part is dropped by the caller at once; were its id freed, the
        # next part could take it and read the memo's earlier result
        for k in range(1, 60):
            part = ConfigDistribution({x: Fraction(1, k + 1), y: Fraction(k, k + 1)})
            held = id(part)
            got = s.combine([(Fraction(1, 2), part), (Fraction(1, 2), fixed)])
            del part
            gc.collect()
            assert got.probs == {x: Fraction(1, 2 * k + 2), y: 1 - Fraction(1, 2 * k + 2)}
            assert any(id(d) == held for _, parts in s._combined.values() for _, d in parts)


def entry_tables(system):
    """The part entries `system` keeps, as two lists of tables: those kept
    for any matrix, one per (fuel, restriction), and those kept for one
    matrix, one per (matrix, fuel, restriction)."""
    free, per_matrix = [], []
    for slot, table in system._component_steps.items():
        if len(slot) == 2:
            free.append(table)
        else:
            per_matrix.append(table[0])
    return free, per_matrix


class TestStateFreeEntries:
    """A branch carries a post-state only when an `apply` or a `meas` made
    one, so a part with none is stepped once per (fuel, restriction), and a
    part that applies or measures once per matrix as well."""

    def test_an_apply_to_the_same_matrix_keeps_a_per_matrix_entry(self):
        s = fresh()
        term = "apply Set0[q1] . a!0 . nil || b!0 . nil"
        c = s.config(term, state())
        (move,) = [t for t in s.step(c) if not t.label.visible]
        assert move.target.matrix is c.matrix  # Set0 at |0> gives the same matrix
        d = s.config(term, state(assignment={"q1": "1"}))
        s.step(d)
        free, per_matrix = entry_tables(s)
        applying, silent = c.key[2], c.key[3]
        assert [silent in table for table in free] == [True]
        assert [applying in table for table in free + per_matrix] == [False, True, True]

    def test_a_nested_key_that_measures_is_per_matrix(self):
        s = fresh(register=R2)
        c = s.config("( meas Mcomp[q1; x] . c!x . nil || a!0 . nil ) || b!0 . nil",
                     state(R2))
        s.step(c)
        free, per_matrix = entry_tables(s)
        nested, silent = c.key[2], c.key[3]
        assert [nested in table for table in free + per_matrix] == [False, True]
        assert any(silent in table for table in free)
        assert any(nested[3] in table for table in free)

    def test_bb84_n2_entry_counts(self):
        instance = build_bb84_security_test(2)
        system = System(instance.system.module, register=instance.register)
        roots = [system.config(c.term, c.matrix)
                 for c in instance.root.support + instance.ideal.support]
        assert len(system.reachable(roots)) == 6728
        free, per_matrix = entry_tables(system)
        assert (sum(map(len, per_matrix)), sum(map(len, free))) == (288, 849)


class TestOperationKinds:
    """An `apply` of a measurement or a `meas` of a super-operator is not
    well formed, and stepping it says so."""

    @pytest.mark.parametrize("term, words", [
        ("apply Mcomp[q1] . nil", "apply of Mcomp, which is a measurement"),
        ("meas H[q1; x] . nil", "meas of H, which is a super-operator"),
    ])
    def test_a_kind_mismatch_is_rejected(self, term, words):
        s = fresh()
        c = s.config(term, state(assignment={"q1": "+"}))
        with pytest.raises(WellFormednessError, match=words):
            s.step(c)


class TestCompactSteps:
    """A move of weight exactly int 1 is a `PointMove`: it names its target
    configuration and builds no distribution.  Its `dist` is the System's
    point distribution on the target, built on first read; walkers read
    the target instead."""

    def test_a_whole_bb84_reach_builds_no_point_distribution(self):
        instance = build_bb84_security_test(1)
        system = System(instance.system.module, register=instance.register)
        roots = [system.config(c.term, c.matrix)
                 for c in instance.root.support + instance.ideal.support]
        reach = system.reachable(roots)
        points = [t for c in reach for t in system.step(c) if isinstance(t, PointMove)]
        assert len(reach) > 200 and len(points) > 200
        assert system._points == {}
        assert len(system.post_order(roots, skip_proved=False)) == len(reach)
        assert system._points == {}
        # the fold builds only the point distribution of its root
        root = system.dirac(roots[0])
        assert eventual_label_probabilities(system, root) == \
            eventual_label_probabilities(instance.system, instance.root)
        assert list(system._points.values()) == [root]

    def test_a_point_move_reads_the_point_distribution_of_its_target(self):
        s = fresh()
        c = s.config("tau . a!0 . nil", state())
        t = only_transition(s, c)
        assert isinstance(t, PointMove) and t.targets == (t.target,)
        assert s._points == {}
        first = t.dist
        assert first is s.dirac(t.target) and first is t.dist
        assert first.probs == {t.target: 1} and type(first.probs[t.target]) is int
        assert only_transition(s, c) is t

    def test_moves_unpack_as_label_and_distribution(self):
        s = fresh()
        c = s.config("a!0 . nil + meas Mcomp[q1; x] . nil", state(default="+"))
        point, branching = s.step(c)
        assert isinstance(point, PointMove) and isinstance(branching, Transition)
        label, dist = point
        assert label == point.label and dist is s.dirac(point.target)
        label, dist = branching
        assert label == TAU and dist is branching.dist and branching.target is None
        assert list(branching.targets) == list(dist.support) and len(dist) == 2


class TestFloatReading:
    """Digests and environments read a weight through `_float`, which gives
    the bits `float` gives, for ints, floats and Fractions alike.  (The
    products of random integers make numerators and denominators past 2**53,
    where a ratio must be rounded once, from the exact quotient.)"""

    def test_same_bits_as_float(self):
        rng = np.random.default_rng(51)
        values = [0, 1, -3, 2 ** 60 + 1, 10 ** 30 + 7, Fraction(1, 3), Fraction(2, 3)]
        for _ in range(300):
            num = int(rng.integers(-10 ** 18, 10 ** 18)) * int(rng.integers(1, 10 ** 12))
            den = int(rng.integers(1, 10 ** 18)) * int(rng.integers(1, 10 ** 12))
            values += [Fraction(num, den), num, float(rng.random()), num / den]
        for p in values:
            got = sem._float(p)
            assert type(got) is float and got.hex() == float(p).hex(), p


class TestCanonicalBinders:
    """Stepping keeps terms canonical: bound names follow binder heights,
    which substitution does not change, so `alpha_canonical` gives every
    reachable term back as the identical object."""

    SHAPES = {
        "sequential": (randsys.REGISTER, lambda rng: randsys.random_term(rng, 3)),
        "coupled": (randsys.REGISTER2, randsys.random_par_term),
        "relabelled": (randsys.REGISTER2, randsys.random_relabelled_term),
        "wide": (randsys.REGISTER2, randsys.random_wide_term),
    }

    def assert_reach_canonical(self, system, roots):
        for root in roots:
            for config in PLTS(system, root).configs:
                assert ca.alpha_canonical(config.term) is config.term, pretty(config.term)

    @pytest.mark.parametrize("n", [1, 2])
    def test_bb84_security(self, n):
        instance = build_bb84_security_test(n)
        roots = instance.root.support + instance.ideal.support
        self.assert_reach_canonical(instance.system, roots)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_random_systems(self, shape):
        register, generate = self.SHAPES[shape]
        rng = np.random.default_rng(6)
        for _ in range(6):
            system, st = randsys.random_system(rng, register)
            sources = randsys.variants(generate(rng))
            self.assert_reach_canonical(system, [system.config(src, st) for src in sources])

    def test_duplicated_choice_steps_to_one_target(self):
        s = fresh()
        term = "meas Mcomp[q1; x] . c!x . nil"
        root = s.config(f"pchoice {{ 1/2 -> {term} ; 1/2 -> {term} }}", state())
        t = only_transition(s, root)
        assert t.label == TAU
        assert t.dist.support == (s.config(term, state()),)


def after_handoff(system, sent):
    """The configuration after `c!sent` meets `c?x . d!x . nil` under `\\ {c}`."""
    root = system.config(f"( c!{sent} . nil || c?x . d!x . nil ) \\ {{c}}", state())
    (handoff,) = system.step(root)
    (after,) = handoff.dist.support
    return after


class TestInputMemo:
    def test_true_stays_apart_from_one(self):
        s = fresh()
        labels = [str(only_transition(s, after_handoff(s, sent)).label)
                  for sent in ("(1 = 1)", "1")]
        assert labels == ["d!true", "d!1"]

    def test_signed_zeros_stay_apart(self):
        s = fresh()
        negative, positive = (after_handoff(s, sent) for sent in ("(-0)", "0"))
        assert negative.term is not positive.term
        assert negative.term.body.parts[1].action.expr.value == 0.0

    def test_input_instantiated_once_per_value(self, monkeypatch):
        cont = parse_term("c?x . d!x . nil").cont
        calls = []
        real = ca.subst_values

        def counting(term, env):
            if term is cont:
                calls.append(dict(env))
            return real(term, env)

        monkeypatch.setattr(ca, "subst_values", counting)
        s = fresh()
        root = s.config("( c!1 . nil || c!1 . nil || c?x . d!x . nil ) \\ {c}", state())
        assert len(s.step(root)) == 2
        s2 = s.config("( c!1 . nil || c?x . d!x . nil || tau . nil ) \\ {c}", state())
        assert len(s.step(s2)) == 2
        assert calls == [{"x$0": 1.0}]

    def test_quantum_input_instantiated_once_per_qubit(self, monkeypatch):
        cont = parse_term("#c?r . apply H[r] . nil").cont
        calls = []
        real = ca.subst_qubits

        def counting(term, ren):
            if term is cont:
                calls.append(dict(ren))
            return real(term, ren)

        monkeypatch.setattr(ca, "subst_qubits", counting)
        s = fresh(register=R2)
        for other in ("nil", "tau . nil"):
            cfg = s.config(f"#c?r . apply H[r] . nil || {other}", state(R2))
            got = {str(t.label) for t in s.step(cfg)}
            assert {"#c?q1", "#c?q2"} <= got
        assert sorted(c["q$0"] for c in calls) == ["q1", "q2"]
