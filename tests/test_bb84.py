"""Protocol builders, bit-string functions, probabilities, and verdicts."""

import hashlib
from fractions import Fraction
from math import comb

import pytest

from qbisim import bb84
from qbisim.calculus import Channel, eval_expr, parse_module, parse_term
from qbisim.errors import ConfluenceError, CyclicModelError, EvaluationError
from qbisim.bisim import check_lambda_relation, decide_bisim, replay_refutation
from qbisim.quantum import BitString, QubitRegister, QuantumState
from qbisim.semantics import Label, System

import bb84_oracle

# frozen from the enumeration oracle; the oracle itself is re-run below so
# a drift in either side is caught
BASIC_FAIL = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}
SECURITY_FAIL = {1: Fraction(0), 2: Fraction(3, 64), 3: Fraction(45, 512)}
SECURITY_HACKED = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}


def announced_key_distribution(instance: bb84.ProtocolInstance) -> dict:
    """Map announced key string -> probability of announcing it."""
    probs = bb84.eventual_label_probabilities(instance.system, instance.root)
    return {str(label.value): p for label, p in probs.items()
            if label.kind == Label.OUT and label.chan.name == "key"}


def soundness_negative_control(n: int, tol: float = None):
    """The soundness decision against the biased announcer; must be refuted."""
    test = bb84.build_bb84_test(n)
    spec = bb84.build_bb84_spec(n, biased=True)
    return decide_bisim(test.root, spec.root, test.system, tol=tol)


# the bit-string functions the BB84 sources call are calculus builtins; index
# sets reach them as the masks bb84._mask emits
_CMP = parse_term("c!cmp(k, a, b) . nil").action.expr
_SUBSTR = parse_term("c!substr(k, m) . nil").action.expr
_REMSTR = parse_term("c!remstr(k, m) . nil").action.expr


def _cmp(x, y, z):
    return str(eval_expr(_CMP, {"k": BitString(x), "a": BitString(y), "b": BitString(z)}))


def _split(expr, bits, indexes, length=None):
    mask = bb84._mask(indexes, len(bits) if length is None else length)
    return str(eval_expr(expr, {"k": BitString(bits), "m": BitString(mask)}))


class TestBitStringFunctions:
    def test_cmp_selects_agreeing_positions(self):
        assert _cmp("101", "110", "100") == "11"

    def test_cmp_identical_selectors_keep_everything(self):
        assert _cmp("1011", "0110", "0110") == "1011"

    def test_cmp_empty_when_nothing_matches(self):
        assert _cmp("10", "01", "10") == ""

    def test_cmp_rejects_length_mismatch(self):
        with pytest.raises(EvaluationError):
            _cmp("10", "1", "10")

    def test_sub_and_rem(self):
        assert _split(_SUBSTR, "1011", {1, 3}) == "11"
        assert _split(_REMSTR, "1011", {1, 3}) == "01"

    def test_empty_index_set(self):
        assert _split(_SUBSTR, "1011", set()) == ""
        assert _split(_REMSTR, "1011", set()) == "1011"

    def test_indexes_validated(self):
        # an index past the end of the string needs a mask longer than it
        with pytest.raises(EvaluationError):
            _split(_SUBSTR, "10", {3}, length=3)
        with pytest.raises(EvaluationError):
            _split(_REMSTR, "10", {1}, length=1)

    def test_interleaving_reconstructs(self):
        bits, idx = "100110", {2, 5, 6}
        sub = _split(_SUBSTR, bits, idx)
        rem = _split(_REMSTR, bits, idx)
        rebuilt = []
        si = ri = 0
        for i in range(1, len(bits) + 1):
            if i in idx:
                rebuilt.append(sub[si]); si += 1
            else:
                rebuilt.append(rem[ri]); ri += 1
        assert "".join(rebuilt) == bits


class TestSecurityBoundFormula:
    def test_base_constant(self):
        c = bb84.SECURITY_CONSTANT.c
        assert 0.0 < c < 1.0
        assert c == pytest.approx(0.9330127018922193, abs=1e-15)

    def test_small_values(self):
        assert bb84.security_bound(1) == pytest.approx(0.9330127018922193)
        assert bb84.security_bound(10) == pytest.approx(0.4998912811, abs=1e-6)

    def test_binomial_identity_holds_up_to_30(self):
        for n in range(1, 31):
            bb84.security_bound(n)  # raises if the two forms disagree

    def test_strictly_decreasing(self):
        values = [bb84.security_bound(n) for n in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            bb84.security_bound(0)


class TestBuilders:
    def test_modes_and_forbidden_sets(self):
        test = bb84.build_bb84_test(1)
        spec = bb84.build_bb84_spec(1)
        sec = bb84.build_bb84_security_test(1)
        assert (test.mode, spec.mode, sec.mode) == ("basic_test", "spec", "security_test")
        assert {str(l) for l in test.forbidden} == {"fail!0"}
        assert {str(l) for l in sec.forbidden} == {"fail!0", "hacked!0"}
        assert spec.forbidden == frozenset()
        assert sec.ideal is not None

    def test_instances_share_one_system(self):
        assert bb84.build_bb84_test(2).system is bb84.build_bb84_spec(2).system

    def test_alice_branch_count(self):
        # the opening internal move resolves Alice's 2^(2n) draws
        inst = bb84.build_bb84_test(1)
        (root,) = inst.root.support
        (t,) = inst.system.step(root)
        assert len(t.dist.support) == 4

    def test_spec_weights_at_n1(self):
        keys = announced_key_distribution(bb84.build_bb84_spec(1))
        assert keys[""] == pytest.approx(0.5)
        assert keys["0"] == pytest.approx(0.25)
        assert keys["1"] == pytest.approx(0.25)

    def test_source_round_trips_through_the_parser(self):
        inst = bb84.build_bb84_test(1)
        assert "SecurityTest" in parse_module(inst.source).definitions

    def test_n_validated(self):
        with pytest.raises(ValueError):
            bb84.build_bb84_test(0)


class TestOutcomeProbabilities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frozen_values_match_the_oracle(self, n):
        assert bb84_oracle.basic_outcomes(n)["fail"] == BASIC_FAIL[n]
        sec = bb84_oracle.security_outcomes(n)
        assert sec["fail"] == SECURITY_FAIL[n]
        assert sec["hacked"] == SECURITY_HACKED[n]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basic_never_fails(self, n):
        inst = bb84.build_bb84_test(n)
        assert bb84.forbidden_action_probability(inst) == pytest.approx(
            float(BASIC_FAIL[n]), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_key_length_law(self, n):
        keys = announced_key_distribution(bb84.build_bb84_test(n))
        by_len = {}
        for key, p in keys.items():
            by_len[len(key)] = by_len.get(len(key), 0.0) + p
        for i in range(n + 1):
            assert by_len[i] == pytest.approx(comb(n, i) / 2 ** n, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_keys_uniform_per_length(self, n):
        keys = announced_key_distribution(bb84.build_bb84_test(n))
        for key, p in keys.items():
            i = len(key)
            assert p == pytest.approx(comb(n, i) / 2 ** (n + i), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    def test_security_probability_matches_the_oracle(self, n):
        inst = bb84.build_bb84_security_test(n)
        p = bb84.forbidden_action_probability(inst)
        expected = float(SECURITY_FAIL[n] + SECURITY_HACKED[n])
        assert p == pytest.approx(expected, abs=1e-9)
        assert p <= bb84.security_bound(n)

    def test_empty_forbidden_set_is_zero(self):
        spec = bb84.build_bb84_spec(1)
        assert bb84.forbidden_action_probability(spec) == 0.0

    def test_scheduler_dependence_is_rejected(self):
        s = System(parse_module("Dummy := nil"),
                   register=QubitRegister.of(["q1"]))
        cfg = s.config("tau . fail!0 . nil + tau . nil",
                       QuantumState.product(s.register, None))
        with pytest.raises(ConfluenceError):
            bb84.eventual_label_probabilities(s, s.dirac(cfg))

    def test_cycle_is_refused_before_recursing(self):
        """A cycle raises CyclicModelError, as every engine does, where the
        backward accumulation would recurse without end."""
        s = System(parse_module("Loop := tau . Loop"),
                   register=QubitRegister.of(["q1"]))
        cfg = s.config("a!0 . Loop", QuantumState.product(s.register, None))
        with pytest.raises(CyclicModelError):
            bb84.eventual_label_probabilities(s, s.dirac(cfg))


    def test_a_deep_chain_needs_no_recursion(self):
        """The accumulation folds over an iterative post-order, so a chain
        of 2,000 visible steps is within reach."""
        s = System(parse_module("Chain(n;) := if n < 2000 then ( a!0 . Chain(n + 1;) )"),
                   register=QubitRegister.of(["q1"]))
        cfg = s.config("Chain(0;)", QuantumState.product(s.register, None))
        probs = bb84.eventual_label_probabilities(s, s.dirac(cfg))
        assert probs == {Label(Label.OUT, Channel("a"), 0.0): 1.0}


class TestSoundness:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_the_ideal_announcer(self, n):
        report = bb84.verify_soundness(n)
        assert report.holds

    @pytest.mark.parametrize("n", [1, 2])
    def test_biased_announcer_is_refuted(self, n):
        report = soundness_negative_control(n)
        assert not report.holds
        assert replay_refutation(report, bb84.build_bb84_test(n).system)

    def test_report_shape(self):
        rep = bb84.soundness_report(1)
        assert rep["holds"] is True
        assert rep["p_fail"] == pytest.approx(0.0)
        assert rep["states"] > 0


class TestSecurity:
    def test_n1_is_exactly_silent(self):
        bound = bb84.verify_security(1)
        assert bound.value == 0.0

    def test_n2_bound_is_the_failure_probability(self):
        bound = bb84.verify_security(2)
        assert bound.value == pytest.approx(float(SECURITY_FAIL[2]), abs=1e-9)
        assert bound.value <= bb84.security_bound(2)
        extra = bound.annotations[-1]
        assert extra["forbidden_probability"] <= extra["security_bound"]

    def test_n2_json_is_pinned(self):
        # the value, the witness and the annotations, byte for byte, of a
        # query on a new System: the witness names configurations by their
        # index, which follows what the shared System reached first
        bb84._protocol_system.cache_clear()
        text = bb84.verify_security(2).to_json_str()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a487630032348179686e7c2fa90a10f1e0400ca61cf9937c028833b725043924")

    def test_witness_re_verifies(self):
        inst = bb84.build_bb84_security_test(2)
        bound = bb84.verify_security(2)
        assert check_lambda_relation(bound.witness, bound.value, inst.system,
                                     tol=1e-7).holds

    def test_report_shape(self):
        rep = bb84.security_report(1)
        assert rep["verdict"] == "secure"
        assert rep["p_hacked"] == pytest.approx(0.0)
        assert rep["bound"] <= rep["c_pow_n"]

    def test_report_accumulates_probabilities_once(self, monkeypatch):
        calls = []
        accumulate = bb84.eventual_label_probabilities

        def counted(*args, **kwargs):
            calls.append(args)
            return accumulate(*args, **kwargs)

        monkeypatch.setattr(bb84, "eventual_label_probabilities", counted)
        rep = bb84.security_report(2)
        assert len(calls) == 1
        assert rep["p_fail"] == pytest.approx(float(SECURITY_FAIL[2]), abs=1e-9)
        assert rep["bound"] == bb84.verify_security(2).value
