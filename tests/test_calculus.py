"""Parser, static checks, substitution, expression evaluation and consing."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from qbisim import calculus
from qbisim.calculus import (
    NIL,
    Apply,
    Binary,
    Call,
    Channel,
    CIn,
    COut,
    Fun,
    If,
    Lit,
    Meas,
    Par,
    PChoice,
    Prefix,
    QIn,
    QOut,
    Relabel,
    Restrict,
    Sum,
    Tau,
    Unary,
    Var,
    alpha_canonical,
    eval_expr,
    fv,
    module_json,
    parse_module,
    parse_term,
    pretty,
    qv,
    rename_channel,
    subst_qubits,
    subst_values,
    term_json,
    values_equal,
)
from qbisim.errors import EvaluationError, ParseError, WellFormednessError
from qbisim.quantum import BitString


def pretty_definition(d) -> str:
    """A definition as source text: its head, `:=` and its body."""
    if d.cparams or d.qparams:
        head = f"{d.name}({', '.join(d.cparams)}; {', '.join(d.qparams)})"
    else:
        head = d.name
    return f"{head} := {pretty(d.body)}"


class TestParsing:
    def test_nil(self):
        assert parse_term("nil") is NIL

    def test_prefix_chain(self):
        t = parse_term("tau . a!0 . nil")
        assert isinstance(t, Prefix) and isinstance(t.action, Tau)
        inner = t.cont
        assert isinstance(inner.action, COut)
        assert inner.action.chan == Channel("a")
        assert inner.cont is NIL

    def test_sum_parallel_precedence(self):
        t = parse_term("a!0 . nil || b!0 . nil + c!0 . nil")
        assert isinstance(t, Sum) and len(t.parts) == 2
        assert isinstance(t.parts[0], Par)

    def test_prefix_binds_tighter_than_parallel(self):
        t = parse_term("a!0 . nil || b!1 . nil")
        assert isinstance(t, Par)
        assert all(isinstance(p, Prefix) for p in t.parts)

    def test_parens_override(self):
        t = parse_term("a!0 . (b!1 . nil || c!2 . nil)")
        assert isinstance(t, Prefix) and isinstance(t.cont, Par)

    def test_restriction(self):
        t = parse_term("(a!0 . nil || a?x . nil) \\ {a, #c}")
        assert isinstance(t, Restrict)
        assert t.channels == frozenset({Channel("a"), Channel("c", quantum=True)})

    def test_relabelling(self):
        t = parse_term("a!0 . nil [a -> b, #c -> #d]")
        assert isinstance(t, Relabel)
        assert rename_channel(t.mapping, Channel("a")) == Channel("b")
        assert rename_channel(t.mapping, Channel("c", quantum=True)) == Channel("d", quantum=True)
        assert rename_channel(t.mapping, Channel("z")) == Channel("z")

    def test_relabelling_kind_mismatch(self):
        with pytest.raises((WellFormednessError, ParseError)):
            parse_term("a!0 . nil [a -> #b]")

    def test_quantum_prefixes(self):
        t = parse_term("#c?q . #d!q . nil")
        assert isinstance(t.action, QIn)
        assert isinstance(t.cont.action, QOut)

    def test_apply_and_meas(self):
        t = parse_term("apply H[q1] . meas Mcomp[q1; x] . c!x . nil")
        assert isinstance(t.action, Apply) and t.action.qubits == ("q1",)
        m = t.cont.action
        assert isinstance(m, Meas) and m.op == "Mcomp"

    def test_pchoice(self):
        t = parse_term("pchoice { 1/2 -> a!0 . nil ; 1/2 -> a!1 . nil }")
        assert isinstance(t, PChoice)
        assert [p for p, _ in t.branches] == [0.5, 0.5]

    def test_pchoice_weights_must_sum_to_one(self):
        with pytest.raises(ParseError):
            parse_term("pchoice { 1/2 -> nil ; 1/3 -> nil }")

    def test_if_then(self):
        t = parse_term("if x = 0 then a!0 . nil")
        assert isinstance(t, If)
        assert isinstance(t.cond, Binary) and t.cond.op == "="

    def test_if_else_desugars_to_guarded_sum(self):
        t = parse_term("if x = 0 then a!0 . nil else a!1 . nil")
        assert isinstance(t, Sum) and len(t.parts) == 2
        pos, neg = t.parts
        assert isinstance(pos, If) and isinstance(neg, If)
        assert neg.cond.op == "not"

    def test_call_with_arguments(self):
        t = parse_term('A("01", 1; q1, q2)')
        assert isinstance(t, Call)
        assert t.cargs[0].value == BitString("01")
        assert t.qargs == ("q1", "q2")

    def test_bare_call(self):
        t = parse_term("Main")
        assert isinstance(t, Call) and t.cargs == () and t.qargs == ()

    def test_bitstring_literals(self):
        t = parse_term('c!"" . nil')
        assert t.action.expr.value == BitString("")
        with pytest.raises(ParseError):
            parse_term('c!"012" . nil')

    def test_comments_and_whitespace(self):
        t = parse_term("a!0 .  // send a zero\n   nil")
        assert isinstance(t, Prefix)

    def test_unicode_arrow_accepted(self):
        t = parse_term("a!0 . nil [a → b]")
        assert isinstance(t, Relabel)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("a!0 .\n . nil")
        assert err.value.line == 2

    def test_number_before_dot_prefix(self):
        # the lexer must not absorb ".n" of ".nil" into the number
        t = parse_term("c!1 . nil")
        assert t.action.expr.value == 1.0


class TestAlphaCanonical:
    def test_equivalent_terms_parse_equal(self):
        a = parse_term("c?x . d!x . nil")
        b = parse_term("c?y . d!y . nil")
        assert a == b

    def test_binders_renamed_positionally(self):
        # a binder is named by its height: the longest chain of binders
        # nested in its scope
        t = parse_term("c?x . meas M[q; y] . d!y . nil")
        assert t.action.var == "x$1"
        assert t.cont.action.var == "x$0"

    def test_quantum_binder_renamed(self):
        t = parse_term("#c?q . apply H[q] . nil")
        assert t.action.qvar == "q$0"
        assert t.cont.action.qubits == ("q$0",)

    def test_free_names_untouched(self):
        t = parse_term("apply H[q1] . c!z . nil")
        assert t.action.qubits == ("q1",)
        assert t.cont.action.expr == Var("z")

    def test_shadowing(self):
        t = parse_term("c?x . c?x . d!x . nil")
        inner = t.cont
        assert t.action.var == "x$1"
        assert inner.action.var == "x$0"
        assert inner.cont.action.expr == Var("x$0")

    def test_idempotent(self):
        t = parse_term("c?x . (d!x . nil || #e?q . apply H[q] . nil)")
        assert alpha_canonical(t) == t

    def test_names_follow_the_scope_not_the_position(self):
        # sibling copies of one subterm get the same names
        t = parse_term("c?x . d!x . nil + e?y . (c?z . d!z . nil || nil)")
        left, right = t.parts
        assert left is right.cont.parts[0]
        assert right.action.var == "x$1"

    def test_dollar_reserved_for_bound_names(self):
        # the canonical binder would capture the free q$0 / x$0
        with pytest.raises(WellFormednessError, match="reserved for bound names"):
            parse_term("#c?r . apply H[q$0] . nil")
        with pytest.raises(WellFormednessError, match="reserved for bound names"):
            parse_module("D(x$0; ) := c?y . d!x$0 . nil")
        with pytest.raises(WellFormednessError, match="reserved for bound names"):
            parse_module("D(; q$1) := apply H[q$1] . nil")
        with pytest.raises(WellFormednessError, match="reserved for bound names"):
            alpha_canonical(Prefix(COut(Channel("c"), Var("x$0")), NIL))

    def test_bound_names_may_be_written_with_dollar(self):
        t = parse_term("c?x$0 . c?y . d!x$0 . nil")
        assert t is parse_term("c?a . c?b . d!a . nil")
        assert t.cont.cont.action.expr == Var("x$1")
        assert parse_term(pretty(t)) is t


ROUND_TRIP_TERMS = [
    "nil",
    "tau . nil",
    "a!0 . nil + a!1 . nil",
    "(a!0 . nil || a?x . b!x . nil) \\ {a}",
    "a!0 . nil [a -> b] \\ {b}",
    "#c?q . apply H[q] . #c!q . nil",
    "meas Mcomp[q1; x] . if x = 0 then out!0 . nil else out!1 . nil",
    "pchoice { 1/4 -> a!0 . nil ; 3/4 -> tau . nil }",
    'A("0101", 1/2 + 1; q1, q2) || B',
    "if length(k) = 2 then c!substr(k, m) . nil",
    "c!cmp(k, a, b) . nil",
    "if not (x = 0) and y < 3 then tau . nil",
    "c?x . #d?q . (meas M[q; y] . e!(x + y) . nil || c?x . e!x . nil)",
]


@pytest.mark.parametrize("source", ROUND_TRIP_TERMS)
def test_pretty_round_trip(source):
    t = parse_term(source)
    assert parse_term(pretty(t)) == t


class TestFreeVariables:
    def test_qv_output_adds(self):
        assert qv(parse_term("#c!q . nil")) == {"q"}

    def test_qv_input_binds(self):
        assert qv(parse_term("#c?q . apply H[q] . nil")) == frozenset()

    def test_qv_operations(self):
        t = parse_term("apply CNOT[q1, q2] . meas M[q3; x] . nil")
        assert qv(t) == {"q1", "q2", "q3"}

    def test_qv_call(self):
        assert qv(parse_term("A(1; q1, q2)")) == {"q1", "q2"}

    def test_qv_par_union(self):
        t = parse_term("apply H[q1] . nil || apply H[q2] . nil")
        assert qv(t) == {"q1", "q2"}

    def test_fv_binders(self):
        t = parse_term("c?x . d!x . e!y . nil")
        assert fv(t) == {"y"}

    def test_fv_meas_binds(self):
        t = parse_term("meas M[q; x] . c!x . nil")
        assert fv(t) == frozenset()

    def test_fv_if(self):
        t = parse_term("if x = 0 then c!y . nil")
        assert fv(t) == {"x", "y"}


class TestWellFormedness:
    def test_send_then_use_rejected(self):
        with pytest.raises(WellFormednessError):
            parse_module("A(; q) := #c!q . apply H[q] . nil")

    def test_send_then_drop_accepted(self):
        parse_module("A(; q) := #c!q . nil")

    def test_parallel_sharing_rejected(self):
        with pytest.raises(WellFormednessError):
            parse_module("A(; q) := apply H[q] . nil || meas M[q; x] . nil")

    def test_parallel_disjoint_accepted(self):
        parse_module("A(; q, r) := apply H[q] . nil || apply H[r] . nil")

    def test_sum_may_share(self):
        parse_module("A(; q) := apply H[q] . nil + meas M[q; x] . nil")

    def test_repeated_quantum_argument(self):
        with pytest.raises(WellFormednessError):
            parse_module("A(; q) := nil\nB(; q, r) := A(; q) || apply CNOT[q, q] . nil")

    def test_undeclared_qubit_in_body(self):
        with pytest.raises(WellFormednessError):
            parse_module("A(; q) := apply H[r] . nil")

    def test_unbound_variable_in_body(self):
        with pytest.raises(WellFormednessError):
            parse_module("A(x;) := c!y . nil")

    def test_undefined_call(self):
        with pytest.raises(WellFormednessError):
            parse_module("A := B")

    def test_call_arity_mismatch(self):
        with pytest.raises(WellFormednessError):
            parse_module("A(x;) := nil\nB := A(1, 2;)")

    def test_duplicate_definition(self):
        with pytest.raises(WellFormednessError):
            parse_module("A := nil\nA := tau . nil")

    def test_recursive_definition_allowed(self):
        mod = parse_module("A(; q) := apply H[q] . A(; q)")
        assert "A" in mod.definitions


class TestModuleDeclarations:
    def test_channel_domains(self):
        mod = parse_module('channels { c : {0, 1}; k : {"00", "01", "10", "11"}; d : real }\nA := c!0 . nil')
        assert mod.channel_domains["c"] == (0.0, 1.0)
        assert mod.channel_domains["k"] == tuple(map(BitString, ["00", "01", "10", "11"]))
        assert mod.channel_domains["d"] is None

    def test_registry_source(self):
        mod = parse_module('registry "ops.json"\nA := nil')
        assert mod.registry_sources == ("ops.json",)

    def test_duplicate_channel(self):
        with pytest.raises(ParseError):
            parse_module("channels { c : {0}; c : {1} }")

    def test_definition_params(self):
        mod = parse_module("A(x, y; q) := if x = y then apply H[q] . nil")
        d = mod.definitions["A"]
        assert d.cparams == ("x", "y") and d.qparams == ("q",)
        assert "A(x, y; q) :=" in pretty_definition(d)


class TestSubstitution:
    def test_values_into_outputs(self):
        t = parse_term("c!x . d!y . nil")
        s = subst_values(t, {"x": 1.0})
        assert s.action.expr == Lit(1.0)
        assert s.cont.action.expr == Var("y")

    def test_binder_shadows_value(self):
        t = parse_term("c?x . d!x . nil")
        canonical_var = t.action.var
        s = subst_values(t, {canonical_var: 7.0})
        assert s.cont.action.expr == Var(canonical_var)

    def test_values_into_guards_and_calls(self):
        t = parse_term("if x = 0 then A(x; q)")
        s = subst_values(t, {"x": 0.0})
        assert eval_expr(s.cond) is True
        assert s.body.cargs[0] == Lit(0.0)

    def test_qubit_renaming(self):
        t = parse_term("apply H[q] . meas M[q; x] . #c!q . nil")
        s = subst_qubits(t, {"q": "q7"})
        assert s.action.qubits == ("q7",)
        assert s.cont.action.qubits == ("q7",)
        assert s.cont.cont.action.qvar == "q7"

    def test_qubit_renaming_shadowed_by_input(self):
        t = parse_term("#c?q . apply H[q] . nil")
        bound = t.action.qvar
        s = subst_qubits(t, {bound: "q9"})
        assert s.cont.action.qubits == (bound,)

    def test_call_qargs_renamed(self):
        t = parse_term("A(; q, r)")
        s = subst_qubits(t, {"q": "a", "r": "b"})
        assert s.qargs == ("a", "b")


C, H, K = Channel("c"), Channel("h", quantum=True), Channel("k", quantum=True)
X, ONE = Var("x"), Lit(1.0)


def _a(arg, *qubits):
    """A(arg; qubits)"""
    return Call("A", (arg,), qubits)


def _cbind(x, q, y):
    """c?y . A(y + x; q)"""
    return Prefix(CIn(C, y), _a(Binary("+", Var(y), x), q))


def _qbind(x, q, s):
    """#h?s . apply CNOT[s, q] . A(x; s)"""
    return Prefix(QIn(H, s), Prefix(Apply("CNOT", (s, q)), _a(x, s)))


def _meas(x, q, y):
    """meas M[q; y] . A(y + x; q)"""
    return Prefix(Meas("M", (q,), y), _a(Binary("+", Var(y), x), q))


def _cond(x):
    """not (length(x) = 0)"""
    return Unary("not", Binary("=", Fun("length", (x,)), Lit(0.0)))


_A = ("A", 1, 1)

# (term, subst_values x, y := 1, 2, subst_qubits q, s := r, t, alpha_canonical,
#  qv, fv, call sites) for every process constructor and every kind of action;
#  y and s are bound wherever they occur, except s in "qoutput"
WALK_ROWS = {
    "nil": (NIL, NIL, NIL, NIL, set(), set(), []),
    "call": (_a(X, "q"), _a(ONE, "q"), _a(X, "r"), _a(X, "q"), {"q"}, {"x"}, [_A]),
    "tau": (Prefix(Tau(), _a(X, "q")), Prefix(Tau(), _a(ONE, "q")),
            Prefix(Tau(), _a(X, "r")), Prefix(Tau(), _a(X, "q")), {"q"}, {"x"}, [_A]),
    "input": (_cbind(X, "q", "y"), _cbind(ONE, "q", "y"), _cbind(X, "r", "y"),
              _cbind(X, "q", "x$0"), {"q"}, {"x"}, [_A]),
    "input-shadows": (Prefix(COut(C, X), Prefix(CIn(C, "x"), _a(X, "q"))),
                      Prefix(COut(C, ONE), Prefix(CIn(C, "x"), _a(X, "q"))),
                      Prefix(COut(C, X), Prefix(CIn(C, "x"), _a(X, "r"))),
                      Prefix(COut(C, X), Prefix(CIn(C, "x$0"), _a(Var("x$0"), "q"))),
                      {"q"}, {"x"}, [_A]),
    "output": (Prefix(COut(C, X), _a(X, "q")), Prefix(COut(C, ONE), _a(ONE, "q")),
               Prefix(COut(C, X), _a(X, "r")), Prefix(COut(C, X), _a(X, "q")),
               {"q"}, {"x"}, [_A]),
    "qinput": (_qbind(X, "q", "s"), _qbind(ONE, "q", "s"), _qbind(X, "r", "s"),
               _qbind(X, "q", "q$0"), {"q"}, {"x"}, [_A]),
    "qinput-shadows": (Prefix(QOut(H, "q"), Prefix(QIn(H, "q"), _a(X, "q"))),
                       Prefix(QOut(H, "q"), Prefix(QIn(H, "q"), _a(ONE, "q"))),
                       Prefix(QOut(H, "r"), Prefix(QIn(H, "q"), _a(X, "q"))),
                       Prefix(QOut(H, "q"), Prefix(QIn(H, "q$0"), _a(X, "q$0"))),
                       {"q"}, {"x"}, [_A]),
    "qoutput": (Prefix(QOut(H, "q"), _a(X, "s")), Prefix(QOut(H, "q"), _a(ONE, "s")),
                Prefix(QOut(H, "r"), _a(X, "t")), Prefix(QOut(H, "q"), _a(X, "s")),
                {"q", "s"}, {"x"}, [_A]),
    "apply": (Prefix(Apply("H", ("q",)), _a(X, "q")),
              Prefix(Apply("H", ("q",)), _a(ONE, "q")),
              Prefix(Apply("H", ("r",)), _a(X, "r")),
              Prefix(Apply("H", ("q",)), _a(X, "q")), {"q"}, {"x"}, [_A]),
    "meas": (_meas(X, "q", "y"), _meas(ONE, "q", "y"), _meas(X, "r", "y"),
             _meas(X, "q", "x$0"), {"q"}, {"x"}, [_A]),
    "nested-binders": (Prefix(CIn(C, "y"), _qbind(Var("y"), "q", "s")),
                       Prefix(CIn(C, "y"), _qbind(Var("y"), "q", "s")),
                       Prefix(CIn(C, "y"), _qbind(Var("y"), "r", "s")),
                       Prefix(CIn(C, "x$1"), _qbind(Var("x$1"), "q", "q$0")),
                       {"q"}, set(), [_A]),
    "sum": (Sum((Prefix(Tau(), _a(X, "q")), _cbind(X, "q", "y"))),
            Sum((Prefix(Tau(), _a(ONE, "q")), _cbind(ONE, "q", "y"))),
            Sum((Prefix(Tau(), _a(X, "r")), _cbind(X, "r", "y"))),
            Sum((Prefix(Tau(), _a(X, "q")), _cbind(X, "q", "x$0"))),
            {"q"}, {"x"}, [_A, _A]),
    "par": (Par((_a(X, "q"), _qbind(X, "t", "s"))),
            Par((_a(ONE, "q"), _qbind(ONE, "t", "s"))),
            Par((_a(X, "r"), _qbind(X, "t", "s"))),
            Par((_a(X, "q"), _qbind(X, "t", "q$0"))), {"q", "t"}, {"x"}, [_A, _A]),
    "restrict": (Restrict(_cbind(X, "q", "y"), [C]), Restrict(_cbind(ONE, "q", "y"), [C]),
                 Restrict(_cbind(X, "r", "y"), [C]), Restrict(_cbind(X, "q", "x$0"), [C]),
                 {"q"}, {"x"}, [_A]),
    "relabel": (Relabel(_qbind(X, "q", "s"), [(H, K)]),
                Relabel(_qbind(ONE, "q", "s"), [(H, K)]),
                Relabel(_qbind(X, "r", "s"), [(H, K)]),
                Relabel(_qbind(X, "q", "q$0"), [(H, K)]), {"q"}, {"x"}, [_A]),
    "if": (If(_cond(X), _qbind(X, "q", "s")), If(_cond(ONE), _qbind(ONE, "q", "s")),
           If(_cond(X), _qbind(X, "r", "s")), If(_cond(X), _qbind(X, "q", "q$0")),
           {"q"}, {"x"}, [_A]),
    "pchoice": (PChoice(((Fraction(1, 3), _qbind(X, "q", "s")),
                         (Fraction(2, 3), _cbind(X, "q", "y")))),
                PChoice(((Fraction(1, 3), _qbind(ONE, "q", "s")),
                         (Fraction(2, 3), _cbind(ONE, "q", "y")))),
                PChoice(((Fraction(1, 3), _qbind(X, "r", "s")),
                         (Fraction(2, 3), _cbind(X, "r", "y")))),
                PChoice(((Fraction(1, 3), _qbind(X, "q", "q$0")),
                         (Fraction(2, 3), _cbind(X, "q", "x$0")))),
                {"q"}, {"x"}, [_A, _A]),
}


@pytest.mark.parametrize("row", WALK_ROWS.values(), ids=WALK_ROWS.keys())
def test_structural_walk(row):
    term, values, qubits, canonical, qvars, fvars, calls = row
    got = subst_values(term, {"x": 1.0, "y": 2.0})
    assert got is values, pretty(got)
    got = subst_qubits(term, {"q": "r", "s": "t"})
    assert got is qubits, pretty(got)
    got = alpha_canonical(term)
    assert got is canonical, pretty(got)
    assert qv(term) == qvars
    assert fv(term) == fvars
    assert list(calculus._call_sites(term)) == calls


class TestEvaluation:
    def test_arithmetic(self):
        assert eval_expr(parse_term("c!(1 + 2 * 3) . nil").action.expr) == 7.0

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            eval_expr(parse_term("c!(1 / 0) . nil").action.expr)

    def test_comparisons(self):
        e = parse_term("if 1 < 2 then nil").cond
        assert eval_expr(e) is True

    def test_equality_tolerance(self):
        assert values_equal(0.1 + 0.2, 0.3)
        assert not values_equal(0.1, 0.2)

    def test_mixed_kind_equality_is_false(self):
        assert not values_equal(BitString("0"), 0.0)
        e = parse_term('if x = "01" then nil').cond
        assert eval_expr(e, {"x": 5.0}) is False

    def test_bitstring_equality_exact(self):
        assert values_equal(BitString("01"), BitString("01"))
        assert not values_equal(BitString("01"), BitString("010"))

    def test_cmp(self):
        e = parse_term("c!cmp(k, a, b) . nil").action.expr
        cases = [
            ("1011", "0011", "0101", "11"),
            ("101", "110", "100", "11"),
            ("1011", "0110", "0110", "1011"),   # identical selectors keep every bit
            ("10", "01", "10", ""),             # no agreeing position
        ]
        for k, a, b, want in cases:
            env = {"k": BitString(k), "a": BitString(a), "b": BitString(b)}
            assert eval_expr(e, env) == BitString(want), (k, a, b)

    def test_cmp_length_mismatch(self):
        e = parse_term("c!cmp(k, a, b) . nil").action.expr
        for k, a, b in [("10", "001", "01"), ("10", "1", "10")]:
            env = {"k": BitString(k), "a": BitString(a), "b": BitString(b)}
            with pytest.raises(EvaluationError):
                eval_expr(e, env)

    def test_substr_remstr(self):
        sub = parse_term("c!substr(k, m) . nil").action.expr
        rem = parse_term("c!remstr(k, m) . nil").action.expr
        cases = [
            ("1010", "0110", "01", "10"),
            ("1011", "1010", "11", "01"),
            ("1011", "0000", "", "1011"),       # an all-zero mask keeps nothing
            ("100110", "010011", "010", "101"),
        ]
        for k, m, want_sub, want_rem in cases:
            env = {"k": BitString(k), "m": BitString(m)}
            got_sub, got_rem = eval_expr(sub, env), eval_expr(rem, env)
            assert (got_sub, got_rem) == (BitString(want_sub), BitString(want_rem)), (k, m)
            # the two halves interleave back to the original along the mask
            parts = {"1": iter(got_sub), "0": iter(got_rem)}
            assert "".join(next(parts[bit]) for bit in m) == k
        for expr in (sub, rem):
            with pytest.raises(EvaluationError):
                eval_expr(expr, {"k": BitString("1011"), "m": BitString("101")})

    def test_concat_length(self):
        env = {"a": BitString("01"), "b": BitString("1")}
        assert eval_expr(parse_term("c!concat(a, b) . nil").action.expr, env) == BitString("011")
        assert eval_expr(parse_term("c!length(a) . nil").action.expr, env) == 2.0

    def test_boolean_short_circuit(self):
        e = parse_term('if x = 1 or 1 / 0 > 0 then nil').cond
        # 'or' must not evaluate the right side once the left is true
        assert eval_expr(e, {"x": 1.0}) is True

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            eval_expr(Var("nope"))

    def test_type_errors(self):
        with pytest.raises(EvaluationError):
            eval_expr(parse_term('c!(1 + concat("0", "1")) . nil').action.expr)
        with pytest.raises(EvaluationError):
            eval_expr(parse_term('if "01" < "10" then nil').cond)


class TestJsonExport:
    def test_term_shape(self):
        d = term_json(parse_term("apply H[q] . c!0 . nil"))
        assert d["node"] == "prefix"
        assert d["action"] == {"kind": "apply", "op": "H", "qubits": ["q"]}
        assert d["cont"]["action"]["kind"] == "output"

    def test_module_shape(self):
        mod = parse_module('channels { c : {0, 1} }\nA(; q) := meas Mcomp[q; x] . c!x . nil')
        d = module_json(mod)
        assert d["channels"] == {"c": ["0", "1"]}
        assert d["definitions"]["A"]["qparams"] == ["q"]
        assert d["definitions"]["A"]["body"]["action"]["kind"] == "meas"


SAMPLE = ("( c?x . meas M[q; y] . d!(x + y) . nil || "
          "pchoice { 1/3 -> #e!r . nil ; 2/3 -> tau . A(1; r) } ) \\ {c} [d -> f]")


class TestHashConsing:
    def test_parsing_twice_gives_the_same_object(self):
        assert parse_term(SAMPLE) is parse_term(SAMPLE)
        a = parse_module("A(x; q) := c!x . apply H[q] . nil").definitions["A"]
        b = parse_module("A(x; q) := c!x . apply H[q] . nil").definitions["A"]
        assert a is b

    def test_alpha_canonical_of_a_canonical_term_is_itself(self):
        t = parse_term(SAMPLE)
        assert alpha_canonical(t) is t
        assert parse_term("c?z . d!z . nil") is parse_term("c?w . d!w . nil")

    def test_substitution_that_changes_nothing_is_identity(self):
        t = parse_term(SAMPLE)
        assert subst_values(t, {"unused": 1.0}) is t
        assert subst_values(t, {t.body.body.parts[0].action.var: 1.0}) is t  # bound
        assert subst_values(t, {}) is t
        assert subst_qubits(t, {"elsewhere": "q9"}) is t
        assert subst_qubits(t, {}) is t
        # a change rebuilds only the path to the substituted name
        renamed = subst_qubits(t, {"r": "s"})
        assert renamed is not t
        assert renamed.body.body.parts[0] is t.body.body.parts[0]

    def test_equal_built_terms_are_identical(self):
        a = Prefix(COut(Channel("c"), Lit(1.0)), NIL)
        b = Prefix(COut(Channel("c"), Lit(1)), NIL)
        assert a is b
        assert Restrict(a, [Channel("c"), Channel("d")]) is Restrict(
            a, (Channel("d"), Channel("c")))
        assert Channel("c") is not Channel("c", quantum=True)

    def test_literal_identity_keeps_kinds_and_signs_apart(self):
        assert Lit(True) is not Lit(1.0)
        assert Lit(False) is not Lit(0.0)
        assert Lit(-0.0) is not Lit(0.0)
        assert Lit(BitString("1")) is not Lit(1.0)
        assert Lit(0.5) is Lit(0.5)
        assert Lit(BitString("01")) is Lit(BitString("01"))

    def test_copies_are_the_node_itself(self):
        t = parse_term(SAMPLE)
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t, t]) == [t, t]
        assert pickle.loads(pickle.dumps(t)) is t

    def test_unused_terms_are_not_kept(self):
        gc.collect()
        size = len(calculus._TABLE)
        t = parse_term("only_here!1 . nil")
        assert len(calculus._TABLE) > size
        alive = weakref.ref(t)
        del t
        gc.collect()
        assert alive() is None
        assert len(calculus._TABLE) == size  # the dead nodes' keys go too

    def test_free_names_are_cached_per_node(self):
        t = parse_term(SAMPLE)
        assert qv(t) is qv(t)
        assert fv(t) is fv(t) == frozenset()
        assert qv(t) == {"q", "r"}

    def test_constructors_still_validate_with_a_full_table(self):
        built = [parse_term(f"A({i}; q{i}, r{i}) + c!{i} . nil") for i in range(500)]
        assert len({id(t) for t in built}) == 500
        Call("A", (), ("q", "r"))
        with pytest.raises(WellFormednessError):
            Call("A", (), ("q", "q"))
        PChoice(((0.5, NIL), (0.5, NIL)))
        with pytest.raises(WellFormednessError):
            PChoice(((0.5, NIL), (0.4, NIL)))
        Apply("H", ("q",))
        with pytest.raises(WellFormednessError):
            Apply("H", ("q", "q"))
        with pytest.raises(WellFormednessError):
            Relabel(NIL, [(Channel("c"), Channel("d", quantum=True))])
        with pytest.raises(WellFormednessError):
            parse_term("A(; q, q)")
        with pytest.raises(ParseError):
            parse_term("pchoice { 1/2 -> nil ; 1/3 -> nil }")
