"""BB84 key distribution as process terms, and its behavioural checks.

The protocol family is emitted as source text and parsed like any user
model: Alice prepares qubits in random bases, Bob measures in his own,
both keep the positions where bases agree, and a test harness compares
the announced keys.  The security variant inserts an intercept-resend
attacker between the parties and adds the detection phase where half of
the raw key is sacrificed and compared in public.

Soundness means the tested protocol is indistinguishable from an ideal
process announcing binomially-distributed uniform keys; security means
the attacked protocol sits within distance c^n of a process that does
nothing visible at all, where c = 1/2 + sqrt(3)/4.  Both reduce to the
engines in `bisim`; this module only builds instances and aggregates
their numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .bisim import CheckReport, DistanceBound, decide_bisim, distance_upper_bound
from .calculus import Channel, parse_module
from .errors import ConfluenceError
from .quantum import QubitRegister, QuantumState
from .semantics import ConfigDistribution, Label, System, _float


class SecurityConstant(NamedTuple):
    """Base of the eavesdropping-detection failure rate."""

    c: float = 0.5 + math.sqrt(3.0) / 4.0


SECURITY_CONSTANT = SecurityConstant()

_MAX_N = 6          # term size grows as 4^n; past this the builders refuse
_WORK_BUDGET = 500_000_000


# ---------------------------------------------------------------------------
# source emission


def _mask(indexes, length: int) -> str:
    return "".join("1" if i in indexes else "0" for i in range(1, length + 1))


def _strings(n: int):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def _weight(num, den) -> str:
    f = Fraction(num, den)
    return f"{f.numerator}/{f.denominator}"


def _pchoice(branches) -> str:
    body = "\n  ; ".join(f"{w} -> {t}" for w, t in branches)
    return "pchoice {\n    " + body + "\n  }"


def _subset_draw(m: int) -> str:
    """Detection draw for a raw key `kp` of length m.

    Uniformly picks ceil(m/2) positions, announces the mask and the
    selected bits, and releases the remainder as the final key only when
    the partner's selection agrees.
    """
    k = (m + 1) // 2
    masks = [_mask(set(combo), m)
             for combo in itertools.combinations(range(1, m + 1), k)]

    def arm(mask):
        quoted = f'"{mask}"'
        return (f"a2b!{quoted} . a2b!substr(kp, {quoted}) . b2a?kb2 . "
                f"( if substr(kp, {quoted}) = kb2 then "
                f"( keyfa!remstr(kp, {quoted}) . nil ) )")

    if len(masks) == 1:
        return arm(masks[0])
    return _pchoice([(_weight(1, len(masks)), arm(m_)) for m_ in masks])


def _module_source(n: int) -> str:
    qs = ", ".join(f"q{i + 1}" for i in range(n))
    ys = ", ".join(f"y{i + 1}" for i in range(n))
    zeros = "0" * n
    send = lambda chan, names: " . ".join(f"#{chan}!{v}" for v in names.split(", "))
    recv = lambda chan, names: " . ".join(f"#{chan}?{v}" for v in names.split(", "))

    alice_branches = [
        (_weight(1, 4 ** n),
         f"apply Set_{ka}[{qs}] . apply H_{ba}[{qs}] . {send('A2B', qs)} . "
         f'AliceWait("{ba}", "{ka}";)')
        for ba, ka in itertools.product(_strings(n), repeat=2)
    ]
    bob_branches = [
        (_weight(1, 2 ** n),
         f"meas M_{bb}[{ys}; kb] . apply Set_{zeros}[{ys}] . "
         f'b2a!"{bb}" . BobWait("{bb}", kb;)')
        for bb in _strings(n)
    ]
    eve_branches = [
        (_weight(1, 2 ** n),
         f"meas M_{be}[{ys}; ke] . {send('E2B', ys)} . keyfe!ke . nil")
        for be in _strings(n)
    ]

    spec_branches = []
    for i in range(n + 1):
        for x in _strings(i):
            spec_branches.append(
                (Fraction(math.comb(n, i), 2 ** (n + i)),
                 f'apply Set_{zeros}[{qs}] . key!"{x}" . nil'))
    biased = {t: w for w, t in spec_branches}
    shift = Fraction(1, 2 ** (n + 2))
    empty_arm = f'apply Set_{zeros}[{qs}] . key!"" . nil'
    zero_arm = f'apply Set_{zeros}[{qs}] . key!"0" . nil'
    biased[empty_arm] += shift
    biased[zero_arm] -= shift

    draws = " + ".join(
        f"( if length(kp) = {m} then ( {_subset_draw(m)} ) )" for m in range(n + 1))

    return f"""
AliceWait(ba, ka;) := b2a?bb . a2b!ba . key_a!cmp(ka, ba, bb) . nil
AliceMain(; {qs}) := {_pchoice(alice_branches)}
BobWait(bb, kb;) := a2b?ba . key_b!cmp(kb, ba, bb) . nil
BobMain(;) := {recv('A2B', ys)} . {_pchoice(bob_branches)}
TestMain(;) := key_a?ka . key_b?kb . ( if ka = kb then ( key!ka . nil ) else ( fail!0 . nil ) )
BasicTest(; {qs}) := ( AliceMain(; {qs}) || BobMain(;) || TestMain(;) ) \\ {{a2b, b2a, #A2B, key_a, key_b}}

SpecMain(; {qs}) := {_pchoice([(_weight(w.numerator, w.denominator), t) for w, t in spec_branches])}
SpecBiased(; {qs}) := {_pchoice([(_weight(w.numerator, w.denominator), t) for t, w in biased.items()])}

AliceCheck(;) := key_a?kp . ( {draws} )
AliceSide(; {qs}) := ( AliceMain(; {qs}) || AliceCheck(;) ) \\ {{key_a}}
BobCheck(;) := key_b?kp . a2b?xm . a2b?ka2 . b2a!substr(kp, xm) . ( if substr(kp, xm) = ka2 then ( keyfb!remstr(kp, xm) . nil ) )
BobSide(;) := ( BobMain(;) || BobCheck(;) ) \\ {{key_b}}
EveMain(;) := {recv('A2E', ys)} . {_pchoice(eve_branches)}
TestSec(;) := keyfa?x . keyfb?y . keyfe?z . ( if x != y then ( fail!0 . nil ) else ( if x = z then ( hacked!0 . nil ) ) )
SecurityTest(; {qs}) := ( AliceSide(; {qs})[#A2B -> #A2E] || BobSide(;)[#A2B -> #E2B] || EveMain(;) || TestSec(;) ) \\ {{a2b, b2a, #A2E, #E2B, keyfa, keyfb, keyfe}}
IdealSec(; {qs}) := apply Set_{zeros}[{qs}] . nil
"""


@lru_cache(maxsize=8)
def _protocol_system(n: int):
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"security parameter must be in 1..{_MAX_N}, got {n}")
    source = _module_source(n)
    register = QubitRegister.of([f"q{i + 1}" for i in range(n)])
    system = System(parse_module(source), register=register, budget=_WORK_BUDGET)
    return system, source, register


def _out(chan: str, value) -> Label:
    return Label(Label.OUT, Channel(chan), value)


FAIL = _out("fail", 0.0)
HACKED = _out("hacked", 0.0)


# ---------------------------------------------------------------------------
# protocol instances


@dataclass(frozen=True)
class ProtocolInstance:
    """A built protocol configuration ready for checking."""

    n: int
    mode: str
    system: System
    root: ConfigDistribution
    forbidden: frozenset
    source: str
    register: QubitRegister
    ideal: Optional[ConfigDistribution] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("security parameter must be at least 1")


def _build(n: int, mode: str, term: str, forbidden, ideal_term: str = None) -> ProtocolInstance:
    system, source, register = _protocol_system(n)
    state = QuantumState.product(register, None)
    root = system.dirac(system.config(term, state))
    ideal = None
    if ideal_term is not None:
        ideal = system.dirac(system.config(ideal_term, state))
    return ProtocolInstance(n, mode, system, root, frozenset(forbidden),
                            source, register, ideal)


def build_bb84_test(n: int) -> ProtocolInstance:
    """Basic protocol plus the key-comparison harness; fail!0 is forbidden."""
    qs = ", ".join(f"q{i + 1}" for i in range(n))
    return _build(n, "basic_test", f"BasicTest(; {qs})", {FAIL})


def build_bb84_spec(n: int, biased: bool = False) -> ProtocolInstance:
    """Ideal announcer: binomial key lengths, uniform keys per length.

    `biased` shifts 2^-(n+2) probability mass from key "0" to the empty
    key, giving a negative control that must be distinguishable.
    """
    qs = ", ".join(f"q{i + 1}" for i in range(n))
    name = "SpecBiased" if biased else "SpecMain"
    return _build(n, "spec", f"{name}(; {qs})", set())


def build_bb84_security_test(n: int) -> ProtocolInstance:
    """Protocol with detection phase under an intercept-resend attacker."""
    qs = ", ".join(f"q{i + 1}" for i in range(n))
    return _build(n, "security_test", f"SecurityTest(; {qs})",
                  {FAIL, HACKED}, ideal_term=f"IdealSec(; {qs})")


# ---------------------------------------------------------------------------
# probability accumulation


_NOTHING: dict = {}


def eventual_label_probabilities(system: System, root: ConfigDistribution,
                                 tol: float = None) -> dict:
    """Probability that each visible label is ever fired, from `root`.

    Backward accumulation over the finishing order of the reach
    (`System.post_order`), so each configuration is folded after all of
    its successors, without recursion; a cycle raises CyclicModelError.
    Internal nondeterminism is tolerated only when every choice yields the
    same eventual probabilities (checked within `tol`); otherwise the
    quantity is scheduler-dependent and a ConfluenceError is raised.

    The memo is a list indexed by configuration index, sized after the
    walk: the walk steps, and so interns, the configurations it reaches.
    """
    tol = system.tol if tol is None else tol
    order = system.post_order(root.support, skip_proved=False)
    # configuration index -> eventual probability of each label
    memo = [None] * system._n_configs
    for cfg in order:
        vecs = []
        for t in system.step(cfg):
            label, target = t.label, t.target
            if target is not None:
                # each sum below would be 0.0 + 1 * q, which is q
                vec = memo[target.index]
                vecs.append({**vec, label: 1.0} if label.visible else vec)
                continue
            vec = {}
            for s, p in t.dist.probs.items():
                p = _float(p)  # every q is a float: the same bits as p * q
                for seen, q in memo[s.index].items():
                    vec[seen] = vec.get(seen, 0.0) + p * q
            if label.visible:
                vec[label] = 1.0
            vecs.append(vec)
        for other in vecs[1:]:
            keys = set(vecs[0]) | set(other)
            if any(abs(vecs[0].get(k, 0.0) - other.get(k, 0.0)) > tol for k in keys):
                raise ConfluenceError(
                    f"eventual probabilities depend on scheduling at {cfg}")
        memo[cfg.index] = vecs[0] if vecs and vecs[0] else _NOTHING

    total = {}
    for c, p in root:
        p = _float(p)
        for label, q in memo[c.index].items():
            total[label] = total.get(label, 0.0) + p * q
    return total


def forbidden_action_probability(instance: ProtocolInstance) -> float:
    """Total probability that the instance ever fires a forbidden label."""
    if not instance.forbidden:
        return 0.0
    probs = eventual_label_probabilities(instance.system, instance.root)
    return sum(p for label, p in probs.items() if label in instance.forbidden)


# ---------------------------------------------------------------------------
# bounds and verdicts


def security_bound(n: int) -> float:
    """The bound c^n, cross-checked against its binomial-sum form."""
    if n < 1:
        raise ValueError("security parameter must be at least 1")
    c = SECURITY_CONSTANT.c
    closed = c ** n
    root34 = math.sqrt(3.0) / 2.0
    binomial = sum(math.comb(n, i) * root34 ** i for i in range(n + 1)) / 2 ** n
    if abs(closed - binomial) > 1e-12:
        raise ArithmeticError(
            f"bound forms disagree at n={n}: {closed!r} vs {binomial!r}")
    return closed


def verify_soundness(n: int, tol: float = None) -> CheckReport:
    """Decide whether the tested protocol matches the ideal announcer."""
    test = build_bb84_test(n)
    spec = build_bb84_spec(n)
    return decide_bisim(test.root, spec.root, test.system, tol=tol)


def verify_security(n: int, tol: float = None) -> DistanceBound:
    """Bound the distance between the attacked protocol and silence.

    Returns the engine's distance bound against the do-nothing process,
    with the accumulated forbidden-action probability and c^n attached as
    annotations.  Raises ArithmeticError if either quantity exceeds the
    c^n bound beyond tolerance: that would falsify the security claim.
    """
    return _security(n, tol)[1]


def _security(n: int, tol: float = None) -> tuple:
    """(instance, `verify_security(n, tol)`, the eventual label
    probabilities of the instance), each computed once."""
    instance = build_bb84_security_test(n)
    tol = instance.system.tol if tol is None else tol
    bound = distance_upper_bound(instance.root, instance.ideal, instance.system, tol=tol)
    probs = eventual_label_probabilities(instance.system, instance.root)
    p = sum(q for label, q in probs.items() if label in instance.forbidden)
    cn = security_bound(n)
    if bound.value > cn + tol or p > cn + tol:
        raise ArithmeticError(
            f"security bound violated at n={n}: distance {bound.value!r}, "
            f"forbidden probability {p!r}, bound {cn!r}")
    extra = {"forbidden_probability": p, "security_bound": cn}
    return instance, replace(bound, annotations=tuple(bound.annotations) + (extra,)), probs


def soundness_report(n: int, tol: float = None) -> dict:
    """Machine-readable summary of the soundness check."""
    test = build_bb84_test(n)
    report = verify_soundness(n, tol=tol)
    probs = eventual_label_probabilities(test.system, test.root)
    p_fail = sum(p for label, p in probs.items() if label in test.forbidden)
    return {
        "n": n,
        "mode": test.mode,
        "states": len(test.system.reachable(list(test.root.support))),
        "p_fail": p_fail,
        "verdict": "bisimilar" if report.holds else "not bisimilar",
        "holds": report.holds,
    }


def security_report(n: int, tol: float = None) -> dict:
    """Machine-readable summary of the security check."""
    instance, bound, probs = _security(n, tol)
    return {
        "n": n,
        "mode": instance.mode,
        "states": len(instance.system.reachable(list(instance.root.support))),
        "p_fail": probs.get(FAIL, 0.0),
        "p_hacked": probs.get(HACKED, 0.0),
        "bound": bound.value,
        "c_pow_n": security_bound(n),
        "verdict": "secure" if bound.value <= security_bound(n) else "inconclusive",
    }
