"""Random acyclic quantum-input-free systems for property tests.

Terms are generated as source strings and pushed through the real parser so
the sampled space is exactly what users can write.  `random_term` builds a
sequential term on one qubit; `random_par_term` composes two of them on
`q1` and `q2`, optionally coupled through a restricted channel, and
`random_wide_term` composes two silent ones whose internal moves
interleave.  `variants` produces companions that are bisimilar by
construction (internal padding, probabilistic duplication), giving the
invariant tests non-vacuous positive instances.  `NON_DYADIC_WEIGHTS`
and `nested_choice` exercise weights that floats cannot hold exactly.
`PAR_SYSTEMS` are fixed hand-written parallel systems.
"""

from fractions import Fraction

import numpy as np

from qbisim.calculus import parse_module
from qbisim.quantum import QubitRegister, QuantumState, random_density
from qbisim.semantics import System

REGISTER = QubitRegister.of(["q1"])
REGISTER2 = QubitRegister.of(["q1", "q2"])

_CHANNELS = ("a", "b", "c")
_OPS = ("H", "X", "Set0", "Set1", "Dephase")
_WEIGHTS = (("1/2", "1/2"), ("1/4", "3/4"), ("3/4", "1/4"))
NON_DYADIC_WEIGHTS = (("1/3", "2/3"), ("1/10", "9/10"), ("3/10", "7/10"))
_KINDS = ("out", "out", "tau", "apply", "meas", "pchoice", "sum")
_SILENT_KINDS = ("tau", "apply", "meas", "meas", "pchoice")
_WIDE_MAX_PRODUCT = 6


def random_term(rng: np.random.Generator, depth: int, counter=None,
                qubit: str = "q1", tail: str = "nil", silent: bool = False,
                weights=_WEIGHTS, measure: bool = True) -> str:
    """A sequential term acting on `qubit`; every leaf is `tail`.

    A silent term has no visible action: only `tau`, operators,
    measurements and probabilistic choice.  Choices draw their weight
    pairs from `weights`; `measure=False` leaves measurements out, so
    every probability of the term is a product of those weights.
    """
    if counter is None:
        counter = [0]
    if depth <= 0 or rng.random() < 0.2:
        return tail
    kinds = _SILENT_KINDS if silent else _KINDS
    kind = rng.choice(kinds if measure else [k for k in kinds if k != "meas"])
    sub = lambda: random_term(rng, depth - 1, counter, qubit, tail, silent,
                              weights, measure)
    if kind == "out":
        ch = _CHANNELS[rng.integers(0, len(_CHANNELS))]
        return f"{ch}!{rng.integers(0, 2)} . {_paren(sub())}"
    if kind == "tau":
        return f"tau . {_paren(sub())}"
    if kind == "apply":
        op = _OPS[rng.integers(0, len(_OPS))]
        return f"apply {op}[{qubit}] . {_paren(sub())}"
    if kind == "meas":
        counter[0] += 1
        var = f"x{counter[0]}"
        ch = _CHANNELS[rng.integers(0, len(_CHANNELS))]
        if not silent and rng.random() < 0.5:
            return f"meas Mcomp[{qubit}; {var}] . {ch}!{var} . {_paren(sub())}"
        return f"meas Mcomp[{qubit}; {var}] . {_paren(sub())}"
    if kind == "pchoice":
        w1, w2 = weights[rng.integers(0, len(weights))]
        return f"pchoice {{ {w1} -> {_paren(sub())} ; {w2} -> {_paren(sub())} }}"
    left = f"{_CHANNELS[rng.integers(0, 3)]}!{rng.integers(0, 2)} . {_paren(sub())}"
    right = "tau . " + _paren(sub()) if rng.random() < 0.4 else \
        f"{_CHANNELS[rng.integers(0, 3)]}!{rng.integers(0, 2)} . {_paren(sub())}"
    return f"{left} + {right}"


def random_par_term(rng: np.random.Generator, depth: int = 2) -> str:
    """Two single-qubit components on q1 and q2, run in parallel.

    The components are independent, or the q1 side ends every branch by
    handing a bit over the restricted channel `k` (the receiver outputs it
    on `a`, then runs its q2 term), or by sending q1 over the restricted
    quantum channel `#m` (the receiver runs a short q2 term, takes q1 and
    goes on with a term on it).
    """
    counter = [0]
    coupling = rng.choice(["none", "classical", "qubit"])
    if coupling == "none":
        left = random_term(rng, depth, counter, "q1")
        right = random_term(rng, depth, counter, "q2")
        return f"{_paren(left)} || {_paren(right)}"
    if coupling == "classical":
        left = random_term(rng, depth, counter, "q1", tail=f"k!{rng.integers(0, 2)} . nil")
        right = "k?z . a!z . " + _paren(random_term(rng, depth, counter, "q2"))
        return f"( {_paren(left)} || {right} ) \\ {{k}}"
    left = random_term(rng, depth, counter, "q1", tail="#m!q1 . nil")
    right = "#m?r . " + _paren(random_term(rng, depth, counter, "r"))
    right = _paren(random_term(rng, 1, counter, "q2", tail=right))
    return f"( {_paren(left)} || {right} ) \\ {{#m}}"


def random_wide_term(rng: np.random.Generator, depth: int = 2) -> str:
    """Two uncoupled silent components on q1 and q2, run in parallel.

    Each component has a measurement or a probabilistic choice, so their
    internal moves interleave: the reachable graph has configurations with
    several internal moves, and certifying it takes the confluence proof.
    The product of the components' sizes, each plus one, is at most
    `_WIDE_MAX_PRODUCT`, which keeps relation search on them quick.
    """
    counter = [0]
    while True:
        left = random_term(rng, depth, counter, "q1", silent=True)
        right = random_term(rng, depth, counter, "q2", silent=True)
        if (all("meas" in t or "pchoice" in t for t in (left, right))
                and (_size(left) + 1) * (_size(right) + 1) <= _WIDE_MAX_PRODUCT):
            return f"{_paren(left)} || {_paren(right)}"


def _size(src: str) -> int:
    """Prefixes plus choice branches: a syntactic proxy for state count."""
    return src.count(" . ") + src.count("->")


def _paren(src: str) -> str:
    return f"( {src} )" if ("+" in src or "||" in src) else src


def variants(src: str, split=("1/2", "1/2")) -> list:
    """Sources bisimilar to `src` by construction (state-based, hence both);
    the last is a choice weighted by `split` between two copies of `src`."""
    inner = _paren(src)
    w1, w2 = split
    return [
        src,
        f"tau . {inner}",
        f"pchoice {{ {w1} -> {inner} ; {w2} -> {inner} }}",
    ]


def padded_mix(src: str, split) -> str:
    """A choice weighted by `split` between `src` and `tau . src`:
    state-based bisimilar to `src` by construction."""
    inner = _paren(src)
    return f"pchoice {{ {split[0]} -> {inner} ; {split[1]} -> tau . {inner} }}"


def nested_choice(rng: np.random.Generator, weights=NON_DYADIC_WEIGHTS,
                  depth: int = 2, measure: bool = True) -> tuple:
    """A choice nested in a choice, over three random terms, and its
    flattening: distribution bisimilar by construction, since both reach
    one distribution by internal moves, but not state-based bisimilar, as
    the inner choice is a state the flat term has no partner for."""
    (w1, w2), (u1, u2) = (weights[rng.integers(0, len(weights))] for _ in range(2))
    a, b, c = (_paren(random_term(rng, depth, measure=measure)) for _ in range(3))
    nested = f"pchoice {{ {w1} -> pchoice {{ {u1} -> {a} ; {u2} -> {b} }} ; {w2} -> {c} }}"
    flat = (f"pchoice {{ {Fraction(w1) * Fraction(u1)} -> {a} ; "
            f"{Fraction(w1) * Fraction(u2)} -> {b} ; {w2} -> {c} }}")
    return nested, flat


def random_system(rng: np.random.Generator, register=REGISTER):
    """A fresh system over `register` with a random initial density matrix."""
    system = System(parse_module("Dummy := nil"), register=register)
    state = random_density(rng, register.dim)
    return system, state


def random_config(rng: np.random.Generator, system, state, depth: int = 3):
    return system.config(random_term(rng, depth), state)


# Hand-written parallel systems over two qubits:
# name -> (module source, root term, initial single-qubit states).
PAR_SYSTEMS = {
    "classical_handoff": (
        "Recv := c?y . if y = 0 then d!0 . nil else tau . d!1 . nil",
        "( meas Mcomp[q1; x] . c!x . apply H[q2] . nil || Recv ) \\ {c}",
        {"q1": "+"},
    ),
    "qubit_passing": (
        "Use(; r) := meas Mdiag[r; x] . e!x . nil",
        "( apply H[q1] . #c!q1 . nil || #c?r . apply X[r] . Use(; r) "
        "|| meas Mcomp[q2; z] . f!z . nil ) \\ {#c}",
        {"q2": "+"},
    ),
    "relabelled": (
        "Send(; q) := #A!q . nil\n"
        "Echo := b?v . a!v . nil",
        "( Send(; q1)[#A -> #B] || #B?r . meas Mcomp[r; x] . b!x . nil "
        "|| Echo[a -> out] ) \\ {#B, b}",
        {"q1": "-", "q2": "1"},
    ),
}


def par_system(name: str):
    """A fresh system and the root configuration of `PAR_SYSTEMS[name]`."""
    source, term, assignment = PAR_SYSTEMS[name]
    system = System(parse_module(source), register=REGISTER2)
    return system, system.config(term, QuantumState.product(REGISTER2, assignment))
