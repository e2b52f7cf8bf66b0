"""Random acyclic quantum-input-free systems for property tests.

Terms are generated as source strings and pushed through the real parser so
the sampled space is exactly what users can write.  `random_term` builds a
sequential term on one qubit; `random_par_term` composes two of them on
`q1` and `q2`, optionally coupled through a restricted channel,
`random_relabelled_term` nests a restricted pair under a relabelling in a
restricted composition, as the BB84 models do, `random_nested_term`
puts a composition inside a component in each of `NESTED_SHAPES`,
`random_wide_term` composes two silent ones whose internal moves
interleave, and `random_entangled_term` couples two by the two-qubit gate
`CNOT`, which `GATES` loads through `load_registry` for every random
system.
`variants` produces companions that are bisimilar by
construction (internal padding, probabilistic duplication), giving the
invariant tests non-vacuous positive instances.  `NON_DYADIC_WEIGHTS`
and `nested_choice` exercise weights that floats cannot hold exactly.
`PAR_SYSTEMS` are fixed hand-written parallel systems.
`random_density`, `random_superoperator` and `random_unitary` draw the
random states and channels of the property tests.
"""

from fractions import Fraction

import numpy as np

from qbisim.calculus import parse_module
from qbisim.quantum import QubitRegister, QuantumState, SuperOperator, load_registry
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

# CNOT on (control, target), basis order |control target>: no builtin
# entangles two qubits, so random systems load it as a user operation
_ONE, _NIL = [1.0, 0.0], [0.0, 0.0]
GATES = load_registry([{"name": "CNOT", "acts_on_arity": 2, "kraus": [[
    [_ONE, _NIL, _NIL, _NIL],
    [_NIL, _ONE, _NIL, _NIL],
    [_NIL, _NIL, _NIL, _ONE],
    [_NIL, _NIL, _ONE, _NIL],
]]}])


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_superoperator(rng: np.random.Generator, arity: int,
                         kraus_count: int = 2) -> SuperOperator:
    """Random trace-preserving map from a Haar-ish random isometry."""
    dim = 1 << arity
    g = rng.normal(size=(kraus_count * dim, dim)) + 1j * rng.normal(size=(kraus_count * dim, dim))
    q, _ = np.linalg.qr(g)
    kraus = [q[i * dim:(i + 1) * dim, :] for i in range(kraus_count)]
    return SuperOperator("random", arity, kraus)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


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


def random_relabelled_term(rng: np.random.Generator, depth: int = 2) -> str:
    """Shaped like the BB84 security test: a restricted pair renamed inside
    a restricted composition.

    The q1 side ends every branch by handing a bit over the restricted
    channel `k`; its receiver passes it on over `a`, which the relabelling
    turns into `c`, where the outer receiver takes it and runs a q2 term.
    Outputs the q1 term makes on `a` are renamed to `c` as well, so the
    outer receiver may take one of them instead.
    """
    counter = [0]
    left = random_term(rng, depth, counter, "q1", tail=f"k!{rng.integers(0, 2)} . nil")
    right = random_term(rng, depth, counter, "q2")
    return (f"( ( {_paren(left)} || k?z . a!z . nil ) \\ {{k}} [a -> c] "
            f"|| c?w . {_paren(right)} ) \\ {{c}}")


NESTED_SHAPES = ("prefix", "sum", "if", "pchoice", "empty_restriction",
                 "restricted_relabelling")


def random_nested_term(rng: np.random.Generator, shape: str, depth: int = 2) -> str:
    """A composition inside a component, in one of `NESTED_SHAPES`.

    The inner composition runs a q1 term, which ends every branch by
    handing a bit over the restricted channel `k`, beside a receiver that
    passes it on over `a`; it is restricted to `k` and renamed `a -> c`,
    and the outer composition runs it beside a receiver on `c` that goes
    on with a q2 term.  The inner composition is the continuation of a
    `tau`, operator or measurement prefix (`prefix`; the measured bit is
    the one handed over), a summand (`sum`), the branch an `if` takes or
    skips (`if`), a branch of a probabilistic choice (`pchoice`), or a
    restriction of the relabelled pair (`restricted_relabelling`);
    `empty_restriction` wraps it and the outer receiver in `\\ {}`.
    """
    counter = [0]
    bit = f"{rng.integers(0, 2)}"
    act = None
    if shape == "prefix":
        act = rng.choice(["tau", f"apply {_OPS[rng.integers(0, len(_OPS))]}[q1]",
                          "meas Mcomp[q1; y]"])
        if act.startswith("meas"):
            bit = "y"  # the measurement substitutes into the composition
    left = random_term(rng, depth, counter, "q1", tail=f"k!{bit} . nil")
    pair = f"( {_paren(left)} || k?z . a!z . nil )"
    inner = f"( {pair} \\ {{k}} [a -> c] )"
    other = "b!0 . nil" if rng.random() < 0.5 else "tau . a!1 . nil"
    receiver = "c?w . " + _paren(random_term(rng, depth, counter, "q2"))
    if shape == "prefix":
        part = f"{act} . {inner}"
    elif shape == "sum":
        part = f"{inner} + {other}" if rng.random() < 0.5 else f"{other} + {inner}"
    elif shape == "if":
        part = f"if {rng.integers(0, 2)} = 1 then {inner} else {other}"
    elif shape == "pchoice":
        w1, w2 = _WEIGHTS[rng.integers(0, len(_WEIGHTS))]
        part = f"pchoice {{ {w1} -> {inner} ; {w2} -> {other} }}"
    elif shape == "empty_restriction":
        part, receiver = f"( {inner} \\ {{}} )", f"( {receiver} ) \\ {{}}"
    elif shape == "restricted_relabelling":
        part = f"( ( {pair} [a -> c] ) \\ {{k}} )"
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return f"( ( {part} ) || {receiver} ) \\ {{c}}"


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


def random_entangled_term(rng: np.random.Generator, depth: int = 2) -> str:
    """Two components that a CNOT entangles.

    The q1 side ends every branch by sending q1 over the restricted quantum
    channel `#m`; the receiver takes it as r, applies CNOT[r, q2], and then
    runs a short term on r beside one on q2, whose moves interleave.
    """
    counter = [0]
    left = random_term(rng, depth, counter, "q1", tail="#m!q1 . nil")
    on_r = random_term(rng, 1, counter, "r")
    on_q2 = random_term(rng, 1, counter, "q2")
    right = f"#m?r . apply CNOT[r, q2] . ( {_paren(on_r)} || {_paren(on_q2)} )"
    return f"( {_paren(left)} || {right} ) \\ {{#m}}"


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
    """A fresh system over `register` with a random initial density matrix;
    it knows the operations of `GATES`."""
    system = System(parse_module("Dummy := nil"), register=register, registry=GATES)
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
