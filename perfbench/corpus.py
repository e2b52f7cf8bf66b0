"""Seeded generators for the two random-system corpora.

The benchmark owns these generators so that its workloads never change
behind its back: the program under test receives only the source text and
density matrices produced here.

A corpus item is one system: a register, an initial density matrix, and a
list of `(left source, right source, bisimilar-by-construction)` pairs that
the benchmark queries.  The terms of item k come from a fixed stream, so
every seed runs the same mix of term shapes; the seed draws the initial
density matrices.  Query cost depends mostly on term shape and spans three
orders of magnitude between shapes, so with shapes drawn per seed a run of
a few dozen systems would measure the draw rather than the program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_CHANNELS = ("a", "b", "c")
_OPS = ("H", "X", "Set0", "Set1", "Dephase")
_WEIGHTS = (("1/2", "1/2"), ("1/4", "3/4"), ("3/4", "1/4"))

# syntactic size caps (see `size`) keep the per-query cost bounded without
# consulting the program
SEQUENTIAL_MAX_SIZE = 8
CONCURRENT_MAX_SIZE = 6
# cap on (size(a) + 1) * (size(b) + 1) for the silent components of a wide
# system: the interleavings multiply, and past 6 single systems took 10-20 s
WIDE_MAX_PRODUCT = 6


@dataclass(frozen=True)
class Item:
    """One corpus system and the source pairs to query on it."""

    qubits: tuple
    matrix: np.ndarray
    pairs: tuple     # (left, right, bisimilar by construction)


# fixed streams for the term shapes of each corpus
_SHAPE_STREAM = {"random_sequential": 6, "random_concurrent": 7}
_SHAPES, _STATES = 0, 1   # keep the two kinds of draw apart


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A full-rank density matrix from a complex Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def _paren(src: str) -> str:
    return f"( {src} )" if ("+" in src or "||" in src) else src


class _Terms:
    """Random sequential terms over one qubit, with unique measurement
    variables so an unused measurement can be told from a used one.  A
    silent term has no visible action: only `tau`, operators, measurements
    and probabilistic choice."""

    KINDS = ("out", "out", "tau", "apply", "meas", "pchoice", "sum")
    SILENT_KINDS = ("tau", "apply", "meas", "meas", "pchoice")

    def __init__(self, rng: np.random.Generator, qubit: str, var_prefix: str = "x",
                 silent: bool = False):
        self.rng = rng
        self.qubit = qubit
        self.var_prefix = var_prefix
        self.silent = silent
        self.kinds = self.SILENT_KINDS if silent else self.KINDS
        self.count = 0

    def _channel(self) -> str:
        return _CHANNELS[self.rng.integers(0, len(_CHANNELS))]

    def term(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.2:
            return "nil"
        kind = rng.choice(self.kinds)
        sub = lambda: _paren(self.term(depth - 1))
        if kind == "out":
            return f"{self._channel()}!{rng.integers(0, 2)} . {sub()}"
        if kind == "tau":
            return f"tau . {sub()}"
        if kind == "apply":
            op = _OPS[rng.integers(0, len(_OPS))]
            return f"apply {op}[{self.qubit}] . {sub()}"
        if kind == "meas":
            self.count += 1
            var = f"{self.var_prefix}{self.count}"
            ch = self._channel()
            if not self.silent and rng.random() < 0.5:
                return f"meas Mcomp[{self.qubit}; {var}] . {ch}!{var} . {sub()}"
            return f"meas Mcomp[{self.qubit}; {var}] . {sub()}"
        if kind == "pchoice":
            w1, w2 = _WEIGHTS[rng.integers(0, len(_WEIGHTS))]
            return f"pchoice {{ {w1} -> {sub()} ; {w2} -> {sub()} }}"
        left = f"{self._channel()}!{rng.integers(0, 2)} . {sub()}"
        if rng.random() < 0.4:
            right = f"tau . {sub()}"
        else:
            right = f"{self._channel()}!{rng.integers(0, 2)} . {sub()}"
        return f"{left} + {right}"


def variant(src: str, kind: str) -> str:
    """A source bisimilar to `src` by construction: internal padding, a
    probabilistic choice between two copies, or commuted components."""
    if kind == "swap":
        return _swap(src)
    inner = _paren(src)
    if kind == "tau":
        return f"tau . {inner}"
    return f"pchoice {{ 1/2 -> {inner} ; 1/2 -> {inner} }}"


_MEAS = re.compile(r"meas Mcomp\[(\w+); (\w+)\] \. ")


def dephasing_companion(rng: np.random.Generator, src: str):
    """`src` with one unused computational-basis measurement replaced by
    dephasing of the same qubit, or None when every measurement is used.

    No verdict is expected: the pair is often distribution-bisimilar but
    not state-bisimilar, which is the gap between the two notions.
    """
    unused = [m for m in _MEAS.finditer(src)
              if len(re.findall(rf"\b{m.group(2)}\b", src)) == 1]
    if not unused:
        return None
    m = unused[int(rng.integers(0, len(unused)))]
    return f"{src[:m.start()]}apply Dephase[{m.group(1)}] . {src[m.end():]}"


def size(src: str) -> int:
    """Prefixes plus choice branches: a syntactic proxy for state count."""
    return src.count(" . ") + src.count("->") + src.count(" + ")


def sequential_pairs(rng: np.random.Generator, index: int) -> tuple:
    """One-qubit system: a depth-3 base term, a bisimilar variant, an
    unrelated depth-2 term, and the base's measurement/dephasing companion.
    The variant kind alternates with `index`, so every batch mixes both."""
    while True:
        terms = _Terms(rng, "q1")
        base = terms.term(3)
        other = terms.term(2)
        twin = variant(base, ("tau", "pchoice")[index % 2])
        companion = dephasing_companion(rng, base)
        if companion is None:
            continue
        if size(base) + size(other) > SEQUENTIAL_MAX_SIZE:
            continue
        return ("q1",), ((base, twin, True), (base, other, False),
                         (base, companion, False))


# ---------------------------------------------------------------------------
# two-qubit concurrent systems


COUPLINGS = ("none", "classical", "qubit")


def concurrent_system(rng: np.random.Generator, coupling: str) -> str:
    """Two depth-1 sequential components on q1 and q2 joined by `||`.

    `classical`: the first component hands a bit to the second on the
    restricted channel h, which the receiver echoes visibly.  `qubit`: the
    first component transforms q1 and passes it to the second over the
    restricted channel #g, and the receiver measures it.
    """
    b = _paren(_Terms(rng, "q2", "y").term(1))
    if coupling == "qubit":
        op = _OPS[rng.integers(0, len(_OPS))]
        # after the send q1 belongs to the receiver; the sender ends
        send = f"apply {op}[q1] . #g!q1 . nil"
        recv = f"#g?r . meas Mcomp[r; w] . c!w . {b}"
        return f"( {send} || {recv} ) \\ {{#g}}"
    a = _paren(_Terms(rng, "q1", "x").term(1))
    if coupling == "none":
        return f"{a} || {b}"
    if rng.random() < 0.5:
        send = "meas Mcomp[q1; m] . h!m . nil"
    else:
        send = f"h!{rng.integers(0, 2)} . {a}"
    recv = f"h?v . {_CHANNELS[rng.integers(0, 3)]}!v . {b}"
    return f"( {send} || {recv} ) \\ {{h}}"


def _swap(src: str) -> str:
    """Commute the two top-level components (strongly bisimilar)."""
    if src.endswith(" \\ {h}") or src.endswith(" \\ {#g}"):
        body, _, restr = src.rpartition(" \\ ")
        body = body[2:-2]
        return f"( {_swap(body)} ) \\ {restr}"
    depth = 0
    for i, ch in enumerate(src):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and src.startswith(" || ", i):
            return f"{src[i + 4:]} || {src[:i]}"
    raise ValueError(f"no top-level parallel composition in {src!r}")


def wide_system(rng: np.random.Generator) -> str:
    """Two uncoupled silent components on q1 and q2, each with a
    probabilistic branch (a measurement or a probabilistic choice).  Their
    outcomes interleave, so the distributions the engines combine have the
    product of the two supports: the corpus's large LPs come from here."""
    while True:
        a = _paren(_Terms(rng, "q1", "x", silent=True).term(2))
        b = _paren(_Terms(rng, "q2", "y", silent=True).term(2))
        if not all("meas" in c or "pchoice" in c for c in (a, b)):
            continue
        if (size(a) + 1) * (size(b) + 1) <= WIDE_MAX_PRODUCT:
            return f"{a} || {b}"


def concurrent_pairs(rng: np.random.Generator, index: int) -> tuple:
    """Two-qubit system: a base, a bisimilar variant, and an unrelated
    coupled system.  Odd items are wide (see `wide_system`); on even items
    the base's coupling cycles, so every batch mixes them evenly.  The
    variant kind alternates too.  Duplication twins are left to the
    sequential corpus: on a coupled system they double the configurations,
    and single systems took up to 22 s."""
    kind = ("swap", "tau")[index // 2 % 2]
    while True:
        if index % 2:
            base = wide_system(rng)
        else:
            base = concurrent_system(rng, COUPLINGS[index // 2 % len(COUPLINGS)])
        other = concurrent_system(rng, COUPLINGS[rng.integers(0, len(COUPLINGS))])
        if max(size(base), size(other)) > CONCURRENT_MAX_SIZE:
            continue
        return ("q1", "q2"), ((base, variant(base, kind), True), (base, other, False))


GENERATORS = {
    "random_sequential": sequential_pairs,
    "random_concurrent": concurrent_pairs,
}


def item(workload: str, seed: int, index: int) -> Item:
    """Item `index` of a workload's corpus for `seed`."""
    shapes = np.random.default_rng([_SHAPES, _SHAPE_STREAM[workload], index])
    states = np.random.default_rng([_STATES, seed, index])
    qubits, pairs = GENERATORS[workload](shapes, index)
    return Item(qubits, random_density(states, 2 ** len(qubits)), pairs)
