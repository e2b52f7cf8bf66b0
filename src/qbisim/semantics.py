"""Operational semantics: configurations, transitions and their weak closure.

A configuration pairs a process term with a density operator over a fixed
qubit register.  Transitions go from configurations to finite-support
probability distributions of configurations; the probabilistic branching
comes from measurements and from probabilistic choice, everything else is
Dirac.

Classical communication inside a parallel composition is lazy: an input
prefix does not enumerate its value domain, it is paired with whatever a
matching output actually sends.  Only inputs that stay visible at the top
level need a finite channel domain (declared in a `channels` block);
visible quantum inputs range over the register qubits the configuration
does not already hold.

Weak transitions are represented by their extreme points: each support
configuration either halts or commits to one internal alternative, and the
reachable distributions are exactly the convex combinations of the
resulting finite set.  Membership queries therefore reduce to exact
rational feasibility problems.
"""

from __future__ import annotations

import itertools
import json
import weakref
from contextlib import contextmanager
from typing import Callable, NamedTuple

from . import calculus as ca
from .calculus import Channel, Par, Process, Relabel, Restrict, format_value, rename_channel
from .errors import (
    BudgetExceededError,
    ChannelDomainError,
    CyclicModelError,
    EvaluationError,
    WellFormednessError,
)
# not called here: perfbench/spans.py traces the LP under this name too
from .lp import combination_weights  # noqa: F401
from .linalg import as_matrix
from .quantum import (
    _DIGEST_DECIMALS,
    DEFAULT_TOL,
    Measurement,
    QuantumState,
    _matrix_digest,
    check_density_matrix,
    partial_trace,
    resolve_operation,
)

# successive constant unfoldings without an intervening action; kept well
# under the interpreter stack limit so unguarded recursion fails cleanly
_UNFOLD_LIMIT = 256


# ---------------------------------------------------------------------------
# transition labels


class Label:
    """Transition label: tau, classical c?v / c!v, or quantum #c?q / #c!q.

    Real payloads are rounded into the identity, so label sets can be
    compared across systems without floating-point noise.
    """

    __slots__ = ("kind", "chan", "value", "_key", "_hash")

    TAU = "tau"
    IN = "in"
    OUT = "out"
    QIN = "qin"
    QOUT = "qout"

    def __init__(self, kind, chan=None, value=None):
        self.kind = kind
        self.chan = chan
        self.value = value
        if isinstance(value, ca.BitString):
            vkey = ("b", str(value))
        elif isinstance(value, float):
            vkey = ("f", round(value, _DIGEST_DECIMALS) + 0.0)
        else:
            vkey = value
        self._key = (kind, chan, vkey)
        self._hash = hash(self._key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Label) and self._key == other._key

    @property
    def visible(self):
        return self.kind != Label.TAU

    def __str__(self):
        if self.kind == Label.TAU:
            return "tau"
        mark = "?" if self.kind in (Label.IN, Label.QIN) else "!"
        if self.kind in (Label.QIN, Label.QOUT):
            payload = self.value
        else:
            payload = format_value(self.value)
        return f"{self.chan}{mark}{payload}"

    def __repr__(self):
        return f"Label({self})"


TAU = Label(Label.TAU)


def relabel_label(label: Label, mapping: tuple) -> Label:
    if label.kind == Label.TAU:
        return label
    return Label(label.kind, rename_channel(mapping, label.chan), label.value)


# ---------------------------------------------------------------------------
# configurations and distributions


_OPEN = frozenset()  # the hidden channels of a key with no restriction


def _key(term: Process):
    """The component of a term: the term itself when it is a leaf, a node
    that is not a `Par`, `Restrict` or `Relabel`, and otherwise the
    composition key `(hidden, relabel, *parts)`, one flat tuple.

    A key stands for `Relabel(Restrict(Par(parts), hidden), relabel)`: its
    parts are components, `hidden` holds the channels its restriction hides
    (`_OPEN` for none) and `relabel` its relabelling's (old, new) pairs
    (None for none).  Either wrapper may be absent, and one part is
    composed alone, not in a `Par`.  A key of one part and neither wrapper
    is an empty restriction, so `P \\ {}` and `(P || Q) \\ {}` keep apart
    from `P` and `P || Q`.  `_compose` inverts it: `_compose(_key(t)) is t`.
    """
    cls = term.__class__
    if cls is Par:
        return (_OPEN, None, *map(_key, term.parts))
    if cls is Restrict:
        if not term.channels:
            return _OPEN, None, _key(term.body)
        return _wrap(_key(term.body), term.channels, None)
    if cls is Relabel:
        return _wrap(_key(term.body), _OPEN, term.mapping)
    return term


def _wrap(body, hidden: frozenset, relabel):
    """The component of `body` inside the restriction to `hidden`, when it
    is not empty, and then inside the relabelling `relabel`, when there is
    one.

    The parts of a bare composition join the wrappers, and so do those of
    a restriction under a relabelling alone; any other body becomes the one
    part of a key.  `_step_par` builds the targets of a one-part key here,
    so they are the keys of their terms too.  With neither wrapper, as for
    a target of an empty restriction `P \\ {}`, it is `body` itself: that
    step leaves the empty restriction behind.
    """
    if not hidden and relabel is None:
        return body
    if body.__class__ is tuple:
        inner, again = body[0], body[1]
        if again is None and (inner and not hidden or len(body) > 3 and not inner):
            return (hidden or inner, relabel) + body[2:]
    return hidden, relabel, body


def _compose(comp) -> Process:
    """The term of a component: a leaf is its own term, and a key composes
    its parts' terms in parallel, inside its restriction and relabelling."""
    if comp.__class__ is not tuple:
        return comp
    hidden, relabel = comp[0], comp[1]
    one = len(comp) == 3
    term = _compose(comp[2]) if one else Par(tuple(map(_compose, comp[2:])))
    if hidden or relabel is None and one:
        term = Restrict(term, hidden)
    if relabel is not None:
        term = Relabel(term, relabel)
    return term


def _qv(comp) -> frozenset:
    """Free qubits of a component; a one-part key shares its part's set."""
    if comp.__class__ is not tuple:
        return ca.qv(comp)
    return _qv(comp[2]) if len(comp) == 3 else frozenset().union(*map(_qv, comp[2:]))


class Configuration:
    """Interned (component, density matrix) pair; identity is managed by
    the System.

    The key is the component of the term (`_key`): a leaf term, or a
    composition key whose parts are components in turn.  `term` is built
    from it on each read, which only printing does, and `qv` is read from
    its leaves once.
    The matrix is stored raw: states reached by stepping a valid initial
    state through trace-preserving operations stay valid, so only the entry
    point revalidates.  A configuration belongs to the one System that
    interned it, and holds a weak reference to it (`owner`), through which
    its register is read and a point move to it finds its point
    distribution (`System.dirac`); a strong one would keep the System
    alive in a reference cycle.  The
    System keeps its step memo here: `moves`, the step result, None until
    first asked for.
    `facts` is 0 until `qbisim.bisim` proves its reach acyclic and free of
    visible quantum input, folding over a walk (`System.post_order`), and
    then the bits of what that fold found in the reach.  The same fold sets
    `sat`, its first-choice saturation, from its successors'; it is kept
    only if it has an internal move: an inert configuration saturates to
    its point distribution, which refers back.
    """

    __slots__ = ("key", "owner", "matrix", "index", "moves", "sat", "facts", "_qv")

    def __init__(self, key: tuple, owner, matrix, index: int):
        self.key = key
        self.owner = owner
        self.matrix = matrix
        self.index = index
        self.moves = self.sat = self._qv = None
        self.facts = 0

    @property
    def register(self):
        return self.owner().register

    @property
    def term(self) -> Process:
        return _compose(self.key)

    @property
    def qv(self) -> frozenset:
        got = self._qv
        if got is None:
            got = self._qv = _qv(self.key)
        return got

    @property
    def state(self) -> QuantumState:
        return QuantumState(self.register, self.matrix)

    def __hash__(self):
        return self.index

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        return f"<cfg {self.index}: {ca.pretty(self.term)}>"


def _float(p) -> float:
    """`float(p)` of an int, a float or a Fraction, with the same bits:
    the true division of numerator by denominator, which is what
    `numbers.Rational.__float__` computes, without its Python frame and
    its two `int` calls."""
    return p if p.__class__ is float else p.numerator / p.denominator


class ConfigDistribution:
    """Finite-support distribution over configurations of one system.

    Probabilities are exact (int or Fraction) until a measurement outcome
    makes them floats; digests, environments and outputs read floats.

    Distributions are immutable, and each System keeps one object per
    distribution its engines build (`System.combine`), so the facts derived
    from one are computed once and kept on it: its digest, its held qubits,
    and, kept by `qbisim.bisim`, its environment (`_env`), its
    transition-consistent classes (`_tc`), its first-choice saturation
    (`_sat`, True when that is the distribution itself), its derivatives
    (`_der`, by label) and, once saturated, its behaviour form (`_form`).
    Each is a function of the exact value, never a verdict, and no kept
    fact refers back to the distribution itself.  Never assign into
    `probs`."""

    __slots__ = ("probs", "_digest", "_held", "_env", "_tc", "_sat", "_der", "_form")

    def __init__(self, probs):
        self.probs = probs
        self._digest = self._held = self._env = self._tc = None
        self._sat = self._der = self._form = None

    @property
    def digest(self):
        if self._digest is None:
            self._digest = tuple(sorted(
                (c.index, round(_float(p), _DIGEST_DECIMALS)) for c, p in self.probs.items()))
        return self._digest

    def __hash__(self):
        return hash(self.digest)

    def __eq__(self, other):
        return isinstance(other, ConfigDistribution) and self.digest == other.digest

    def __iter__(self):
        return iter(self.probs.items())

    def __len__(self):
        return len(self.probs)

    @property
    def support(self):
        return tuple(self.probs.keys())

    def probability(self, config):
        return self.probs.get(config, 0.0)

    @property
    def mass(self):
        return sum(self.probs.values())

    def held_qubits(self) -> frozenset:
        got = self._held
        if got is None:
            got = self._held = frozenset().union(*(c.qv for c in self.probs))
        return got

    def environment(self):
        """Average state of the qubits no support configuration holds."""
        held = self.held_qubits()
        acc = None
        for c, p in self.probs.items():
            keep = tuple(q for q in c.register.names if q not in held)
            reduced = partial_trace(c.matrix, c.register, keep)
            p = _float(p)
            if acc is None:
                acc = tuple(tuple(p * z for z in row) for row in reduced)
            else:
                acc = tuple(tuple(a + p * z for a, z in zip(ra, row))
                            for ra, row in zip(acc, reduced))
        return keep, acc

    def __repr__(self):
        inner = ", ".join(f"{float(p):.4g}:{c.index}" for c, p in sorted(
            self.probs.items(), key=lambda kv: kv[0].index))
        return f"{{{inner}}}"


def _product(a, b):
    """`a * b` with the same bits, where exactly one factor being a float
    multiplies the two floats (`_float`), as the mixed operators of
    `fractions.Fraction` do, without their Python calls; two exact factors
    stay exact."""
    if (a.__class__ is float) is (b.__class__ is float):
        return a * b
    return _float(a) * _float(b)


class Transition(NamedTuple):
    """A move to a distribution that is not a point: `label, dist = t`."""

    label: Label
    dist: ConfigDistribution
    target = None  # a `PointMove` names its one target here

    @property
    def targets(self):
        """The configurations the move reaches, in branch order."""
        return self.dist.probs


class PointMove:
    """A move of weight exactly int 1 to one configuration, `target`.

    It builds no distribution: `dist` is the System's point distribution
    on the target (`System.dirac`), built on first read and the same
    object on every read, and `label, dist = t` unpacks as a `Transition`
    does.  Walkers read `target` (or `targets`) instead.  The move holds
    no reference to the System; the target does, weakly.
    """

    __slots__ = ("label", "target")

    def __init__(self, label: Label, target: Configuration):
        self.label = label
        self.target = target

    @property
    def dist(self) -> ConfigDistribution:
        target = self.target
        return target.owner().dirac(target)

    @property
    def targets(self) -> tuple:
        return (self.target,)

    def __iter__(self):
        return iter((self.label, self.dist))

    def __repr__(self):
        return f"PointMove({self.label}, {self.target!r})"


# ---------------------------------------------------------------------------
# input capabilities (lazy classical / quantum input)


class _Cap(NamedTuple):
    chan: Channel
    instantiate: Callable  # value or qubit name -> component, or None when blocked


class _Component(NamedTuple):
    """One parallel component stepped at one matrix, indexed for a
    composition under one restriction."""

    moves: tuple    # (Label, branches) the restriction keeps, as `_step_term` gives them
    caps: tuple     # _Cap the restriction keeps
    outputs: tuple  # (label, sender component, sender post-state) of every output
    inputs: dict    # channel -> instantiate functions of every cap on it


# ---------------------------------------------------------------------------
# the system: interning, stepping, weak closure


def fold(key, frame, get, put):
    """The value of `key` in a memoised fold run on an explicit stack, so a
    fold takes no Python frame per step of a model.  `frame(k)` is a
    generator that yields each key whose value it needs, is sent that value
    and returns the value of `k`.  Only the driver reads the memo, by `get`
    (None when missing), and keeps each returned value by `put`.  A key
    needed while its frame is open raises `CyclicModelError`; the open keys
    live in this call alone, so a frame that raises leaves none behind."""
    sent = get(key)
    if sent is not None:
        return sent
    stack, opened = [(key, frame(key))], {key}
    while stack:
        k, gen = stack[-1]
        try:
            need = gen.send(sent)
        except StopIteration as end:
            sent = end.value
            put(k, sent)
            opened.remove(k)
            stack.pop()
            continue
        sent = get(need)
        if sent is None:
            if need in opened:
                raise CyclicModelError(f"cycle through {need!r}; weak moves and "
                                       "the canonical scheduler need an acyclic graph")
            opened.add(need)
            stack.append((need, frame(need)))
    return sent


class System:
    """Execution engine for one module over one qubit register.

    Owns the configuration store, kept per interned density matrix, so
    configurations from different systems never mix.  Each configuration
    carries the System's memo of its step result.  A move of weight
    exactly int 1 is a `PointMove`: it names its target configuration and
    builds no distribution.  There is one point distribution per
    configuration (`dirac`), built when first asked for, and a point move's
    `dist` is that one.  Every other distribution the engines build is kept
    once per value (`combine`), with the facts derived from it, so equal
    combinations in any query are one object, each combined once from the
    same parts.  The configurations hold the register through a weak
    reference to the System (`owner`).  The extreme points of weak moves
    are memoized per (configuration, label), each weak-closure query is a
    `fold` on an explicit stack, and an internal cycle raises
    `CyclicModelError` from every one.

    Configurations are interned per density matrix under the component of
    their term (`_key`), not under the term, and a configuration's term is
    built only when it is read.  A component is a leaf term or a
    composition key, whose parts are components at every depth, and it is
    stepped on one path: a leaf by its rule (`_step_term`), a key, with
    its restriction and relabelling, in one pass over its parts' entries
    (`_step_par`).  Every target is built once as a component, so stepping
    conses no composed term.  A branch carries a post-state only when an
    `apply` or a `meas` made one.  A part is stepped once per (component,
    restriction) when none of its moves carries one, and else once per
    (component, state, restriction), and its entry is indexed for
    communication: configurations that share a component, and a density
    matrix where the part reads it, share its moves and input
    capabilities.  A restricted composition does not build the moves and
    input capabilities its restriction hides.  An input prefix is
    instantiated once per received value or qubit, and a constant once per
    argument values.  One depth-first walk (`post_order`) proves a reach
    acyclic, and a configuration whose reach was proved keeps what the
    proof found (`Configuration.facts`), so no walk repeats that proof.
    `work` counts the units the current query spent against `budget` (see
    `query`): one per combination of extreme weak moves built, and in
    `qbisim.bisim` the support sizes of each pair of saturations the
    canonical walk visits and one per pair of members a refinement walks
    for candidates.

    A System also keeps what the bisimulation engines proved on it
    (`qbisim.bisim`): per tolerance, the point pairs some state-based
    fixpoint kept or deleted, with the evidence for each deletion, and each
    relation-search outcome of `decide_bisim`.  Those verdicts hold for
    every later query on the System, since a configuration's behaviour is
    fixed by what it reaches.  It also keeps the environment distance the
    refinement computed for each pair of environment classes, and, on its
    configurations and distributions, the canonical scheduler's
    saturations, derivatives and behaviour forms.  Looking any of them up
    spends no work units, and replays never read a verdict.
    """

    def __init__(self, module=None, register=None, registry=None,
                 tol: float = DEFAULT_TOL, budget: int = 2_000_000):
        self.module = module or ca.Module()
        self.register = register
        self.registry = dict(registry or {})
        self.tol = tol
        self.budget = budget
        self._ref = weakref.ref(self)  # each configuration's `owner`
        self.work = 0
        self._open_queries = 0
        self._n_configs = 0
        self._matrices = {}      # digest -> interned matrix
        self._given = {}         # id of a caller's matrix -> (it, its conversion)
        self._configs = {}       # id of an interned matrix -> {component key: configuration}
        self._unfold_cache = {}
        # configuration index -> its point distribution; kept here, not on
        # the configuration, so that the two do not form a reference cycle
        self._points = {}
        self._dists = {}         # `_distribution` key -> the one distribution
        self._combined = {}      # `combine` key -> (its result, the parts it read)
        self._component_steps = {}  # (fuel, hidden) or (id(mat), fuel, hidden) -> entries
        # (action class, operation, qubits, id of an interned matrix) -> its
        # interned image, or (value, probability, interned post-state) per
        # outcome of a measurement (`_apply`)
        self._applied = {}
        self._parts = {}         # composition key a part received -> the one such key
        self._inputs = {}
        self._extreme_sets = {}
        self._enabled_cache = {}
        self._state_facts = {}   # tol -> bisim._StateFacts
        self._searches = {}      # bisim._search_key -> relation-search outcome
        self._env_distances = {}  # pair of bisim._env_class -> environment distance

    # -- construction

    def config(self, term, state) -> Configuration:
        """Intern a root configuration; `state` is validated here, once per
        matrix object.

        `term` may be source text or a term object; `state` a QuantumState,
        an interned matrix, or a raw density matrix over the system register
        (nested sequences or anything with `tolist()`), converted here.  The
        term is put in canonical form, which stepping then keeps, and
        interned under its component (`_key`).
        """
        term = ca.parse_term(term) if isinstance(term, str) else ca.alpha_canonical(term)
        if isinstance(state, QuantumState):
            if self.register is None:
                self.register = state.register
            matrix = state.matrix
        elif id(state) in self._configs:
            matrix = state
        else:
            # converted once per object, which is kept so its id stays its own
            given = self._given.get(id(state))
            if given is None:
                given = self._given[id(state)] = (state, as_matrix(state))
            matrix = given[1]
        if self.register is None:
            raise ValueError("system has no register; pass a QuantumState first")
        if isinstance(state, QuantumState) and state.register != self.register:
            raise ValueError("configuration register differs from the system register")
        if id(matrix) not in self._configs:
            # an interned matrix was checked when it came in, or the engine made it
            check_density_matrix(matrix, self.tol)
        if len(matrix) != self.register.dim:
            raise ValueError("state dimension does not match the register")
        missing = ca.qv(term) - set(self.register.names)
        if missing:
            raise WellFormednessError(
                f"term holds qubits outside the register: {sorted(missing)}")
        ca.check_well_formed(term)
        for name, cn, qn in ca._call_sites(term):
            self.module.callee(name, cn, qn)
        return self._intern_key(_key(term), matrix)

    def _share(self, matrix):
        """The interned matrix equal to `matrix`.

        An interned matrix is kept alive by `_matrices`, so its id names it
        and its digest is computed once; only new arrays are hashed.
        """
        if id(matrix) not in self._configs:
            matrix = self._matrices.setdefault(_matrix_digest(matrix), matrix)
            self._configs.setdefault(id(matrix), {})
        return matrix

    def _intern_key(self, key, matrix) -> Configuration:
        """The configuration of the component `key` at `matrix`;
        configurations are kept per interned matrix."""
        table = self._configs.get(id(matrix))
        if table is None:
            matrix = self._share(matrix)
            table = self._configs[id(matrix)]
        got = table.get(key)
        if got is None:
            got = table[key] = Configuration(key, self._ref, matrix, self._n_configs)
            self._n_configs += 1
        return got

    def dirac(self, config: Configuration) -> ConfigDistribution:
        """The point distribution on `config`: one object per configuration,
        so its digest and environment are computed once."""
        got = self._points.get(config.index)
        if got is None:
            got = self._points[config.index] = ConfigDistribution({config: 1})
        return got

    def combine(self, parts) -> ConfigDistribution:
        """Convex combination of (weight, distribution) pairs, as the
        System's one object for it (`_distribution`).

        Parts of weight 0 are skipped.  When one part remains and its weight
        is 1, that distribution itself is returned: distributions are
        immutable, so the callers share it and what is kept on it.  Kept
        per (each weight by type and exact value, each part object); the
        memo holds the parts, so their ids stay theirs."""
        parts = tuple(parts)
        key = []
        for w, dist in parts:
            key += w.__class__, w if w.__class__ is float else w.as_integer_ratio(), id(dist)
        key = tuple(key)
        got = self._combined.get(key)
        if got is None:
            got = self._combined[key] = self._mix(parts), parts
        return got[0]

    def _mix(self, parts) -> ConfigDistribution:
        acc = first = None
        for w, dist in parts:
            if not w:
                continue
            if acc is None:
                if first is None:
                    first = w, dist
                    continue
                fw, fdist = first
                acc = {c: p if fw == 1 else _product(fw, p) for c, p in fdist.probs.items()}
            for c, p in dist.probs.items():
                q = p if w == 1 else _product(w, p)
                prev = acc.get(c)
                acc[c] = q if prev is None else prev + q
        if acc is None:
            if first is None:
                return self._distribution({})
            w, dist = first
            if w == 1:
                return dist
            acc = {c: _product(w, p) for c, p in dist.probs.items()}
        return self._distribution(acc)

    def _distribution(self, probs: dict) -> ConfigDistribution:
        """The System's one distribution with exactly `probs`, which it then
        owns: the same configurations in the same order, with the same
        probability values of the same types.

        So float 1.0 keeps apart from int 1, and the float sums read in
        support order (`ConfigDistribution.environment`) are the same for
        every request.  The key lists each configuration's index and then
        its probability: a float as itself, any other value as its type and
        its integer ratio, which hash and compare without a Python call,
        as a Fraction would not.  Point distributions (`dirac`) and step
        results are kept elsewhere."""
        key = []
        for c, p in probs.items():
            if p.__class__ is float:
                key += c.index, p
            else:
                key += c.index, p.__class__, p.as_integer_ratio()
        key = tuple(key)
        got = self._dists.get(key)
        if got is None:
            got = self._dists[key] = ConfigDistribution(probs)
        return got

    @contextmanager
    def query(self):
        """Scope of one public engine call.  The work budget is per query:
        the outermost scope starts `work` from zero, and calls nested in it
        share that budget rather than refill it."""
        if not self._open_queries:
            self.work = 0
        self._open_queries += 1
        try:
            yield self
        finally:
            self._open_queries -= 1

    def _spend(self, units: int = 1):
        self.work += units
        if self.work > self.budget:
            raise BudgetExceededError(
                "the query exceeded its work budget", budget=self.budget)

    # -- constant unfolding

    def _unfold(self, call: ca.Call):
        """The component of a call's body, instantiated at its arguments."""
        defn = self.module.callee(call.name, len(call.cargs), len(call.qargs))
        # keyed by the values as `Lit` nodes, which keep True apart from
        # 1.0 and -0.0 from 0.0, as raw values would not
        values = tuple(ca.eval_expr(e) for e in call.cargs)
        key = (call.name, tuple(map(ca.Lit, values)), call.qargs)
        got = self._unfold_cache.get(key)
        if got is None:
            body = ca.subst_values(defn.body, dict(zip(defn.cparams, values)))
            got = _key(ca.subst_qubits(body, dict(zip(defn.qparams, call.qargs))))
            self._unfold_cache[key] = got
        return got

    # -- one strong step

    def step(self, config: Configuration) -> tuple:
        """All strong transitions of a configuration (inputs made concrete):
        a `PointMove` for each move of weight exactly int 1, a `Transition`
        for each other."""
        cached = config.moves
        if cached is not None:
            return cached
        mat = config.matrix
        moves, caps = self._step_term(config.key, mat, _UNFOLD_LIMIT)
        # each value or qubit a capability receives is one more move
        for cap in caps:
            if cap.chan.quantum:
                for name in self.register.names:
                    if name in config.qv:
                        continue
                    target = cap.instantiate(name)
                    if target is not None:
                        moves.append((Label(Label.QIN, cap.chan, name), ((1, target, mat),)))
                continue
            domain = self.module.channel_domains.get(cap.chan.name)
            if domain is None:
                detail = ("declared real" if cap.chan.name in self.module.channel_domains
                          else "not declared")
                raise ChannelDomainError(
                    f"visible input on channel {cap.chan} needs a finite domain "
                    f"({detail}); restrict the channel or declare one")
            for v in domain:
                moves.append((Label(Label.IN, cap.chan, v), ((1, cap.instantiate(v), mat),)))
        intern = self._intern_key
        out = []
        for label, branches in moves:
            if len(branches) == 1:
                ((p, t, s),) = branches
                if p.__class__ is int and p == 1:
                    out.append(PointMove(label, intern(t, mat if s is None else s)))
                    continue
            probs = {}
            for p, t, s in branches:
                c = intern(t, mat if s is None else s)
                prev = probs.get(c)
                probs[c] = p if prev is None else prev + p
            out.append(Transition(label, ConfigDistribution(probs)))
        result = config.moves = tuple(out)
        return result

    def _step_term(self, term, mat, fuel: int):
        """Transitions and input capabilities of a component or a term.

        Returns (moves, caps): moves are (Label, branches) with branches a
        tuple of (prob, component, post-state); caps are pending input
        prefixes, whose `instantiate` gives a component.  A branch carries
        a post-state only when an `apply` or a `meas` made one, even one
        that is `mat` itself; None stands for `mat`.  This is the one
        dispatch: a composition key goes to `_step_par`, as does a
        composition term (a summand or an `if` body) under its key, and a
        leaf steps by its rule.  The lists returned are fresh.
        """
        if term.__class__ is tuple:
            return self._step_par(term, mat, fuel)

        if isinstance(term, ca.Nil):
            return [], []

        if isinstance(term, ca.Call):
            if fuel <= 0:
                raise CyclicModelError(
                    f"unguarded recursion while unfolding {term.name}")
            return self._step_term(self._unfold(term), mat, fuel - 1)

        if isinstance(term, ca.Prefix):
            act = term.action
            if isinstance(act, ca.Tau):
                return [(TAU, ((1, _key(term.cont), None),))], []
            if isinstance(act, ca.COut):
                value = ca.eval_expr(act.expr)
                return [(Label(Label.OUT, act.chan, value),
                         ((1, _key(term.cont), None),))], []
            if isinstance(act, ca.CIn):
                cont, var = term.cont, act.var

                def receive(v, cont=cont, var=var, memo=self._inputs):
                    # Lit(v) keeps True apart from 1.0 and -0.0 from 0.0
                    key = (cont, var, ca.Lit(v))
                    got = memo.get(key)
                    if got is None:
                        got = memo[key] = _key(ca.subst_values(cont, {var: v}))
                    return got

                return [], [_Cap(act.chan, receive)]
            if isinstance(act, ca.QOut):
                return [(Label(Label.QOUT, act.chan, act.qvar),
                         ((1, _key(term.cont), None),))], []
            if isinstance(act, ca.QIn):
                cont, qvar = term.cont, act.qvar

                def receive(r, cont=cont, qvar=qvar, memo=self._inputs):
                    if r != qvar and r in ca.qv(cont):
                        return None  # the continuation already holds r
                    key = (cont, qvar, r)
                    got = memo.get(key)
                    if got is None:
                        got = memo[key] = _key(ca.subst_qubits(cont, {qvar: r}))
                    return got

                return [], [_Cap(act.chan, receive)]
            if isinstance(act, ca.Apply):
                return [(TAU, ((1, _key(term.cont), self._apply(act, mat)),))], []
            if isinstance(act, ca.Meas):
                branches = tuple(
                    (p, _key(ca.subst_values(term.cont, {act.var: v})), post)
                    for v, p, post in self._apply(act, mat))
                return [(TAU, branches)], []
            raise TypeError(f"unknown action {act!r}")

        if isinstance(term, ca.If):
            cond = ca.eval_expr(term.cond)
            if not isinstance(cond, bool):
                raise EvaluationError(
                    f"guard evaluated to {format_value(cond)}, expected a boolean")
            return self._step_term(term.body, mat, fuel) if cond else ([], [])

        if isinstance(term, ca.PChoice):
            return [(TAU, tuple((p, _key(t), None) for p, t in term.branches))], []

        if isinstance(term, ca.Sum):
            moves, caps = [], []
            for part in term.parts:
                m, cp = self._step_term(part, mat, fuel)
                moves.extend(m)
                caps.extend(cp)
            return moves, caps

        if isinstance(term, (Par, Restrict, Relabel)):
            return self._step_par(_key(term), mat, fuel)

        raise TypeError(f"cannot step {term!r}")

    def _apply(self, act, mat):
        """The interned image of `mat` under the operation of `act`, an
        `Apply` or a `Meas`: for a measurement, (value, probability,
        interned post-state) per outcome.

        Computed once per System for each operation, its qubits and the
        interned matrix: `mat` is always a configuration's, kept alive in
        `_matrices`, so its identity stands for its value.  An `apply` of a
        measurement or a `meas` of a super-operator is not well formed."""
        key = (act.__class__, act.op, act.qubits, id(mat))
        got = self._applied.get(key)
        if got is None:
            op = resolve_operation(act.op, self.registry)
            if isinstance(op, Measurement) is not isinstance(act, ca.Meas):
                kind = "a measurement" if isinstance(op, Measurement) else "a super-operator"
                raise WellFormednessError(f"{type(act).__name__.lower()} of {act.op}, "
                                          f"which is {kind}")
            out = op.apply(mat, self.register, act.qubits)
            share = self._share
            got = self._applied[key] = share(out) if isinstance(act, ca.Apply) else tuple(
                (v, p, share(post)) for v, p, post in out)
        return got

    def _step_component(self, part, mat, fuel: int, hidden: frozenset,
                        free: dict, table: dict) -> _Component:
        """`_step_term` of one part of a composition, indexed for a
        composition restricted to `hidden`, and kept in `free`, the parts
        stepped at `fuel` under that restriction, when none of its moves
        carries a post-state before the restriction drops any: it reads no
        matrix, and None stands for the stepping configuration's.  Else it
        is kept in `table`, which holds those stepped at `mat` too.

        `mat` is always a configuration's matrix, interned in `_matrices`,
        so its identity stands for its value, and looking a part up builds
        no key tuple.  The entry is built once: the moves and input
        capabilities the restriction keeps, and for communication every
        output, and every capability by channel.  Entries are shared by
        every composition holding the part, and cap closures capture
        components and the input memo only.
        """
        moves, caps = self._step_term(part, mat, fuel)
        outputs = []
        for label, branches in moves:
            if label.kind not in (Label.OUT, Label.QOUT):
                continue
            if len(branches) != 1 or branches[0][0] != 1:
                raise AssertionError("output transitions must be Dirac")
            if label.chan.quantum == (label.kind == Label.QOUT):
                outputs.append((label, branches[0][1], branches[0][2]))
        inputs = {}
        for cap in caps:
            inputs[cap.chan] = inputs.get(cap.chan, ()) + (cap.instantiate,)
        stateless = all(s is None for _, branches in moves for _, _, s in branches)
        got = (free if stateless else table)[part] = _Component(
            tuple(m for m in moves if m[0].chan not in hidden),  # tau has no channel
            tuple(cap for cap in caps if cap.chan not in hidden),
            tuple(outputs), inputs)
        return got

    def _step_par(self, key: tuple, mat, fuel: int):
        """Moves and capabilities of the composition key `key`: its parts
        in parallel under the restriction to `hidden` and then the
        relabelling `relabel`; interleaved part moves and capabilities,
        then communication.

        Each target is a component key, built once: `key` with one or two
        parts replaced, so with the same `hidden` and `relabel`, or for a
        key of one part, its target joined to the wrappers (`_wrap`); no
        term is built.  A part move visible on a hidden channel is dropped,
        as is a capability on one, since the restriction would discard
        them; the relabelling renames the channels of the rest.
        Communication still pairs the parts' own outputs and capabilities,
        so hidden channels still synchronise, and the moves that remain
        keep their order.  A composition key a part receives is kept once
        per System (`_parts`): a nested composition stepped at each matrix
        would otherwise build an equal key for every such target.
        """
        hidden, relabel = key[0], key[1]
        parts = key[2:]
        steps = self._component_steps
        free = steps.get((fuel, hidden))
        if free is None:
            free = steps[(fuel, hidden)] = {}
        # a per-matrix table also holds `mat`, so its id is not reused while it lives
        got = steps.get((id(mat), fuel, hidden))
        if got is None:
            got = steps[(id(mat), fuel, hidden)] = ({}, mat)
        table = got[0]
        entries = [free.get(p) or table.get(p)
                   or self._step_component(p, mat, fuel, hidden, free, table) for p in parts]
        one = len(parts) == 1

        moves, caps = [], []
        for i, entry in enumerate(entries):
            if not (entry.moves or entry.caps):
                continue
            # the key before and after part i, wrappers included
            head, tail = key[:i + 2], key[i + 3:]
            for label, branches in entry.moves:
                if relabel is not None:
                    label = relabel_label(label, relabel)
                if one:
                    moves.append((label, tuple(
                        (p, _wrap(t, hidden, relabel), s) for p, t, s in branches)))
                elif len(branches) == 1:
                    ((p, t, s),) = branches
                    moves.append((label, ((p, head + (t,) + tail, s),)))
                else:
                    moves.append((label, tuple(
                        (p, head + (t,) + tail, s) for p, t, s in branches)))
            others_qv = None  # qubits the siblings hold, for quantum inputs only
            for cap in entry.caps:
                if cap.chan.quantum:
                    if others_qv is None:
                        others_qv = frozenset().union(*map(_qv, parts[:i] + parts[i + 1:]))

                    def wrap(r, inst=cap.instantiate, head=head, tail=tail,
                             others=others_qv):
                        if r in others:
                            return None
                        t = inst(r)
                        return None if t is None else _wrap(t, hidden, relabel) if one else (
                            head + (t,) + tail)

                else:

                    def wrap(v, inst=cap.instantiate, head=head, tail=tail):
                        t = inst(v)
                        return None if t is None else _wrap(t, hidden, relabel) if one else (
                            head + (t,) + tail)

                caps.append(_Cap(
                    cap.chan if relabel is None else rename_channel(relabel, cap.chan), wrap))

        # communication between distinct parts, on the sender's channel
        receivers = None
        for i, entry in enumerate(entries):
            for label, sender, sender_mat in entry.outputs:
                if receivers is None:
                    receivers = [(j, other.inputs) for j, other in enumerate(entries)
                                 if other.inputs]
                for j, inputs in receivers:
                    if i == j:
                        continue
                    for receive in inputs.get(label.chan, ()):
                        received = receive(label.value)
                        if received is None:
                            continue
                        if received.__class__ is tuple:
                            received = self._parts.setdefault(received, received)
                        pieces = list(key)
                        pieces[i + 2] = sender
                        pieces[j + 2] = received
                        moves.append((TAU, ((1, tuple(pieces), sender_mat),)))
        return moves, caps

    # -- weak transitions as extreme points

    def tau_transitions(self, config):
        """The internal moves of `config`: its step tuple itself when every
        move is internal."""
        moves = self.step(config)
        for t in moves:
            if t.label.visible:
                return tuple(t for t in moves if not t.label.visible)
        return moves

    def weak_extremes(self, config: Configuration, label: Label) -> tuple:
        """Extreme distributions reachable by a weak `label` move: internal
        moves, then `label`, then internal moves; for `TAU`, only internal
        moves, halting included."""
        memo = self._extreme_sets
        return fold((config, label), self._extremes, memo.get, memo.__setitem__)

    def _extremes(self, key):
        """One work unit per combination built, and one per point move: a
        point move's extremes are its target's (`combine` returns a lone
        part of int weight 1 as itself), merged in without a product, so a
        chain of internal point moves costs units linear in its length."""
        config, label = key
        found = {}
        if not label.visible:
            halt = self.dirac(config)
            found[halt.digest] = halt
        for trans in self.step(config):
            point = trans.target
            support = trans.targets
            if trans.label == label:
                then = TAU
            elif trans.label.visible or not all(
                    label in self.weak_enabled(s) for s in support):
                continue
            else:
                then = label
            if point is not None:
                self._spend()
                for e in (yield point, then):
                    found.setdefault(e.digest, e)
                continue
            probs = trans.dist.probs
            choice_sets = []
            for s in support:
                choice_sets.append((yield s, then))
            for combo in itertools.product(*choice_sets):
                self._spend()
                mixed = self.combine((probs[s], e) for s, e in zip(support, combo))
                found.setdefault(mixed.digest, mixed)
        return tuple(found.values())

    def weak_enabled(self, config: Configuration) -> frozenset:
        """Visible labels reachable as a full weak transition from here."""
        memo = self._enabled_cache
        return fold(config, self._enabled, memo.get, memo.__setitem__)

    def _enabled(self, config):
        labels = set()
        for trans in self.step(config):
            if trans.label.visible:
                labels.add(trans.label)
            else:
                below = []
                for s in trans.targets:
                    below.append((yield s))
                labels |= frozenset.intersection(*below)
        return frozenset(labels)

    # -- reachability

    def reachable(self, roots, max_configs=None, skip_proved=False):
        """All configurations reachable from the given ones, breadth first;
        with `skip_proved`, none from a configuration whose reach a walk
        proved (`Configuration.facts`), all of which is stepped already.

        Marks are kept by configuration index, as in `post_order`, and grow
        whenever stepping interns new configurations.
        """
        seen = []
        marked = bytearray(self._n_configs)
        frontier = list(roots)
        while frontier:
            nxt = []
            for c in frontier:
                if marked[c.index] or skip_proved and c.facts:
                    continue
                marked[c.index] = 1
                seen.append(c)
                if max_configs is not None and len(seen) > max_configs:
                    raise BudgetExceededError(
                        "state space exceeded the configuration budget",
                        budget=max_configs)
                moves = self.step(c)
                if len(marked) < self._n_configs:
                    marked.extend(bytes(self._n_configs - len(marked)))
                for trans in moves:
                    for s in trans.targets:
                        if not marked[s.index]:
                            nxt.append(s)
            frontier = nxt
        return seen

    def post_order(self, roots, skip_proved=True) -> list:
        """The configurations reachable from `roots`, each after all of its
        successors: the finishing order of an iterative depth-first search
        (Tarjan, SIAM J. Comput. 1972).  A back edge raises
        `CyclicModelError`, so the reach of every configuration listed is
        acyclic.

        With `skip_proved`, a configuration whose reach an earlier walk
        proved (`Configuration.facts`) is neither entered nor listed.  The
        first unstepped configuration the search meets makes it step the
        unproved reach of all `roots` breadth first (`reachable`), so
        configurations are interned in the order every entry point uses.
        Spends no work units.
        """
        roots = list(roots)
        order = []
        # by index: 0 not entered, 1 on the search path, 2 finished
        state = bytearray(self._n_configs)
        # a configuration is entered when first on top, with its successors
        # pushed above it in reverse, and finished when on top again; an
        # edge to an entered, unfinished one is a back edge
        stack = [r for r in reversed(roots) if not (skip_proved and r.facts)]
        while stack:
            c = stack[-1]
            seen = state[c.index]
            if seen:
                stack.pop()
                if seen == 1:
                    state[c.index] = 2
                    order.append(c)
                continue
            state[c.index] = 1
            if c.moves is None:
                self.reachable(roots, skip_proved=True)
                state.extend(bytes(self._n_configs - len(state)))
            for t in reversed(c.moves):
                for s in reversed(t.targets):
                    got = state[s.index]
                    if got == 1:
                        raise CyclicModelError(
                            "the reachable transition graph has a cycle")
                    if not got and not (skip_proved and s.facts):
                        stack.append(s)
        return order


# ---------------------------------------------------------------------------
# whole-graph construction and export


class PLTS:
    """Explicit probabilistic transition graph reachable from a root."""

    def __init__(self, system: System, root, max_configs=200_000):
        self.system = system
        if isinstance(root, Configuration):
            root = system.dirac(root)
        self.root = root
        order = system.reachable(root.support, max_configs=max_configs)
        self.configs = order
        self.index = {c: i for i, c in enumerate(order)}
        self.edges = []
        for c in order:
            for t in system.step(c):
                if t.target is not None:
                    targets = ((1, self.index[t.target]),)
                else:
                    targets = tuple((p, self.index[d]) for d, p in sorted(
                        t.dist, key=lambda kv: kv[0].index))
                self.edges.append((self.index[c], t.label, targets))
        try:
            system.post_order(root.support)
            self.acyclic = True
        except CyclicModelError:
            self.acyclic = False

    def _env_digest(self, config) -> str:
        # imported here: only export digests, and hashlib loads OpenSSL
        import hashlib
        keep = [q for q in self.system.register.names if q not in config.qv]
        reduced = partial_trace(config.matrix, self.system.register, keep)
        return hashlib.sha1(_matrix_digest(reduced)).hexdigest()[:16]

    def to_json(self, with_states: bool = False) -> dict:
        states = []
        for i, c in enumerate(self.configs):
            node = {"id": i, "term": ca.pretty(c.term), "qv": sorted(c.qv),
                    "env_digest": self._env_digest(c)}
            if with_states:
                node["state"] = [[[z.real, z.imag] for z in row] for row in c.matrix]
            states.append(node)
        return {
            "register": list(self.system.register.names),
            "root": [{"id": self.index[c], "p": float(p)} for c, p in sorted(
                self.root, key=lambda kv: kv[0].index)],
            "acyclic": self.acyclic,
            "states": states,
            "transitions": [
                {"src": src, "label": str(label),
                 "target": [{"id": dst, "p": float(p)} for p, dst in targets]}
                for src, label, targets in self.edges
            ],
        }

    def to_json_str(self, with_states: bool = False) -> str:
        return json.dumps(self.to_json(with_states=with_states), indent=2)

    def to_dot(self) -> str:
        roots = {self.index[c] for c in self.root.support}
        lines = ["digraph plts {", "  rankdir=LR;",
                 '  node [shape=box, fontname="monospace"];']
        for i, c in enumerate(self.configs):
            text = ca.pretty(c.term).replace('"', r'\"')
            if len(text) > 60:
                text = text[:57] + "..."
            shape = " peripheries=2" if i in roots else ""
            lines.append(f'  n{i} [label="{i}: {text}"{shape}];')
        for k, (src, label, targets) in enumerate(self.edges):
            if len(targets) == 1:
                lines.append(f'  n{src} -> n{targets[0][1]} [label="{label}"];')
            else:
                lines.append(f'  p{k} [shape=point, width=0.06];')
                lines.append(f'  n{src} -> p{k} [label="{label}", arrowhead=none];')
                for p, dst in targets:
                    lines.append(f'  p{k} -> n{dst} [label="{float(p):.6g}", style=dashed];')
        lines.append("}")
        return "\n".join(lines)
