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

import hashlib
import itertools
import json
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
from .quantum import (
    _DIGEST_DECIMALS,
    DEFAULT_TOL,
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
    composition key `(parts, hidden, relabel)`.

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
        return tuple(map(_key, term.parts)), _OPEN, None
    if cls is Restrict:
        if not term.channels:
            return (_key(term.body),), _OPEN, None
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
        parts, inner, again = body
        if again is None and (inner and not hidden or len(parts) > 1 and not inner):
            return parts, hidden or inner, relabel
    return (body,), hidden, relabel


def _compose(comp) -> Process:
    """The term of a component: a leaf is its own term, and a key composes
    its parts' terms in parallel, inside its restriction and relabelling."""
    if comp.__class__ is not tuple:
        return comp
    parts, hidden, relabel = comp
    term = Par(tuple(map(_compose, parts))) if len(parts) > 1 else _compose(parts[0])
    if hidden or relabel is None and len(parts) == 1:
        term = Restrict(term, hidden)
    if relabel is not None:
        term = Relabel(term, relabel)
    return term


def _qv(comp) -> frozenset:
    """Free qubits of a component; a one-part key shares its part's set."""
    if comp.__class__ is not tuple:
        return ca.qv(comp)
    parts = comp[0]
    return _qv(parts[0]) if len(parts) == 1 else frozenset().union(*map(_qv, parts))


class Configuration:
    """Interned (component, density matrix) pair; identity is managed by
    the System.

    The key is the component of the term (`_key`): a leaf term, or a
    composition key whose parts are components in turn.  `term` is built
    from it on first read, and `qv` is read from its leaves, both once.
    The matrix is stored raw: states reached by stepping a valid initial
    state through trace-preserving operations stay valid, so only the entry
    point revalidates.  A configuration belongs to the one System that
    interned it, which keeps its step memo here: `moves`, the step result,
    and `tau_moves`, its internal part, both None until first asked for.
    `sat` is its first-choice saturation (`qbisim.bisim`), kept once it
    has an internal move; an inert configuration saturates to its point
    distribution, which is not kept here, since it refers back to it.
    """

    __slots__ = ("key", "register", "matrix", "index", "moves", "tau_moves",
                 "sat", "_term", "_qv")

    def __init__(self, key: tuple, register, matrix, index: int):
        self.key = key
        self.register = register
        self.matrix = matrix
        self.index = index
        self.moves = self.tau_moves = self.sat = self._term = self._qv = None

    @property
    def term(self) -> Process:
        got = self._term
        if got is None:
            got = self._term = _compose(self.key)
        return got

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
            acc = p * reduced if acc is None else acc + p * reduced
        return keep, acc

    def __repr__(self):
        inner = ", ".join(f"{float(p):.4g}:{c.index}" for c, p in sorted(
            self.probs.items(), key=lambda kv: kv[0].index))
        return f"{{{inner}}}"


class Transition(NamedTuple):
    label: Label
    dist: ConfigDistribution


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
    outputs: tuple  # (label, sender component, sender matrix) of every output
    inputs: dict    # channel -> instantiate functions of every cap on it


# ---------------------------------------------------------------------------
# the system: interning, stepping, weak closure


def _internal_cycle(config) -> CyclicModelError:
    return CyclicModelError(
        f"internal cycle through configuration {config!r}; "
        "weak transitions need an acyclic internal graph")


class System:
    """Execution engine for one module over one qubit register.

    Owns the configuration store, kept per interned density matrix, so
    configurations from different systems never mix.  Each configuration
    carries the System's memo of its step result and of its internal moves
    (the step tuple itself when every move is internal).  There is one
    point distribution per configuration (`dirac`), and every move of
    weight exactly int 1 targets it.  Every other distribution the engines
    build is kept once per value (`combine`), with the facts derived from
    it, so equal combinations in any query are one object.  The
    extreme points of weak moves are memoized per (configuration, label);
    an internal cycle raises `CyclicModelError` from every weak-closure
    query.

    Configurations are interned per density matrix under the component of
    their term (`_key`), not under the term, and a configuration's term is
    built only when it is read.  A component is a leaf term or a
    composition key, whose parts are components at every depth, and it is
    stepped on one path: a leaf by its rule (`_step_term`), a key, with
    its restriction and relabelling, in one pass over its parts' entries
    (`_step_par`).  Every target is built once as a component, so stepping
    conses no composed term.  A part is stepped once per (component,
    state, restriction), and its entry is indexed for communication:
    configurations that share a component and a density matrix share its
    moves and input capabilities.  A restricted composition does not
    build the moves and input capabilities its restriction hides.  An
    input prefix is instantiated once per received value or qubit, and a
    constant once per argument values.  Configurations proved acyclic are
    remembered, so no search repeats that proof.  `work` counts the units
    the current query spent against `budget` (see `query`): one per
    combination of extreme weak moves built, and in the canonical walks of
    `qbisim.bisim` the support sizes of each pair of saturations visited.

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
        self.work = 0
        self._open_queries = 0
        self._n_configs = 0
        self._matrices = {}      # digest -> interned matrix
        self._configs = {}       # id of an interned matrix -> {component key: configuration}
        self._unfold_cache = {}
        # configuration index -> its point distribution; kept here, not on
        # the configuration, so that the two do not form a reference cycle
        self._points = {}
        self._dists = {}         # `_distribution` key -> the one distribution
        self._component_steps = {}
        self._inputs = {}
        self._extreme_sets = {}
        self._enabled_cache = {}
        self._acyclic = set()    # indexes of configurations proved acyclic
        self._state_facts = {}   # tol -> bisim._StateFacts
        self._searches = {}      # bisim._search_key -> relation-search outcome
        self._env_distances = {}  # pair of bisim._env_class -> environment distance

    # -- construction

    def config(self, term, state) -> Configuration:
        """Intern a root configuration; `state` is validated here, once per
        matrix object.

        `term` may be source text or a term object; `state` a QuantumState
        or a raw density matrix over the system register.  The term is put
        in canonical form, which stepping then keeps, and interned under
        its component (`_key`).
        """
        term = ca.parse_term(term) if isinstance(term, str) else ca.alpha_canonical(term)
        if isinstance(state, QuantumState):
            if self.register is None:
                self.register = state.register
            matrix = state.matrix
        else:
            matrix = state
        if self.register is None:
            raise ValueError("system has no register; pass a QuantumState first")
        if isinstance(state, QuantumState) and state.register != self.register:
            raise ValueError("configuration register differs from the system register")
        if id(matrix) not in self._configs:
            # an interned matrix was checked when it came in, or the engine made it
            check_density_matrix(matrix, self.tol)
        if matrix.shape != (self.register.dim, self.register.dim):
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
            got = table[key] = Configuration(key, self.register, matrix, self._n_configs)
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
        immutable, so the callers share it and what is kept on it."""
        acc = first = None
        for w, dist in parts:
            if not w:
                continue
            if acc is None:
                if first is None:
                    first = w, dist
                    continue
                fw, fdist = first
                acc = {c: p if fw == 1 else fw * p for c, p in fdist.probs.items()}
            for c, p in dist.probs.items():
                q = p if w == 1 else w * p
                prev = acc.get(c)
                acc[c] = q if prev is None else prev + q
        if acc is None:
            if first is None:
                return self._distribution({})
            w, dist = first
            if w == 1:
                return dist
            acc = {c: w * p for c, p in dist.probs.items()}
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
        """All strong transitions of a configuration (inputs made concrete)."""
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
            probs = {}
            for p, t, s in branches:
                c = intern(t, s)
                prev = probs.get(c)
                probs[c] = p if prev is None else prev + p
            out.append(Transition(label, self.dirac(c) if (
                len(branches) == 1 and p.__class__ is int and p == 1) else ConfigDistribution(probs)))
        result = tuple(out)
        config.moves = result
        taus = tuple(t for t in result if not t.label.visible)
        config.tau_moves = result if len(taus) == len(result) else taus
        return result

    def _step_term(self, term, mat, fuel: int):
        """Transitions and input capabilities of a component or a term.

        Returns (moves, caps): moves are (Label, branches) with branches a
        tuple of (prob, component, matrix); caps are pending input
        prefixes, whose `instantiate` gives a component.  This is the one
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
                return [(TAU, ((1, _key(term.cont), mat),))], []
            if isinstance(act, ca.COut):
                value = ca.eval_expr(act.expr)
                return [(Label(Label.OUT, act.chan, value),
                         ((1, _key(term.cont), mat),))], []
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
                         ((1, _key(term.cont), mat),))], []
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
                op = resolve_operation(act.op, self.registry)
                new_mat = self._share(op.apply(mat, self.register, act.qubits))
                return [(TAU, ((1, _key(term.cont), new_mat),))], []
            if isinstance(act, ca.Meas):
                op = resolve_operation(act.op, self.registry)
                branches = tuple(
                    (p, _key(ca.subst_values(term.cont, {act.var: v})), self._share(post))
                    for v, p, post in op.apply(mat, self.register, act.qubits))
                return [(TAU, branches)], []
            raise TypeError(f"unknown action {act!r}")

        if isinstance(term, ca.If):
            cond = ca.eval_expr(term.cond)
            if not isinstance(cond, bool):
                raise EvaluationError(
                    f"guard evaluated to {format_value(cond)}, expected a boolean")
            return self._step_term(term.body, mat, fuel) if cond else ([], [])

        if isinstance(term, ca.PChoice):
            return [(TAU, tuple((p, _key(t), mat) for p, t in term.branches))], []

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

    def _step_component(self, part, mat, fuel: int, hidden: frozenset,
                        table: dict) -> _Component:
        """`_step_term` of one part of a composition, indexed for a
        composition restricted to `hidden`, and kept in `table`, which holds
        the parts stepped at `mat` and `fuel` under that restriction.

        `mat` is always a configuration's matrix, interned in `_matrices`,
        so its identity stands for its value, and looking a part up in its
        table builds no key tuple.  The entry is built once: the moves and
        input capabilities the restriction keeps, and for communication
        every output, and every capability by channel.  Entries are shared
        by every composition holding the part, and cap closures capture
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
        got = table[part] = _Component(
            tuple(m for m in moves if m[0].chan not in hidden),  # tau has no channel
            tuple(cap for cap in caps if cap.chan not in hidden),
            tuple(outputs), inputs)
        return got

    def _step_par(self, key: tuple, mat, fuel: int):
        """Moves and capabilities of the composition key `key`: its parts
        in parallel under the restriction to `hidden` and then the
        relabelling `relabel`; interleaved part moves and capabilities,
        then communication.

        Each target is a component key, built once: `parts` with one or two
        parts replaced, with the same `hidden` and `relabel`, or for a key
        of one part, its target joined to the wrappers (`_wrap`); no term
        is built.  A part move visible on a hidden channel is dropped, as
        is a capability on one, since the restriction would discard them;
        the relabelling renames the channels of the rest.  Communication
        still pairs the parts' own outputs and capabilities, so hidden
        channels still synchronise, and the moves that remain keep their
        order.
        """
        parts, hidden, relabel = key
        # the table also holds `mat`, so its id is not reused while it lives
        slot = (id(mat), fuel, hidden)
        got = self._component_steps.get(slot)
        if got is None:
            got = self._component_steps[slot] = ({}, mat)
        table = got[0]
        entries = [table.get(p) or self._step_component(p, mat, fuel, hidden, table)
                   for p in parts]
        one = len(parts) == 1

        moves, caps = [], []
        for i, entry in enumerate(entries):
            if not (entry.moves or entry.caps):
                continue
            head, tail = parts[:i], parts[i + 1:]
            for label, branches in entry.moves:
                if relabel is not None:
                    label = relabel_label(label, relabel)
                if one:
                    moves.append((label, tuple(
                        (p, _wrap(t, hidden, relabel), s) for p, t, s in branches)))
                elif len(branches) == 1:
                    ((p, t, s),) = branches
                    moves.append((label, ((p, (head + (t,) + tail, hidden, relabel), s),)))
                else:
                    moves.append((label, tuple(
                        (p, (head + (t,) + tail, hidden, relabel), s) for p, t, s in branches)))
            others_qv = None  # qubits the siblings hold, for quantum inputs only
            for cap in entry.caps:
                if cap.chan.quantum:
                    if others_qv is None:
                        others_qv = frozenset().union(*map(_qv, head + tail))

                    def wrap(r, inst=cap.instantiate, head=head, tail=tail,
                             others=others_qv):
                        if r in others:
                            return None
                        t = inst(r)
                        return None if t is None else _wrap(t, hidden, relabel) if one else (
                            head + (t,) + tail, hidden, relabel)

                else:

                    def wrap(v, inst=cap.instantiate, head=head, tail=tail):
                        t = inst(v)
                        return None if t is None else _wrap(t, hidden, relabel) if one else (
                            head + (t,) + tail, hidden, relabel)

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
                        pieces = list(parts)
                        pieces[i] = sender
                        pieces[j] = received
                        moves.append((TAU, ((1, (tuple(pieces), hidden, relabel), sender_mat),)))
        return moves, caps

    # -- weak transitions as extreme points

    def tau_transitions(self, config):
        got = config.tau_moves
        if got is None:
            self.step(config)
            got = config.tau_moves
        return got

    def weak_extremes(self, config: Configuration, label: Label) -> tuple:
        """Extreme distributions reachable by a weak `label` move: internal
        moves, then `label`, then internal moves; for `TAU`, only internal
        moves, halting included."""
        return self._extremes(config, label, frozenset())

    def _extremes(self, config, label, stack):
        key = (config, label)
        cached = self._extreme_sets.get(key)
        if cached is not None:
            return cached
        if key in stack:
            raise _internal_cycle(config)
        stack = stack | {key}
        found = {}
        if not label.visible:
            halt = self.dirac(config)
            found[halt.digest] = halt
        for trans in self.step(config):
            support = trans.dist.support
            if trans.label == label:
                then = TAU
            elif trans.label.visible or not all(
                    label in self.weak_enabled(s) for s in support):
                continue
            else:
                then = label
            choice_sets = [self._extremes(s, then, stack) for s in support]
            for combo in itertools.product(*choice_sets):
                self._spend()
                mixed = self.combine(
                    (trans.dist.probability(s), e) for s, e in zip(support, combo))
                found.setdefault(mixed.digest, mixed)
        result = tuple(found.values())
        self._extreme_sets[key] = result
        return result

    def weak_enabled(self, config: Configuration) -> frozenset:
        """Visible labels reachable as a full weak transition from here."""
        return self._enabled(config, frozenset())

    def _enabled(self, config, stack):
        cached = self._enabled_cache.get(config)
        if cached is not None:
            return cached
        if config in stack:
            raise _internal_cycle(config)
        stack = stack | {config}
        labels = set()
        for trans in self.step(config):
            if trans.label.visible:
                labels.add(trans.label)
            else:
                labels |= frozenset.intersection(
                    *[self._enabled(s, stack) for s in trans.dist.support])
        result = frozenset(labels)
        self._enabled_cache[config] = result
        return result

    # -- reachability

    def reachable(self, roots, max_configs=None):
        """All configurations reachable from the given ones, breadth first."""
        seen = []
        seen_set = set()  # indexes, which hash without a Python call
        frontier = list(roots)
        while frontier:
            nxt = []
            for c in frontier:
                if c.index in seen_set:
                    continue
                seen_set.add(c.index)
                seen.append(c)
                if max_configs is not None and len(seen) > max_configs:
                    raise BudgetExceededError(
                        "state space exceeded the configuration budget",
                        budget=max_configs)
                for trans in self.step(c):
                    for s in trans.dist.probs:
                        if s.index not in seen_set:
                            nxt.append(s)
            frontier = nxt
        return seen

    def is_acyclic(self, roots) -> bool:
        """True when no configuration reachable from `roots` can reach
        itself again.

        Every configuration a search that returns True visits reaches no
        cycle, so its index is kept in `_acyclic` and later searches skip
        it as a root and as a successor; a search that finds a cycle keeps
        nothing.  Spends no work units.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        proved = self._acyclic
        color = {}  # by index, which hashes without a Python call
        for root in roots:
            if root.index in proved:
                continue
            stack = [(root, None)]
            while stack:
                node, it = stack.pop()
                if it is None:
                    c = color.get(node.index, WHITE)
                    if c == GREY:
                        return False
                    if c == BLACK:
                        continue
                    color[node.index] = GREY
                    succs = [s for t in self.step(node) for s in t.dist.probs
                             if s.index not in proved]
                    stack.append((node, iter(succs)))
                    continue
                advanced = False
                for s in it:
                    c = color.get(s.index, WHITE)
                    if c == GREY:
                        return False
                    if c == WHITE:
                        stack.append((node, it))
                        stack.append((s, None))
                        advanced = True
                        break
                if not advanced:
                    color[node.index] = BLACK
        proved.update(color)
        return True


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
            for label, dist in system.step(c):
                self.edges.append((self.index[c], label, tuple(
                    (p, self.index[d]) for d, p in sorted(
                        dist, key=lambda kv: kv[0].index))))
        self.acyclic = system.is_acyclic(root.support)

    def _env_digest(self, config) -> str:
        keep = [q for q in self.system.register.names if q not in config.qv]
        reduced = partial_trace(config.matrix, self.system.register, keep)
        return hashlib.sha1(_matrix_digest(reduced)).hexdigest()[:16]

    def to_json(self, with_states: bool = False) -> dict:
        states = []
        for i, c in enumerate(self.configs):
            node = {"id": i, "term": ca.pretty(c.term), "qv": sorted(c.qv),
                    "env_digest": self._env_digest(c)}
            if with_states:
                node["state"] = [[[z.real, z.imag] for z in row]
                                 for row in c.matrix.tolist()]
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
