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
from .calculus import Channel, Process, format_value
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
    DEFAULT_TOL,
    QuantumState,
    _matrix_digest,
    check_density_matrix,
    partial_trace,
    resolve_operation,
)

_PROB_DECIMALS = 10
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
            vkey = ("f", round(value, _PROB_DECIMALS) + 0.0)
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


def relabel_label(label: Label, rel: ca.Relabel) -> Label:
    if label.kind == Label.TAU:
        return label
    return Label(label.kind, rel.rename(label.chan), label.value)


# ---------------------------------------------------------------------------
# configurations and distributions


class Configuration:
    """Interned (term, density matrix) pair; identity is managed by the System.

    The matrix is stored raw: states reached by stepping a valid initial
    state through trace-preserving operations stay valid, so only the entry
    point revalidates.
    """

    __slots__ = ("term", "register", "matrix", "index")

    def __init__(self, term: Process, register, matrix, index: int):
        self.term = term
        self.register = register
        self.matrix = matrix
        self.index = index

    @property
    def qv(self) -> frozenset:
        return ca.qv(self.term)

    @property
    def state(self) -> QuantumState:
        return QuantumState(self.register, self.matrix)

    def __hash__(self):
        return self.index

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        return f"<cfg {self.index}: {ca.pretty(self.term)}>"


class ConfigDistribution:
    """Finite-support distribution over configurations of one system.

    Probabilities are exact (int or Fraction) until a measurement outcome
    makes them floats; digests, environments and outputs read floats."""

    __slots__ = ("probs", "_digest", "_env")

    def __init__(self, probs):
        self.probs = probs
        self._digest = None
        self._env = None

    @property
    def digest(self):
        if self._digest is None:
            self._digest = tuple(sorted(
                (c.index, round(float(p), _PROB_DECIMALS)) for c, p in self.probs.items()))
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

    def scaled(self, factor: float) -> "ConfigDistribution":
        return ConfigDistribution({c: p * factor for c, p in self.probs.items()})

    def held_qubits(self) -> frozenset:
        out = frozenset()
        for c in self.probs:
            out |= c.qv
        return out

    def environment(self, trace_out=None):
        """Average state of the qubits the processes do not hold.

        `trace_out` names the qubits to discard; it defaults to every qubit
        held somewhere in the support, and must cover them all.
        """
        held = self.held_qubits()
        if trace_out is None:
            trace_out = held
        else:
            trace_out = frozenset(trace_out)
            if not held <= trace_out:
                raise ValueError(f"cannot keep held qubits {sorted(held - trace_out)}")
        acc = None
        register = None
        for c, p in self.probs.items():
            register = c.register
            keep = [q for q in register.names if q not in trace_out]
            reduced = partial_trace(c.matrix, register, keep)
            p = float(p)
            acc = p * reduced if acc is None else acc + p * reduced
        keep = tuple(q for q in register.names if q not in trace_out)
        return keep, acc

    def __repr__(self):
        inner = ", ".join(f"{float(p):.4g}:{c.index}" for c, p in sorted(
            self.probs.items(), key=lambda kv: kv[0].index))
        return f"{{{inner}}}"


def combine(parts) -> ConfigDistribution:
    """Convex combination of (weight, distribution) pairs."""
    acc = {}
    for w, dist in parts:
        if not w:
            continue
        for c, p in dist.probs.items():
            q = p if w == 1 else w * p
            prev = acc.get(c)
            acc[c] = q if prev is None else prev + q
    return ConfigDistribution(acc)


class Transition(NamedTuple):
    label: Label
    dist: ConfigDistribution


# ---------------------------------------------------------------------------
# input capabilities (lazy classical / quantum input)


class _Cap(NamedTuple):
    chan: Channel
    instantiate: Callable  # value or qubit name -> term, or None when blocked


# ---------------------------------------------------------------------------
# the system: interning, stepping, weak closure


class System:
    """Execution engine for one module over one qubit register.

    Owns the configuration store, so configurations from different systems
    never mix.  All step results and weak-transition extreme sets are
    memoized per configuration.  The components of a parallel composition
    are stepped once per (component, state): configurations that share a
    component and a density matrix share its moves and input capabilities.
    An input prefix is instantiated once per received value or qubit.
    `work` counts the expansion done by the current query against `budget`
    (see `query`).
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
        self._configs = {}
        self._matrices = {}
        self._digests = {}
        self._unfold_cache = {}
        self._step_cache = {}
        self._component_steps = {}
        self._inputs = {}
        self._tau_extremes = {}
        self._visible_extremes = {}
        self._enabled_cache = {}
        self._op_cache = {}

    # -- construction

    def config(self, term, state, canonical=False) -> Configuration:
        """Intern a root configuration; `state` is validated here.

        `term` may be source text or a term object; `state` a QuantumState
        or a raw density matrix over the system register.
        """
        if isinstance(term, str):
            term = ca.parse_term(term)
            canonical = True
        if not canonical:
            term = ca.alpha_canonical(term)
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
        check_density_matrix(matrix, self.tol)
        if matrix.shape != (self.register.dim, self.register.dim):
            raise ValueError("state dimension does not match the register")
        missing = ca.qv(term) - set(self.register.names)
        if missing:
            raise WellFormednessError(
                f"term holds qubits outside the register: {sorted(missing)}")
        ca.check_well_formed(term)
        for name, cn, qn in ca._call_sites(term):
            defn = self.module.definitions.get(name)
            if defn is None:
                raise WellFormednessError(f"call to undefined process {name}")
            if (cn, qn) != (len(defn.cparams), len(defn.qparams)):
                raise WellFormednessError(f"arity mismatch in call to {name}")
        return self._intern(term, matrix)

    def _share(self, matrix):
        """The interned matrix equal to `matrix`, and its digest.

        An interned matrix is kept alive by `_matrices`, so its id names it
        and its digest is computed once; only new arrays are hashed.
        """
        digest = self._digests.get(id(matrix))
        if digest is None:
            digest = _matrix_digest(matrix)
            matrix = self._matrices.setdefault(digest, matrix)
            self._digests[id(matrix)] = digest
        return matrix, digest

    def _intern(self, term: Process, matrix) -> Configuration:
        matrix, digest = self._share(matrix)
        key = (term, digest)
        got = self._configs.get(key)
        if got is None:
            got = Configuration(term, self.register, matrix, len(self._configs))
            self._configs[key] = got
        return got

    def dirac(self, config: Configuration) -> ConfigDistribution:
        return ConfigDistribution({config: 1})

    def distribution(self, items) -> ConfigDistribution:
        acc = {}
        for p, c in items:
            prev = acc.get(c)
            acc[c] = p if prev is None else prev + p
        return ConfigDistribution(acc)

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
                "weak-transition expansion exceeded the work budget", budget=self.budget)

    # -- operation resolution

    def _operation(self, name):
        op = self._op_cache.get(name)
        if op is None:
            op = resolve_operation(name, self.registry)
            self._op_cache[name] = op
        return op

    # -- constant unfolding

    def _unfold(self, call: ca.Call) -> Process:
        defn = self.module.definitions.get(call.name)
        if defn is None:
            raise WellFormednessError(f"call to undefined process {call.name}")
        if len(call.cargs) != len(defn.cparams) or len(call.qargs) != len(defn.qparams):
            raise WellFormednessError(f"arity mismatch in call to {call.name}")
        values = tuple(ca.eval_expr(e) for e in call.cargs)
        key = (call.name, values, call.qargs)
        got = self._unfold_cache.get(key)
        if got is None:
            body = ca.subst_values(defn.body, dict(zip(defn.cparams, values)))
            got = ca.subst_qubits(body, dict(zip(defn.qparams, call.qargs)))
            self._unfold_cache[key] = got
        return got

    # -- one strong step

    def step(self, config: Configuration) -> tuple:
        """All strong transitions of a configuration (inputs made concrete)."""
        cached = self._step_cache.get(config)
        if cached is not None:
            return cached
        moves, caps = self._step_term(config.term, config.matrix, _UNFOLD_LIMIT)
        out = []
        for label, branches in moves:
            out.append(Transition(label, self.distribution(
                (p, self._intern(t, s)) for p, t, s in branches)))
        for cap in caps:
            if cap.chan.quantum:
                for name in self.register.names:
                    if name in config.qv:
                        continue
                    term = cap.instantiate(name)
                    if term is None:
                        continue
                    out.append(Transition(
                        Label(Label.QIN, cap.chan, name),
                        self.dirac(self._intern(term, config.matrix))))
            else:
                domain = self.module.channel_domains.get(cap.chan.name)
                if domain is None:
                    detail = ("declared real" if cap.chan.name in self.module.channel_domains
                              else "not declared")
                    raise ChannelDomainError(
                        f"visible input on channel {cap.chan} needs a finite domain "
                        f"({detail}); restrict the channel or declare one")
                for v in domain:
                    term = cap.instantiate(v)
                    out.append(Transition(
                        Label(Label.IN, cap.chan, v),
                        self.dirac(self._intern(term, config.matrix))))
        result = tuple(out)
        self._step_cache[config] = result
        return result

    def _step_term(self, term: Process, mat, fuel: int):
        """Transitions and input capabilities of a raw term.

        Returns (moves, caps): moves are (Label, branches) with branches a
        tuple of (prob, term, matrix); caps are pending input prefixes.
        """
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
                return [(TAU, ((1, term.cont, mat),))], []
            if isinstance(act, ca.COut):
                value = ca.eval_expr(act.expr)
                return [(Label(Label.OUT, act.chan, value),
                         ((1, term.cont, mat),))], []
            if isinstance(act, ca.CIn):
                cont, var = term.cont, act.var

                def receive(v, cont=cont, var=var, memo=self._inputs):
                    # Lit(v) keeps True apart from 1.0 and -0.0 from 0.0
                    key = (cont, var, ca.Lit(v))
                    got = memo.get(key)
                    if got is None:
                        got = memo[key] = ca.subst_values(cont, {var: v})
                    return got

                return [], [_Cap(act.chan, receive)]
            if isinstance(act, ca.QOut):
                return [(Label(Label.QOUT, act.chan, act.qvar),
                         ((1, term.cont, mat),))], []
            if isinstance(act, ca.QIn):
                cont, qvar = term.cont, act.qvar

                def receive(r, cont=cont, qvar=qvar, memo=self._inputs):
                    if r != qvar and r in ca.qv(cont):
                        return None  # the continuation already holds r
                    key = (cont, qvar, r)
                    got = memo.get(key)
                    if got is None:
                        got = memo[key] = ca.subst_qubits(cont, {qvar: r})
                    return got

                return [], [_Cap(act.chan, receive)]
            if isinstance(act, ca.Apply):
                op = self._operation(act.op)
                new_mat, _ = self._share(op.apply(mat, self.register, act.qubits))
                return [(TAU, ((1, term.cont, new_mat),))], []
            if isinstance(act, ca.Meas):
                op = self._operation(act.op)
                branches = tuple(
                    (p, ca.subst_values(term.cont, {act.var: v}), self._share(post)[0])
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
            return [(TAU, tuple((p, t, mat) for p, t in term.branches))], []

        if isinstance(term, ca.Sum):
            moves, caps = [], []
            for part in term.parts:
                m, cp = self._step_term(part, mat, fuel)
                moves.extend(m)
                caps.extend(cp)
            return moves, caps

        if isinstance(term, ca.Par):
            return self._step_par(term, mat, fuel)

        if isinstance(term, ca.Restrict):
            moves, caps = self._step_term(term.body, mat, fuel)
            chans = term.channels
            out_moves = []
            for label, branches in moves:
                if label.visible and label.chan in chans:
                    continue
                out_moves.append((label, tuple(
                    (p, ca.Restrict(t, chans), s) for p, t, s in branches)))
            out_caps = []
            for cap in caps:
                if cap.chan in chans:
                    continue

                def wrap(v, inst=cap.instantiate, chans=chans):
                    t = inst(v)
                    return None if t is None else ca.Restrict(t, chans)

                out_caps.append(_Cap(cap.chan, wrap))
            return out_moves, out_caps

        if isinstance(term, ca.Relabel):
            moves, caps = self._step_term(term.body, mat, fuel)
            out_moves = [
                (relabel_label(label, term),
                 tuple((p, ca.Relabel(t, term.mapping), s) for p, t, s in branches))
                for label, branches in moves
            ]
            out_caps = []
            for cap in caps:

                def wrap(v, inst=cap.instantiate, mapping=term.mapping):
                    t = inst(v)
                    return None if t is None else ca.Relabel(t, mapping)

                out_caps.append(_Cap(term.rename(cap.chan), wrap))
            return out_moves, out_caps

        raise TypeError(f"cannot step {term!r}")

    def _step_component(self, part: Process, mat, fuel: int):
        """`_step_term` of one parallel component, memoized per system.

        `mat` is always a configuration's matrix, interned in `_matrices`,
        so its identity stands for its value; the entry also holds `mat`,
        so that id is not reused while the entry lives.  Results are tuples
        shared by every composition holding the component, and cap
        closures capture terms and the input memo only.
        """
        key = (part, id(mat), fuel)
        got = self._component_steps.get(key)
        if got is None:
            moves, caps = self._step_term(part, mat, fuel)
            got = self._component_steps[key] = (tuple(moves), tuple(caps), mat)
        return got[0], got[1]

    def _step_par(self, term: ca.Par, mat, fuel: int):
        parts = term.parts
        stepped = [self._step_component(p, mat, fuel) for p in parts]

        def plug(i, replacement):
            return ca.Par(parts[:i] + (replacement,) + parts[i + 1:])

        moves, caps = [], []
        for i, (part_moves, part_caps) in enumerate(stepped):
            for label, branches in part_moves:
                moves.append((label, tuple(
                    (p, plug(i, t), s) for p, t, s in branches)))
            others_qv = None  # qubits the siblings hold, for quantum inputs only
            for cap in part_caps:
                if cap.chan.quantum:
                    if others_qv is None:
                        others_qv = frozenset().union(
                            *(ca.qv(p) for j, p in enumerate(parts) if j != i))

                    def wrap(r, inst=cap.instantiate, i=i, others=others_qv):
                        if r in others:
                            return None
                        t = inst(r)
                        return None if t is None else plug(i, t)

                    caps.append(_Cap(cap.chan, wrap))
                else:

                    def wrap(v, inst=cap.instantiate, i=i):
                        t = inst(v)
                        return None if t is None else plug(i, t)

                    caps.append(_Cap(cap.chan, wrap))

        # communication between distinct components
        for i, (out_moves, _) in enumerate(stepped):
            for label, branches in out_moves:
                if label.kind not in (Label.OUT, Label.QOUT):
                    continue
                if len(branches) != 1 or branches[0][0] != 1:
                    raise AssertionError("output transitions must be Dirac")
                _, sender_term, sender_mat = branches[0]
                for j, (_, in_caps) in enumerate(stepped):
                    if i == j:
                        continue
                    for cap in in_caps:
                        if cap.chan != label.chan or cap.chan.quantum != (
                                label.kind == Label.QOUT):
                            continue
                        received = cap.instantiate(label.value)
                        if received is None:
                            continue
                        pieces = list(parts)
                        pieces[i] = sender_term
                        pieces[j] = received
                        moves.append((TAU, ((1, ca.Par(tuple(pieces)), sender_mat),)))
        return moves, caps

    # -- weak transitions as extreme points

    def tau_transitions(self, config):
        return tuple(t for t in self.step(config) if not t.label.visible)

    def visible_transitions(self, config):
        return tuple(t for t in self.step(config) if t.label.visible)

    def weak_tau_extremes(self, config: Configuration) -> tuple:
        """Extreme points of every distribution reachable by internal moves."""
        return self._tau_ext(config, frozenset())

    def _tau_ext(self, config, stack):
        cached = self._tau_extremes.get(config)
        if cached is not None:
            return cached
        if config in stack:
            raise CyclicModelError(
                f"internal cycle through configuration {config!r}; "
                "weak transitions need an acyclic internal graph")
        stack = stack | {config}
        found = {self.dirac(config).digest: self.dirac(config)}
        for trans in self.tau_transitions(config):
            support = trans.dist.support
            choice_sets = [self._tau_ext(s, stack) for s in support]
            for combo in itertools.product(*choice_sets):
                self._spend()
                mixed = combine(
                    (trans.dist.probability(s), e) for s, e in zip(support, combo))
                found.setdefault(mixed.digest, mixed)

        result = tuple(found.values())
        self._tau_extremes[config] = result
        return result

    def weak_visible_extremes(self, config: Configuration, label: Label) -> tuple:
        """Extreme distributions reachable by `label` flanked by internal moves."""
        return self._vis_ext(config, label, frozenset())

    def _vis_ext(self, config, label, stack):
        key = (config, label)
        cached = self._visible_extremes.get(key)
        if cached is not None:
            return cached
        if config in stack:
            raise CyclicModelError(
                f"internal cycle through configuration {config!r}; "
                "weak transitions need an acyclic internal graph")
        stack = stack | {config}
        found = {}
        for trans in self.step(config):
            if trans.label == label:
                support = trans.dist.support
                choice_sets = [self._tau_ext(s, frozenset()) for s in support]
                for combo in itertools.product(*choice_sets):
                    self._spend()
                    mixed = combine(
                        (trans.dist.probability(s), e) for s, e in zip(support, combo))
                    found.setdefault(mixed.digest, mixed)
            elif not trans.label.visible:
                support = trans.dist.support
                if not all(label in self.weak_enabled(s) for s in support):
                    continue
                choice_sets = [self._vis_ext(s, label, stack) for s in support]
                for combo in itertools.product(*choice_sets):
                    self._spend()
                    mixed = combine(
                        (trans.dist.probability(s), e) for s, e in zip(support, combo))
                    found.setdefault(mixed.digest, mixed)
        result = tuple(found.values())
        self._visible_extremes[key] = result
        return result

    def weak_enabled(self, config: Configuration) -> frozenset:
        """Visible labels reachable as a full weak transition from here."""
        cached = self._enabled_cache.get(config)
        if cached is not None:
            return cached
        return self._enabled(config, frozenset())

    def _enabled(self, config, stack):
        cached = self._enabled_cache.get(config)
        if cached is not None:
            return cached
        if config in stack:
            return frozenset()
        stack = stack | {config}
        labels = set()
        for trans in self.step(config):
            if trans.label.visible:
                labels.add(trans.label)
            else:
                shared = None
                for s in trans.dist.support:
                    got = self._enabled(s, stack)
                    shared = got if shared is None else shared & got
                    if not shared:
                        break
                if shared:
                    labels |= shared
        result = frozenset(labels)
        self._enabled_cache[config] = result
        return result

    # -- reachability

    def reachable(self, roots, max_configs=None):
        """All configurations reachable from the given ones, breadth first."""
        seen = []
        seen_set = set()
        frontier = list(roots)
        while frontier:
            nxt = []
            for c in frontier:
                if c in seen_set:
                    continue
                seen_set.add(c)
                seen.append(c)
                if max_configs is not None and len(seen) > max_configs:
                    raise BudgetExceededError(
                        "state space exceeded the configuration budget",
                        budget=max_configs)
                for trans in self.step(c):
                    nxt.extend(s for s in trans.dist.support if s not in seen_set)
            frontier = nxt
        return seen

    def is_acyclic(self, roots) -> bool:
        """True when no configuration can reach itself again."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {}
        for root in roots:
            stack = [(root, None)]
            while stack:
                node, it = stack.pop()
                if it is None:
                    if color.get(node, WHITE) == GREY:
                        return False
                    if color.get(node, WHITE) == BLACK:
                        continue
                    color[node] = GREY
                    succs = [s for t in self.step(node) for s in t.dist.support]
                    stack.append((node, iter(succs)))
                    continue
                advanced = False
                for s in it:
                    c = color.get(s, WHITE)
                    if c == GREY:
                        return False
                    if c == WHITE:
                        stack.append((node, it))
                        stack.append((s, None))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
        return True


# ---------------------------------------------------------------------------
# whole-graph construction and export


def weak_transition(system: System, mu: ConfigDistribution, label: Label) -> tuple:
    """Extreme points reachable from `mu` by a weak `label` transition.

    Empty when some support configuration cannot perform the action at all;
    the lifted step needs every support element to move.
    """
    if not label.visible:
        raise ValueError("use System.weak_tau_extremes for internal moves")
    support = mu.support
    choice_sets = []
    for c in support:
        ext = system.weak_visible_extremes(c, label)
        if not ext:
            return ()
        choice_sets.append(ext)
    found = {}
    for combo in itertools.product(*choice_sets):
        system._spend()
        mixed = combine((mu.probability(c), e) for c, e in zip(support, combo))
        found.setdefault(mixed.digest, mixed)
    return tuple(found.values())


class PLTS:
    """Explicit probabilistic transition graph reachable from a root."""

    def __init__(self, system: System, root, max_configs=200_000):
        self.system = system
        if isinstance(root, Configuration):
            root = ConfigDistribution({root: 1})
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
