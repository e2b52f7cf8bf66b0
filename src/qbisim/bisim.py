"""Bisimulation checking over configuration distributions.

Everything here answers one of three questions about a pair of distributions
living in a single System: are they ground bisimilar (state-based or
distribution-based), are they lambda-bisimilar for a given lambda, and what
verified lambda makes them lambda-bisimilar (an upper bound on the
bisimulation distance, never the infimum).

One greatest-fixpoint refinement decides both ground questions when the
canonical collapse below does not apply.  It runs over a finite family of
distributions; state-based bisimulation is the special case whose family
holds only point distributions, so a state-based decision is relation
search over the point distributions of the reachable configurations.

Two checking engines coexist.  The exhaustive engine enumerates extreme
strong moves and matches them against the convex closure of the candidate
relation by exact rational feasibility; it is the literal reading of the
definitions and is used for small systems.  The saturated engine runs
only on certified systems (acyclic, free of visible quantum input, every
visibly-enabled configuration internally inert, and confluent as proved
by the local-diamond criterion of `confluence_check`); there, every
internal interleaving of a distribution shares one canonical saturation,
so matching collapses to comparing saturated transition-consistent
classes.  That collapse is what keeps protocol-sized witnesses small
enough to re-verify.  A canonical witness is therefore a bisimulation up
to canonical saturation: it relates saturations and classes, so the
exhaustive engine can reject it when the two sides pass through different
intermediate configurations (a silent step one side takes and the other
lacks).

Soundness of relation verdicts rests on three facts about the convex
closure: lifted transitions are linear and left-decomposable, the canonical
tc-decomposition of a convex mixture groups by the same signatures as its
components, and identity pairs satisfy every clause.  A verified finite
family therefore certifies its whole convex closure (implicit identity
pairs included), which is the relation the reports describe.  Identity
pairs are implicit generators of that closure and never candidates: the
refinement neither checks them nor gives them a column or a place in a
witness, since the column of (mu, mu) is a nonnegative sum of identity
carriers (`_ground_fixpoint`).

The definitions also ask that related pairs stay related under every
super-operator E on the qubits the processes do not hold.  No engine tests
this clause; it is proved for the fragment every engine accepts, where no
configuration has a visible quantum input (`_refuse_quantum_input`):
  - a qubit a configuration does not hold stays unheld in all it reaches,
    since a visible quantum input is the only rule that brings one in;
  - every rule reads or changes only held qubits, so E commutes with every
    step: E(c) makes the moves of c, with the same labels and
    probabilities, to E of its targets;
  - environments map through E, and trace distance contracts under E;
  - so if R is a lambda-bisimulation, so is {(E mu, E nu)}, and R with
    all its images is one that is closed under super-operators.
The relation checkers need this only of the supports of their pairs: the
matched moves of a passing relation reach its own pairs (up to convex
combination) and identity pairs, which every channel keeps related.  With
a visible quantum input the clause can fail (announcing the measured value
of a received qubit matches announcing 0 only while the free qubit is |0>).

Each System keeps what the refinement proved on it.  Per tolerance, it
keeps the candidate point pairs some state-based fixpoint kept, the
fixpoints each configuration was a member of, and a log with the evidence
for each deletion.  A later state-based fixpoint starts from those
verdicts, and walks and refines only the pairs no fixpoint had both
members of.  It also keeps each relation-search outcome of
`decide_bisim`, keyed by the exact probabilities of the pair and the
tolerance.  `distance_upper_bound` on a system it cannot certify reads
that outcome rather than search again.  The verdicts are exact, not
heuristic: on a reach-closed set of configurations, the greatest fixpoint
over any larger reach-closed set restricts to the fixpoint over the set
alone.  Every fixpoint, of either engine, also reads and adds to the
environment distance kept for each pair of environment classes (held
qubits and exact environment bytes, all that clause (i) reads), so each
System computes it once.  Looking any of these up spends no work units.
`decide_bisim` never reads the verdicts.

Distributions are one object per value on a System (`System.combine`):
the saturations, derivatives, weak extremes, strong attacks and
transition-consistent classes that the engines build with the same
configurations, order and exact probabilities are one object, shared by
every query.  What is derived from one object alone is kept on it, by
identity, never by digest: a configuration's first-choice saturation,
and a distribution's digest, held qubits, environment, classes
(`tc_decompose`), saturation, derivatives and behaviour form.  So a
replay reads derived facts that are functions of exact values: step
results, weak extremes, transition-consistent classes, saturations,
derivatives and forms, and, when it re-decides a pair by relation search,
the kept environment distances (which it also adds to).  These are values,
never verdicts: a replay never reads a state-based fact or a
relation-search outcome.  Building or reading a kept value spends no work
units.  The canonical walk (`_walk`), which serves both `decide_bisim`
and `distance_upper_bound`, is not kept: it charges the support sizes of
every pair of saturations it visits, so a repeated query spends exactly
what the first one did.

Refutations replay through `replay_refutation`.  The refinement engines
follow the certifying-algorithm pattern (McConnell, Mehlhorn, Näher and
Schweitzer, "Certifying algorithms", Computer Science Review 2011): a
state-based or relation-search refutation carries a `Certificate`, the
deletions it rests on, in order.  Each names a pair, the obligation it
failed, and for each failed match either an integer Farkas vector showing
the match's LP infeasible or the fact that the defender has no weak move
with the label.  The checker re-reads the entries against the moves of
the System with exact integer dot products.  It solves no LP and runs no
fixpoint, so a replay does not repeat the decision.  A certificate is
exact relative to the float probabilities the engine used, so it cannot
see a defect in those probabilities, such as a measured 1/3 p + 2/3 p that
differs from p in floats.  Canonical, exhaustive and saturated refutations
carry no certificate: at lambda 0 they are re-decided by relation search,
and above it by a lambda-relation check.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from math import inf, lcm
from typing import NamedTuple, Optional

from .errors import (
    BudgetExceededError,
    CyclicModelError,
    QuantumInputFragmentError,
)
from .lp import combination_weights
from .quantum import _matrix_digest, trace_distance
from .semantics import (
    TAU,
    ConfigDistribution,
    Configuration,
    Label,
    PLTS,
    System,
)

_ATTACK_CAP = 4096      # extreme strong moves enumerated per distribution
_SUBSET_CAP = 4096      # matched-class subsets tried per lambda decomposition
_FAMILY_CAP = 512       # distributions kept by relation-search mode
_REPLAY_CAP = 5000      # reachable configurations a replay re-decides


# ---------------------------------------------------------------------------
# coercions and small helpers


def _system_of(context) -> System:
    if isinstance(context, System):
        return context
    if isinstance(context, PLTS):
        return context.system
    raise TypeError(f"expected a System or PLTS, got {type(context).__name__}")


def _query(fn):
    """Run the public engine call `fn` as one query of the system in its
    `context` argument, so the work budget counts per query (`System.query`)."""
    position = fn.__code__.co_varnames.index("context")

    @functools.wraps(fn)
    def run(*args, **kwargs):
        context = args[position] if position < len(args) else kwargs.get("context")
        with _system_of(context).query():
            return fn(*args, **kwargs)

    return run


def _as_dist(system: System, x) -> ConfigDistribution:
    if isinstance(x, Configuration):
        return system.dirac(x)
    if isinstance(x, ConfigDistribution):
        return x
    raise TypeError(f"expected a Configuration or ConfigDistribution, got {type(x).__name__}")


def _sig_key(sig) -> tuple:
    return tuple(sorted(str(label) for label in sig))


def _dist_json(dist: ConfigDistribution) -> list:
    return [[c.index, float(p)] for c, p in sorted(dist, key=lambda kv: kv[0].index)]


def _environment(dist: ConfigDistribution) -> tuple:
    """(kept qubits, environment matrix, its `_matrix_digest`), computed once
    per distribution and kept on it."""
    if dist._env is None:
        keep, matrix = dist.environment()
        dist._env = (keep, matrix, _matrix_digest(matrix))
    return dist._env


def _env_distance(a: ConfigDistribution, b: ConfigDistribution) -> float:
    """Trace distance between environments; the held qubits must agree.

    Arguments are ordered by matrix digest before subtracting so the float
    result is bit-identical under swapping, which the bound-symmetry
    contract relies on.
    """
    _, ma, da = _environment(a)
    _, mb, db = _environment(b)
    if da == db:
        return 0.0
    if db < da:
        ma, mb = mb, ma
    return trace_distance(ma, mb)


def _clause_i(x: ConfigDistribution, y: ConfigDistribution, bound: float,
              dist: Optional[float] = None) -> Optional[str]:
    """Why (x, y) breaks clause (i) with environments `bound` apart, or None.
    `dist` is `_env_distance(x, y)` when the caller knows it."""
    held_x, held_y = x.held_qubits(), y.held_qubits()
    if held_x != held_y:
        return f"quantum variables differ: {sorted(held_x)} vs {sorted(held_y)}"
    if dist is None:
        dist = _env_distance(x, y)
    if dist > bound:
        return f"environment trace distance {dist:.6g} exceeds {bound:.6g}"
    return None


def _env_class(dist: ConfigDistribution) -> tuple:
    """All that clause (i) reads of `dist`: its held qubits and the bytes of
    its environment matrix.  (Equal 10-decimal digests would not do: the
    trace distance reads the exact matrices.)"""
    return dist.held_qubits(), _environment(dist)[1].tobytes()


def _kept_clause_i(system: System, x: ConfigDistribution, y: ConfigDistribution,
                   bound: float, kx: tuple, ky: tuple) -> Optional[str]:
    """`_clause_i(x, y, bound)`, with the environment distance computed once
    per System for each pair of environment classes and kept on it; `kx`
    and `ky` are `_env_class` of x and y.  This is exact: the distance reads
    only the two environment matrices, and `_env_distance` is bit-identical
    under swapping.  Keeping it charges no work units.  A replay that
    re-decides by relation search reads it too: it is a function of exact
    values, not a verdict."""
    dist = None
    if kx[0] == ky[0]:
        key = frozenset((kx, ky))
        dist = system._env_distances.get(key)
        if dist is None:
            dist = system._env_distances[key] = _env_distance(x, y)
    return _clause_i(x, y, bound, dist)


# ---------------------------------------------------------------------------
# transition consistency


class TcClass(NamedTuple):
    weight: float
    dist: ConfigDistribution
    signature: frozenset


@dataclass(frozen=True)
class TcDecomposition:
    """Coarsest split of a distribution into transition-consistent parts."""

    source: ConfigDistribution
    classes: tuple

    def to_json(self) -> dict:
        return {
            "classes": [
                {"weight": float(cls.weight),
                 "signature": list(_sig_key(cls.signature)),
                 "dist": _dist_json(cls.dist)}
                for cls in self.classes
            ]
        }


def is_transition_consistent(mu, context) -> bool:
    """True when every support configuration enables the same weak visible set."""
    system = _system_of(context)
    mu = _as_dist(system, mu)
    signatures = {system.weak_enabled(c) for c in mu.support}
    return len(signatures) <= 1


def tc_decompose(mu, context) -> TcDecomposition:
    """Group the support by enabled-weak-visible signature.

    This is the canonical coarsest tc-decomposition: every other one refines
    it, so matching these classes suffices for matching grouped classes.
    A class is its probabilities divided by its weight.  When that changes
    no value (one class of mass exactly 1, not a float sum over exact
    probabilities), the class is `mu` itself; every other class is the
    System's one object for it (`System.combine`).  The classes are kept on
    `mu` (`_tc`), with `mu` as its own class kept as None, so that `mu`
    holds no reference to itself.
    """
    system = _system_of(context)
    mu = _as_dist(system, mu)
    kept = mu._tc
    if kept is None:
        groups = {}
        for c, p in mu:
            groups.setdefault(system.weak_enabled(c), {})[c] = p
        classes = []
        for sig in sorted(groups, key=_sig_key):
            probs = groups[sig]
            w = sum(probs.values())
            if len(groups) == 1 and w == 1 and (w.__class__ is not float or all(
                    p.__class__ is float for p in probs.values())):
                classes.append(TcClass(w, None, sig))
            else:
                classes.append(TcClass(w, system._distribution(
                    {c: p / w for c, p in probs.items()}), sig))
        kept = mu._tc = tuple(classes)
    if kept and kept[0].dist is None:
        ((w, _, sig),) = kept
        return TcDecomposition(mu, (TcClass(w, mu, sig),))
    return TcDecomposition(mu, kept)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RelationCandidate:
    """A finite family of distribution pairs; symmetric closure implied.

    The relation a candidate denotes is the convex closure of its pairs,
    their mirror images, and all identity pairs; the checkers verify the
    generators and the closure follows from linearity.
    """

    pairs: tuple

    @classmethod
    def coerce(cls, obj, system: System) -> "RelationCandidate":
        if isinstance(obj, RelationCandidate):
            return obj
        pairs = tuple((_as_dist(system, a), _as_dist(system, b)) for a, b in obj)
        return cls(pairs)

    def to_json(self) -> dict:
        return {"pairs": [[_dist_json(a), _dist_json(b)] for a, b in self.pairs]}


@dataclass
class CheckReport:
    """Outcome of a relation check or decision.

    On failure, `clause` names the violated condition (i: quantum variables
    or environment, ii: an unmatched move, iii: decomposition matching),
    `pair` the offending pair, `label`/`attack` the unmatched move, and
    `direction` which side attacked.  `mode` records the engine that
    produced the verdict; refutations replay via `replay_refutation`.
    A state-based or relation-search refutation carries its `certificate`
    (`Certificate`).  It is left out of `to_json`: it lists deletions the
    System may have made for earlier queries.
    """

    holds: bool
    mode: str
    detail: str = ""
    clause: Optional[str] = None
    pair: Optional[tuple] = None
    direction: Optional[str] = None
    label: Optional[Label] = None
    attack: Optional[ConfigDistribution] = None
    witness: Optional[RelationCandidate] = None
    lam: Optional[float] = None
    tol: Optional[float] = None
    certificate: Optional["Certificate"] = field(default=None, compare=False, repr=False)

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "detail": self.detail,
            "clause": self.clause,
            "pair": None if self.pair is None else
                [_dist_json(self.pair[0]), _dist_json(self.pair[1])],
            "direction": self.direction,
            "label": None if self.label is None else str(self.label),
            "attack": None if self.attack is None else _dist_json(self.attack),
            "witness": None if self.witness is None else self.witness.to_json(),
            "lambda": self.lam,
            "tolerance": self.tol,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


@dataclass
class DistanceBound:
    """A verified upper bound on the bisimulation distance.

    `value` is a lambda for which `witness` passes `check_lambda_relation`;
    the infimum itself is never claimed.  `annotations` carries, per witness
    node, the matched and dropped class signatures and the local
    contributions that produced the bound.
    """

    value: float
    witness: RelationCandidate
    mode: str
    detail: str = ""
    annotations: tuple = ()

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "lambda": self.value,
            "mode": self.mode,
            "detail": self.detail,
            "witness": self.witness.to_json(),
            "annotations": list(self.annotations),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


# ---------------------------------------------------------------------------
# canonical scheduler
#
# The scheduler resolves internal nondeterminism per configuration by firing
# its first move and saturates each support configuration independently; on
# confluent systems (`confluence_check`) every schedule agrees with this one.
# Saturations, derivatives and behaviour forms are functions of exact values,
# so each is computed once per System and kept on the object it is derived
# from, by identity; computing or reading one spends no work units.


_SATURATING = object()  # `Configuration.sat` while its saturation is open


def _config_sat(system: System, config: Configuration) -> ConfigDistribution:
    """The saturation of `config`: its point distribution when it has no
    internal move, else its first internal move's distribution with each
    support configuration saturated, kept on `config` (`sat`).  Along a
    point chain (an internal move to one configuration with weight 1) every
    link returns the object its end saturates to, without a combination."""
    got = config.sat
    if got is None:
        taus = system.tau_transitions(config)
        if not taus:
            return system.dirac(config)
        config.sat = _SATURATING
        try:
            probs = taus[0].dist.probs
            if len(probs) == 1 and 1 in probs.values():
                # a point chain shares the saturation its end has
                (d,) = probs
                got = _config_sat(system, d)
            else:
                got = system.combine((q, _config_sat(system, d)) for d, q in probs.items())
        finally:
            config.sat = got  # None again when the saturation raised
    elif got is _SATURATING:
        raise CyclicModelError(
            "internal cycle during canonical saturation; "
            "the canonical scheduler needs an acyclic internal graph")
    return got


def _saturate(system: System, dist: ConfigDistribution) -> ConfigDistribution:
    """The saturation of every support configuration of `dist`, combined;
    kept on `dist` (`_sat`, True when it is `dist` itself)."""
    got = dist._sat
    if got is None:
        got = system.combine((p, _config_sat(system, c)) for c, p in dist)
        dist._sat = True if got is dist else got
    return dist if got is True else got


def _derivative(system: System, dist: ConfigDistribution, label: Label) -> ConfigDistribution:
    """Fire the first `label` move of every support configuration, then
    saturate; kept on `dist` (`_der`) unless it is `dist` itself.

    Defined on saturated distributions whose support all enables the
    label; support configurations are internally inert there, so the
    weakly enabled label is a strong transition.
    """
    kept = dist._der
    if kept is None:
        kept = dist._der = {}
    got = kept.get(label)
    if got is None:
        parts = [(p, [t for t in system.step(c) if t.label == label][0].dist)
                 for c, p in dist]
        got = _saturate(system, system.combine(parts))
        if got is not dist:
            kept[label] = got
    return got


def _form(system: System, sat: ConfigDistribution) -> tuple:
    """The behaviour form of the saturated distribution `sat`: per
    transition-consistent class (`tc_decompose`), in signature order, the
    pair (class, its derivatives), the derivatives being (label,
    derivative) in label order.  The derivatives are kept on `sat`
    (`_form`); on the acyclic graphs of certified systems none is `sat`."""
    classes = tc_decompose(sat, system).classes
    kept = sat._form
    if kept is None:
        kept = sat._form = tuple(
            tuple((label, _derivative(system, cls.dist, label))
                  for label in sorted(cls.signature, key=str))
            for cls in classes)
    return tuple(zip(classes, kept))


# ---------------------------------------------------------------------------
# certification: the preconditions of the canonical collapse


def _refuse_quantum_input(system: System, configs) -> None:
    """Raise when a configuration in `configs` has a visible quantum input:
    the super-operator clause is proved only without one (module
    docstring).  An input synchronised away under restriction is internal."""
    for c in configs:
        for t in system.step(c):
            if t.label.kind == Label.QIN:
                raise QuantumInputFragmentError(
                    f"visible quantum input {t.label} at {c!r}; restrict the channel")


def _prepare(system: System, dists) -> list:
    """Reachable configurations; raises when a visible quantum input is
    reachable (`_refuse_quantum_input`) or when the graph has a cycle."""
    roots = [c for d in dists for c in d.support]
    configs = system.reachable(roots)
    _refuse_quantum_input(system, configs)
    if not system.is_acyclic(roots):
        raise CyclicModelError("the reachable transition graph has a cycle")
    return configs


def _confluent_at(system: System, config: Configuration) -> bool:
    """Do all moves of `config` with one label saturate to one distribution?

    For internal moves that distribution is `_config_sat(config)`, the
    saturation through the first one.  A configuration with at most one
    move per label passes without saturating anything.
    """
    by_label = {}
    for t in system.step(config):
        by_label.setdefault(t.label, []).append(t.dist)
    return all(len({_saturate(system, d).digest for d in dists}) == 1
               for dists in by_label.values() if len(dists) > 1)


def confluence_check(context, roots=None) -> bool:
    """Are the canonical answers independent of how choices are scheduled?

    Decided exactly by the local-diamond criterion over the reachable,
    acyclic graph: at every configuration, all internal moves saturate to
    the same distribution, and all moves with one visible label saturate
    to one distribution.  By induction on height these local conditions
    make every scheduler (first-choice, last-choice, randomised or
    history-dependent) yield the same behaviour forms.  At a configuration
    without internal moves every saturation is the point distribution.
    Otherwise a scheduler fires some internal move and then saturates each
    target under its own continuation; by induction each target saturates
    as under the first-choice scheduler, so the result is that move's
    saturation, which the first condition equates with the first-choice
    one (a randomised choice mixes equal distributions).  Derivatives fire
    a visible label at each support configuration and saturate, so by the
    second condition they too do not depend on the move chosen, and forms
    are built from saturations, class splits and derivatives alone.  This
    is the local-diamond form of confluence reduction (Timmer, Stoelinga
    and van de Pol, TACAS 2011); Newman's lemma is the general principle
    that a terminating, locally confluent system is confluent.
    """
    system = _system_of(context)
    if roots is None:
        if isinstance(context, PLTS):
            roots = [context.root]
        else:
            raise ValueError("pass a PLTS or explicit roots")
    configs = _prepare(system, [_as_dist(system, r) for r in roots])
    return all(_confluent_at(system, c) for c in configs)


def _certified(system: System, configs) -> tuple:
    """(ok, reason): is the canonical collapse justified here?

    Certified means tau-normal (no visibly-enabled configuration has
    internal moves) and confluent in the sense of `confluence_check`,
    decided over the reachable `configs`; only configurations with two
    moves under one label are saturated, and the saturations are kept.
    """
    branching = []
    for c in configs:
        moves = system.step(c)
        taus = system.tau_transitions(c)
        if taus:
            if len(taus) < len(moves):
                return False, "a visibly-enabled configuration has internal moves"
            if len(taus) > 1:
                branching.append(c)
        elif len({t.label for t in moves}) < len(moves):
            branching.append(c)
    if not branching:
        return True, "certified: scheduling is deterministic"
    if all(_confluent_at(system, c) for c in branching):
        return True, "certified: confluence proved by local diamonds"
    return False, "nondeterminism is not confluent"


# ---------------------------------------------------------------------------
# feasibility queries: convex-closure membership and weak-move matching


def _point_pair(a: ConfigDistribution, b: ConfigDistribution) -> Optional[tuple]:
    """(x, y) when (a, b) is (dirac x, dirac y), each of mass exactly 1, so
    that its column is the unit column of (x, y); else None."""
    if len(a.probs) == 1 == len(b.probs):
        ((x, p),) = a.probs.items()
        ((y, q),) = b.probs.items()
        if p == 1 == q:
            return x, y
    return None


class _Relation:
    """The oriented pairs whose closure a check matches against, all
    distinct, as `_oriented` and the distinct members of a fixpoint make
    them.

    `pairs[k]` is the pair at position k, or None once dropped (`drop`), so
    the positions that matches record (`used`) stay valid.  Two indexes are
    built on first use and kept up to date by `drop`: the positions of the
    pairs by the first configuration of their left support (`inside`), and
    the point pairs (`points`).
    """

    __slots__ = ("pairs", "_firsts", "_points")

    def __init__(self, pairs):
        self.pairs = list(pairs)
        self._firsts = None   # configuration -> {position: None}, ascending
        self._points = None   # x -> {y: position}

    def _index(self):
        self._firsts, self._points = {}, {}
        for k, pair in enumerate(self.pairs):
            if pair is None:
                continue
            first = next(iter(pair[0].probs))
            self._firsts.setdefault(first, {})[k] = None
            point = _point_pair(*pair)
            if point is not None:
                self._points.setdefault(point[0], {})[point[1]] = k

    def inside(self, configs) -> list:
        """The positions, ascending, of the pairs whose left support lies in
        `configs` (a set or dict of configurations)."""
        if self._firsts is None:
            self._index()
        found = [k for c in configs for k in self._firsts.get(c, ())
                 if all(x in configs for x in self.pairs[k][0].probs)]
        found.sort()
        return found

    def points(self) -> dict:
        """x -> {y: position} for the point pairs (dirac x, dirac y)."""
        if self._points is None:
            self._index()
        return self._points

    def drop(self, k: int):
        """Remove the pair at position `k`; no other position changes."""
        pair = self.pairs[k]
        self.pairs[k] = None
        if self._firsts is None:
            return
        del self._firsts[next(iter(pair[0].probs))][k]
        point = _point_pair(*pair)
        if point is not None:
            x, y = point
            del self._points[x][y]
            if not self._points[x]:
                del self._points[x]


def _closure_columns(rel: _Relation, left: ConfigDistribution, rows,
                     row=("L",)) -> tuple:
    """LP columns spanning the convex closure of `rel` plus identity pairs,
    restricted to the columns that can carry weight.

    A pair column puts its left side on the `row`-tagged rows and its right
    side on the ("R", index) rows; an identity carrier does both for one
    configuration of supp(left).  Only pairs whose left support lies in
    supp(left), and whose right support lies in `rows`, give a column, and
    only configurations in `rows` a carrier.  This is exact when the
    caller's LP has target 0 and only nonnegative entries on every right
    row outside `rows`, and nonnegative entries on every left row: a column
    with mass on such a row carries no weight in any solution.  Returns the
    columns and, for each, the position in `rel` it came from (None for a
    carrier), positions ascending.
    """
    columns = []
    origins = []
    for k in rel.inside(left.probs):
        mk, nk = rel.pairs[k]
        if any(d not in rows for d in nk.probs):
            continue
        col = {row + (c.index,): p for c, p in mk.probs.items()}
        col.update((("R", d.index), q) for d, q in nk.probs.items())
        columns.append(col)
        origins.append(k)
    for c in left.probs:
        if c in rows:
            columns.append({row + (c.index,): 1.0, ("R", c.index): 1.0})
            origins.append(None)
    return columns, origins


def _debited(per_config) -> set:
    """The configurations that some extreme weak move in `per_config`,
    pairs (defender configuration, its extreme moves), takes mass to: the
    right rows the defender's columns debit."""
    return {y for _, extremes in per_config for e in extremes for y in e.probs}


def _extreme_columns(per_config) -> list:
    """Defender columns: configuration d spends its ("D", d) mass on one of
    its extreme weak moves, which is debited from the right rows."""
    columns = []
    for d, extremes in per_config:
        for e in extremes:
            col = {("D", d.index): 1.0}
            col.update((("R", y.index), -q) for y, q in e)
            columns.append(col)
    return columns


def _feasible(columns, origins, target, used, farkas=None) -> bool:
    """Is `target` a nonnegative combination of `columns`?

    `origins` gives the position of the relation pair behind each of the
    leading columns, or None for an identity carrier.  When the combination
    exists and `used` is a set, the positions of the pairs whose columns
    carry positive weight in it are added to `used`.  When it does not and
    `farkas` is a list, the LP's `Farkas` proof is appended to it.
    """
    x = combination_weights(columns, target, farkas)
    if x is None:
        return False
    if used is not None:
        used.update(k for k, w in zip(origins, x) if w and k is not None)
    return True


def _member_lin(rel: _Relation, mu: ConfigDistribution, nu: ConfigDistribution) -> bool:
    """Is (mu, nu) a convex combination of `rel` plus identity pairs?"""
    target = {("L", c.index): p for c, p in mu}
    target.update((("R", d.index), q) for d, q in nu)
    columns, origins = _closure_columns(rel, mu, nu.probs)
    return _feasible(columns, origins, target, None)


def _coupling_answer(attack: ConfigDistribution, defender: ConfigDistribution,
                     per_config, rel: _Relation, used) -> bool:
    """Does a weak move of the defender answer `attack` by a one-to-one
    coupling along identity and related point pairs?

    True when the defender is one configuration with mass exactly 1 and
    one of its extreme weak moves e in `per_config` admits a bijection
    sigma from supp(attack) onto supp(e) with attack(x) == e(sigma(x)),
    where each sigma(x) is x itself or (dirac x, dirac sigma(x)) is a pair
    of the relation (`_Relation.points`).  The matching LP of
    `_match_weak` is then feasible: probabilities are ints, floats or
    Fractions, Python compares them by exact value, and the LP reads each
    at its exact value, so equal probabilities are equal rationals to the
    LP.  Weight attack(x) on the identity carrier of x or on the unit
    column of (x, sigma(x)), and weight 1 on e, meet every row.  The
    positions of the pairs behind the non-identity sigma(x) are exactly the
    positive-weight pair columns of that solution, and go into `used` as
    `_feasible` would record them.  Digest equality would not do: digests
    round to 10 decimals, and two probabilities with one digest can be
    different numbers, hence different rationals to the LP.

    sigma is a perfect matching of the bipartite graph of admissible
    (x, sigma(x)), found by augmenting paths, so it is found whenever one
    exists.  Each x tries itself first, which records no pair.
    """
    if list(defender.probs.values()) != [1]:
        return False
    ((_, extremes),) = per_config
    points = rel.points()
    for e in extremes:
        owner = _bijection(attack, e, points)
        if owner is not None:
            if used is not None:
                used.update(points[x][y] for y, x in owner.items() if y is not x)
            return True
    return False


def _bijection(attack: ConfigDistribution, e: ConfigDistribution,
               points: dict) -> Optional[dict]:
    """sigma for `_coupling_answer`, inverted (y -> x), or None."""
    if len(e.probs) != len(attack.probs):
        return None
    by_prob = {}
    for y, q in e.probs.items():
        by_prob.setdefault(q, []).append(y)
    options = {}
    for x, p in attack.probs.items():
        related = points.get(x, {})
        ys = [y for y in by_prob.get(p, ()) if y is not x and y in related]
        if e.probs.get(x) == p:
            ys.insert(0, x)
        if not ys:
            return None
        options[x] = ys
    owner = {}

    def augment(x, seen) -> bool:
        for y in options[x]:
            if y not in seen:
                seen.add(y)
                if y not in owner or augment(owner[y], seen):
                    owner[y] = x
                    return True
        return False

    return owner if all(augment(x, set()) for x in options) else None


def _match_weak(system: System, rel: _Relation, attack: ConfigDistribution,
                defender: ConfigDistribution, label: Label, used=None,
                proof=None) -> bool:
    """Can the defender weakly answer `attack` inside the relation's closure?

    Searches for a weak hatted `label` derivative nu' of `defender` with
    (attack, nu') in the convex closure of `rel` plus identities.  Weak
    derivatives of a distribution factor per support configuration (lifted
    transitions are linear and left-decomposable), so nu' ranges over
    independent convex mixtures of each configuration's extreme weak moves;
    the whole question is one exact-rational feasibility problem.  Its
    right rows are debited only by those extreme moves, so the LP has a
    pair column or identity carrier only where all of its right-hand mass
    lies on rows some extreme move debits (`_closure_columns`, `_debited`):
    any other column carries no weight.  When a point defender has an
    extreme weak move that a one-to-one coupling along identity pairs and
    the point pairs of `rel` relates to the attack (`_coupling_answer`),
    that coupling solves the problem and no LP is solved; otherwise the LP
    decides.  Either way the positions of the pairs the match relies on go
    into `used` (see `_feasible`).  When the match fails and `proof` is a
    list, it receives the LP's `Farkas` proof, or None when a defending
    configuration has no weak `label` move.
    """
    per_config = []
    for d in defender.probs:
        extremes = system.weak_extremes(d, label)
        if not extremes:
            if proof is not None:
                proof.append(None)
            return False
        per_config.append((d, extremes))
    if _coupling_answer(attack, defender, per_config, rel, used):
        return True
    columns, origins = _closure_columns(rel, attack, _debited(per_config))
    target = {("L", c.index): p for c, p in attack}
    target.update((("D", d.index), p) for d, p in defender)
    farkas = None if proof is None else []
    if _feasible(columns + _extreme_columns(per_config), origins, target, used, farkas):
        return True
    if proof is not None:
        proof.extend(farkas)
    return False


def _partial_matchings(classes, bound: float):
    """Yield (unmatched mass, matched indices, ascending) for every subset
    of `classes` whose unmatched mass, summed in index order, is at most
    `bound`.

    Only classes that could go unmatched alone are ever left out.  A sum
    of nonnegative terms is at least each term when it stays exact, and at
    least the term's float once it is a float, so a class with weight w
    above `bound` whose float is also above it is matched in every such
    subset.  At lambda 0 that is usually every class, and the one subset
    is found without walking the other 2^k - 1.
    """
    indices = range(len(classes))
    free = [i for i in indices
            if classes[i].weight <= bound or float(classes[i].weight) <= bound]
    for r in range(len(free) + 1):
        for dropped in itertools.combinations(free, r):
            unmatched_mass = sum(classes[i].weight for i in dropped)
            if unmatched_mass <= bound:
                yield unmatched_mass, tuple(i for i in indices if i not in dropped)


def _match_decomposition(system: System, rel: _Relation, decomp: TcDecomposition,
                         defender: ConfigDistribution, lam: float, tol: float,
                         used=None, proof=None) -> bool:
    """Can the defender internally split to match the attacker's classes?

    Searches for a weak tau derivative of `defender` of the form
    sum_i p_i nu_i with (mu_i, nu_i) in the closure for every matched class
    and at most `lam` attacker mass unmatched.  Matched subsets are tried in
    order of decreasing matched mass.  As in `_match_weak`, each LP has pair
    columns and identity carriers only on the right rows the defender's
    extreme tau moves debit; the columns for unmatched mass sit on those
    rows too.  The positions of the pairs the first feasible split relies
    on go into `used`.  With `proof` a list, each subset whose LP fails
    appends (subset, its `Farkas` proof).
    """
    classes = decomp.classes
    per_config = [(d, system.weak_extremes(d, TAU)) for d in defender.probs]
    extreme_columns = _extreme_columns(per_config)
    debited = _debited(per_config)
    # defender mass on unmatched classes
    free_columns = [{key: 1.0} for key in
                    sorted((("R", y.index) for y in debited), key=repr)]

    def feasible(matched):
        columns = []
        origins = []
        for i in matched:
            block, block_origins = _closure_columns(rel, classes[i].dist, debited,
                                                    row=("L", i))
            columns += block
            origins += block_origins
        columns += extreme_columns
        if len(matched) < len(classes):
            columns += free_columns
        target = {}
        for i in matched:
            cls = classes[i]
            for c, p in cls.dist:
                target[("L", i, c.index)] = cls.weight * p
        target.update((("D", d.index), p) for d, p in defender)
        farkas = None if proof is None else []
        if _feasible(columns, origins, target, used, farkas):
            return True
        if proof is not None:
            proof.extend((matched, f) for f in farkas)
        return False

    options = list(itertools.islice(_partial_matchings(classes, lam + tol), _SUBSET_CAP + 1))
    if len(options) > _SUBSET_CAP:
        raise BudgetExceededError("too many matched-class subsets", budget=_SUBSET_CAP)
    options.sort(key=lambda ow: (ow[0], tuple(ow[1])))
    return any(feasible(matched) for _, matched in options)


def _strong_attacks(system: System, dist: ConfigDistribution, cache: dict) -> tuple:
    """Extreme strong hatted moves of a distribution.

    Internal attacks let each support configuration halt or fire one of its
    tau alternatives (the all-halt combination is dropped: it is matched
    reflexively); a visible attack needs every support configuration to
    fire the label at once.  Extreme points suffice because the set of
    matchable attacks is convex.
    """
    got = cache.get(dist.digest)
    if got is not None:
        return got
    support = dist.probs
    shared = None
    for c in support:
        labels = {t.label for t in system.step(c) if t.label.visible}
        shared = labels if shared is None else shared & labels
        if not shared:
            break
    found = {}
    for label in [TAU] + sorted(shared or (), key=str):
        options = [[t.dist for t in system.step(c) if t.label == label]
                   for c in support]
        if label == TAU:
            options = [[system.dirac(c)] + opts for c, opts in zip(support, options)]
        total = 1
        for opts in options:
            total *= len(opts)
            if total > _ATTACK_CAP:
                raise BudgetExceededError(
                    "attack enumeration exceeded the cap", budget=_ATTACK_CAP)
        picks = itertools.product(*options)
        if label == TAU:
            next(picks)  # all halt: matched reflexively
        for pick in picks:
            moved = system.combine((p, d) for p, d in zip(support.values(), pick))
            found.setdefault((label, moved.digest), (label, moved))

    got = cache[dist.digest] = tuple(found.values())
    return got


# ---------------------------------------------------------------------------
# relation checking


def _unique_pairs(pairs) -> tuple:
    out = []
    seen = set()
    for a, b in pairs:
        key = (a.digest, b.digest)
        if key not in seen:
            seen.add(key)
            out.append((a, b))
    return tuple(out)


def _oriented(pairs) -> tuple:
    return _unique_pairs(p for a, b in pairs for p in ((a, b), (b, a)))


def _violation(system: System, rel: _Relation, x: ConfigDistribution,
               y: ConfigDistribution, lam: float, tol: float, attack_cache: dict,
               used=None, proof=None) -> Optional[dict]:
    """The first clause (ii) or (iii) obligation of x, attacking y, that the
    closure of `rel` fails to meet, as CheckReport fields; None if all hold.

    Clause (ii): every extreme strong move of x has a weak match by y.
    Clause (iii): when x is not transition consistent, an internal split of
    y matches its canonical classes with at most `lam` mass unmatched.
    The positions in `rel` of the pairs the matches rely on go into `used`.
    With `proof` a list, the evidence of the failed matches of the violated
    obligation goes into it (`_match_weak`, `_match_decomposition`).
    """
    for label, attack in _strong_attacks(system, x, attack_cache):
        if not _match_weak(system, rel, attack, y, label, used, proof):
            return dict(clause="ii", label=label, attack=attack,
                        detail=f"strong {label} move has no weak match in the closure")
    if not is_transition_consistent(x, system):
        if not _match_decomposition(system, rel, tc_decompose(x, system), y, lam, tol,
                                    used, proof):
            return dict(clause="iii", label=TAU,
                        detail="no internal split of the defending side matches the "
                               "transition-consistent classes within the allowed mass")
        if proof is not None:
            proof.clear()   # subsets that failed before one matched
    return None


def _check_exhaustive(system: System, relation: RelationCandidate,
                      lam: float, tol: float) -> CheckReport:
    rel = _Relation(_oriented(relation.pairs))
    attack_cache = {}
    for x, y in rel.pairs:
        detail = _clause_i(x, y, lam + tol)
        if detail is not None:
            return CheckReport(False, "exhaustive", clause="i", pair=(x, y),
                               lam=lam, tol=tol, detail=detail)
        bad = _violation(system, rel, x, y, lam, tol, attack_cache)
        if bad is not None:
            return CheckReport(False, "exhaustive", pair=(x, y), lam=lam, tol=tol,
                               direction="left", **bad)
    return CheckReport(True, "exhaustive", lam=lam, tol=tol, witness=relation,
                       detail=f"{len(rel.pairs)} oriented pairs verified by enumeration")


def _check_saturated(system: System, relation: RelationCandidate,
                     lam: float, tol: float, certificate: str) -> CheckReport:
    rel = _Relation(_oriented(relation.pairs))
    digests = {(a.digest, b.digest) for a, b in rel.pairs}
    memo = {}

    def related(a, b):
        key = (a.digest, b.digest)
        if key[0] == key[1] or key in digests:
            return True
        got = memo.get(key)
        if got is None:
            got = memo[key] = _member_lin(rel, a, b)
        return got

    for x, y in rel.pairs:
        detail = _clause_i(x, y, lam + tol)
        if detail is not None:
            return CheckReport(False, "saturated", clause="i", pair=(x, y),
                               lam=lam, tol=tol, detail=detail)

        sx, sy = _saturate(system, x), _saturate(system, y)
        if sx.digest != x.digest or sy.digest != y.digest:
            # internal attacks re-converge to the saturation on certified
            # systems, so the saturated pair carries this pair's obligations
            if not related(sx, sy):
                return CheckReport(
                    False, "saturated", clause="ii", pair=(x, y), lam=lam, tol=tol,
                    direction="left", label=TAU, attack=sx,
                    detail="canonical saturation of the pair is not in the closure")
            continue

        left = tc_decompose(x, system)
        right = tc_decompose(y, system)
        by_sig = {cls.signature: cls for cls in right.classes}

        shared_x = frozenset.intersection(*(cls.signature for cls in left.classes))
        shared_y = frozenset.intersection(*(cls.signature for cls in right.classes))
        if shared_x != shared_y:
            odd = sorted(shared_x ^ shared_y, key=str)[0]
            side = x if odd in shared_x else y
            return CheckReport(
                False, "saturated", clause="ii", pair=(x, y), lam=lam, tol=tol,
                direction="left" if odd in shared_x else "right", label=odd,
                attack=_derivative(system, side, odd),
                detail=f"whole-distribution move {odd} is enabled on one side only")
        for label in sorted(shared_x, key=str):
            dx, dy = _derivative(system, x, label), _derivative(system, y, label)
            if not related(dx, dy):
                return CheckReport(
                    False, "saturated", clause="ii", pair=(x, y), lam=lam, tol=tol,
                    direction="left", label=label, attack=dx,
                    detail=f"whole-distribution {label} derivatives are unrelated")

        matched = 0.0
        for cls in left.classes:
            partner = by_sig.get(cls.signature)
            if partner is None or cls.dist.held_qubits() != partner.dist.held_qubits():
                continue
            if not related(cls.dist, partner.dist):
                continue
            ok = True
            for label in sorted(cls.signature, key=str):
                if not related(_derivative(system, cls.dist, label),
                               _derivative(system, partner.dist, label)):
                    ok = False
                    break
            if ok:
                matched += min(cls.weight, partner.weight)
        if 1.0 - matched > lam + tol:
            return CheckReport(
                False, "saturated", clause="iii", pair=(x, y), lam=lam, tol=tol,
                direction="left", label=TAU,
                detail=f"only {float(matched):.6g} class mass matches; "
                       f"{float(1 - matched):.6g} exceeds the allowed {lam + tol:.6g}")

    return CheckReport(True, "saturated", lam=lam, tol=tol, witness=relation,
                       detail=f"{len(rel.pairs)} oriented pairs verified; {certificate}")


@_query
def check_lambda_relation(relation, lam: float, context, tol: float = None,
                          mode: str = "auto") -> CheckReport:
    """Verify that a pair family is a lambda-bisimulation up to lambda.

    Every pair, in both orientations, must keep quantum variables equal and
    environments within lambda in trace distance; strong hatted moves must
    be weakly matched inside the convex closure of the family; and when the
    left side is not transition consistent, its canonical classes must be
    matched by an internal split of the right side with at most lambda mass
    unmatched.  At lambda 0 this is the ground-bisimulation check.

    `mode` picks the engine: "exhaustive" enumerates attacks literally;
    "auto" uses the canonical collapse when certification (tau-normality
    and the local-diamond criterion of `confluence_check` on the graph the
    pairs reach) succeeds, and enumerates otherwise.  Both refuse a
    relation whose supports have a visible quantum input
    (`QuantumInputFragmentError`): only without one is the super-operator
    clause proved (module docstring).  Exhaustive mode never explores the
    whole reach, so it also runs where the reach is infinite.
    """
    if mode not in ("auto", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    relation = RelationCandidate.coerce(relation, system)
    if not relation.pairs:
        return CheckReport(True, "exhaustive", lam=lam, tol=tol,
                           witness=relation, detail="empty relation holds vacuously")

    if mode == "auto":
        try:
            configs = _prepare(system, [d for pair in relation.pairs for d in pair])
        except (CyclicModelError, QuantumInputFragmentError):
            pass
        else:
            ok, why = _certified(system, configs)
            if ok:
                return _check_saturated(system, relation, lam, tol, why)
    _refuse_quantum_input(system, dict.fromkeys(
        c for pair in relation.pairs for d in pair for c in d.support))
    return _check_exhaustive(system, relation, lam, tol)


def check_ground_bisim_relation(relation, context, tol: float = None,
                                mode: str = "auto") -> CheckReport:
    """Verify a candidate ground bisimulation (lambda 0)."""
    return check_lambda_relation(relation, 0.0, context, tol=tol, mode=mode)


# ---------------------------------------------------------------------------
# the canonical walk, behind `decide_bisim` and `distance_upper_bound`


def _lonely_class(system: System, sl: ConfigDistribution, sr: ConfigDistribution,
                  fl: tuple, fr: tuple) -> Optional[dict]:
    """The first class of the forms `fl` of `sl` and `fr` of `sr`, left
    side first, whose signature the other side lacks, as CheckReport
    fields: clause (ii) on its first visible label, or (iii) when it only
    stalls silently; None when every class has a partner."""
    for classes, side, other in ((fl, "left", fr), (fr, "right", fl)):
        present = {c.signature for c, _ in other}
        for cls, _ in classes:
            if cls.signature in present:
                continue
            visible = sorted((l for l in cls.signature if l.visible), key=str)
            if visible:
                return dict(clause="ii", direction=side, label=visible[0],
                            pair=(cls.dist, sr) if side == "left" else (sl, cls.dist),
                            attack=_derivative(system, cls.dist, visible[0]),
                            detail=f"class with weight {float(cls.weight):.6g} enables "
                                   f"{visible[0]} on the {side} side only")
            return dict(clause="iii", direction=side, pair=(sl, sr),
                        detail=f"the {side} side can stall silently with mass "
                               f"{float(cls.weight):.6g}, the other side cannot")
    return None


class _Node(NamedTuple):
    """What `_walk` found at a pair of saturated distributions."""

    lam: float          # past the walk's `stop`, only known to exceed it
    pairs: tuple        # the witness pairs the lambda stands on
    bad: Optional[dict]  # past `stop`: the first failing pair, as CheckReport fields


def _walk(system: System, sl: ConfigDistribution, sr: ConfigDistribution,
          stop: float, memo: dict, notes: list) -> _Node:
    """The lambda relating the saturated distributions `sl` and `sr`, found by
    walking their behaviour forms (`_form`) in parallel.

    The lambda of a pair is the largest of its environment distance, the
    lambdas of its derivatives under each label every class enables, and
    the cost of matching its classes.  Classes of one signature whose held
    qubits agree are candidates, and each costs the largest of its
    environment distance and its derivatives' lambdas; a prefix of the
    candidates, ordered by cost and signature, costs its largest cost or
    the class mass it leaves unmatched, 1 - sum(min(wl, wr)), whichever is
    larger, and the cheapest prefix (the shortest on ties) is matched.  A
    pair gets 1 when its held qubits differ, or when the labels all classes
    of one side enable are not those all classes of the other enable.  The
    pair, the shared derivatives' pairs and the matched classes' pairs form
    a witness passing `check_lambda_relation` at the lambda.

    The walk stops at a pair once its lambda is known to exceed `stop`.
    Such a pair is known only to exceed it, so a class that has one among
    its derivatives is never matched and its mass is left unmatched.  Its
    `bad` is the first failing pair, in this order: clause (i) on the
    pair; a class on one side only (`_lonely_class`); the first class, in
    signature order, that fails clause (i) or has such a derivative; such
    a shared derivative; the unmatched mass, in clause (iii).  With `stop`
    infinite the walk is complete.

    Each pair is walked once per `memo`, and the first visit charges the
    support sizes of its two sides in work units, whatever earlier queries
    kept.  A pair walked to the end adds (sl, sr, environment distance,
    signatures of the matched and of the other classes, unmatched mass)
    to `notes`.
    """
    key = (sl.digest, sr.digest)
    got = memo.get(key)
    if got is not None:
        return got
    system._spend(len(sl.probs) + len(sr.probs))

    def done(lam, pairs=(), **bad) -> _Node:
        node = memo[key] = _Node(lam, pairs, bad or None)
        return node

    held = sl.held_qubits() == sr.held_qubits()
    env = _env_distance(sl, sr) if held else 1.0
    if not held or env > stop:
        return done(env, clause="i", pair=(sl, sr), detail=_clause_i(sl, sr, stop, env))

    fl, fr = _form(system, sl), _form(system, sr)
    first = _lonely_class(system, sl, sr, fl, fr)   # the evidence so far
    shared = frozenset.intersection(*(c.signature for c, _ in fl))
    if shared != frozenset.intersection(*(c.signature for c, _ in fr)):
        return done(1.0, **first)
    lam, pairs, failed = env, [(sl, sr)], None
    for label in sorted(shared, key=str):
        sub = _walk(system, _derivative(system, sl, label),
                    _derivative(system, sr, label), stop, memo, notes)
        lam = max(lam, sub.lam)
        if sub.lam > stop:
            failed = sub.bad
            break
        pairs.extend(sub.pairs)

    by_sig_r = {c.signature: (c, children) for c, children in fr}
    candidates = []
    for cl, children_l in fl:
        if failed is not None and first is not None:
            break
        cr, children_r = by_sig_r.get(cl.signature, (None, None))
        if cr is None:
            continue
        held = cl.dist.held_qubits() == cr.dist.held_qubits()
        worst = _env_distance(cl.dist, cr.dist) if held else 1.0
        bad, below = None, [(cl.dist, cr.dist)]
        if not held or worst > stop:
            bad = dict(clause="i", pair=(cl.dist, cr.dist),
                       detail=f"class {_clause_i(cl.dist, cr.dist, stop, worst)}")
        else:
            for (_, child_l), (_, child_r) in zip(children_l, children_r):
                sub = _walk(system, child_l, child_r, stop, memo, notes)
                if sub.lam > stop:
                    bad = sub.bad
                    break
                worst = max(worst, sub.lam)
                below.extend(sub.pairs)
        if bad is None:
            candidates.append((worst, min(cl.weight, cr.weight),
                               _sig_key(cl.signature), cl.signature, below))
        elif first is None:
            first = bad
    if failed is not None:
        return done(lam, **(first or failed))

    # match the shortest prefix (by per-class cost) minimising the maximum
    candidates.sort(key=lambda item: (item[0], item[2]))
    best_lam, best_k, mass = 1.0, 0, 0
    for k, item in enumerate(candidates, 1):
        mass += item[1]
        cost = max(1.0 - mass, item[0])
        if cost < best_lam:
            best_lam, best_k = cost, k
    lam = max(lam, best_lam)
    matched = candidates[:best_k]
    unmatched = max(0.0, 1.0 - sum(item[1] for item in matched))
    if lam > stop:
        return done(lam, **(first or dict(
            clause="iii", pair=(sl, sr),
            detail=f"unmatched class mass {unmatched:.6g} exceeds {stop:.6g}")))
    for item in matched:
        pairs.extend(item[4])
    kept = {item[3] for item in matched}
    notes.append((sl, sr, env, [item[2] for item in matched],
                  [_sig_key(c.signature) for c, _ in fl if c.signature not in kept],
                  unmatched))
    return done(lam, tuple(pairs))


# ---------------------------------------------------------------------------
# deciding distribution bisimilarity


def _pair_violation(system: System, rel: _Relation, a: ConfigDistribution,
                    b: ConfigDistribution, tol: float, attack_cache: dict,
                    used=None, proof=None) -> Optional[dict]:
    """`_violation` at lambda 0 in both orientations of (a, b), with the
    attacking side as `direction`."""
    for x, y, side in ((a, b, "left"), (b, a, "right")):
        bad = _violation(system, rel, x, y, 0.0, tol, attack_cache, used, proof)
        if bad is not None:
            return dict(bad, direction=side)
    return None


class _StateFacts(NamedTuple):
    """What the completed state-based fixpoints on one System at one
    tolerance decided.  `alive` holds the pairs of configuration indices,
    smaller first, that a fixpoint kept.  `seen` maps a configuration index
    to a bit mask with bit k set when the k-th fixpoint (numbered by `runs`)
    had it as a member, so two configurations with a common bit were
    decided together: alive, deleted, or no candidate.  `log` holds the
    deletion entries (`_ground_fixpoint`) that justify each deleted pair."""

    alive: set
    seen: dict
    log: dict
    runs: itertools.count


class _Entry(NamedTuple):
    """One failed check of `_ground_fixpoint`: a deletion, or the final
    check that names a refutation.

    `seq` orders entries; `pair` (a, b) and `direction` are as in
    CheckReport, "left" meaning a attacked.  For clause (ii), `proof` holds
    the one failed match of the strong `label` move `attack`: its Farkas
    vector, or None when a defending configuration has no weak `label`
    move.  For clause (iii) it holds (matched-class subset, Farkas vector)
    for every subset the match tried.  In a log the vectors are `Farkas`
    proofs, built when first read; in a `Certificate` they are dicts from
    LP row to int (`_concrete`).
    """

    seq: int
    pair: tuple
    direction: str
    clause: str
    label: Label
    attack: Optional[ConfigDistribution]
    proof: tuple


class Certificate(NamedTuple):
    """What a state-based or relation-search refutation rests on.

    `entries` are deletion entries in deletion order.  The last is the
    report's own failing check; every other one deletes a pair whose column
    would break a Farkas vector of a later entry.  `family` holds the
    digests of the relation-search family, and is None for state-based
    refutations, whose family is every point distribution.
    `replay_refutation` checks it without solving an LP.
    """

    entries: tuple
    family: Optional[tuple]

    @property
    def detail(self) -> str:
        return (f"{len(self.entries)} deletion entries, each with exact integer "
                "Farkas vectors or a missing weak move; the certificate is exact "
                "relative to the float probabilities the engine used")


def _concrete(entry: _Entry) -> _Entry:
    """`entry` with its Farkas proofs read out as dicts."""
    if entry.clause == "iii":
        proof = tuple((matched, f.by_key()) for matched, f in entry.proof)
    else:
        proof = tuple(None if f is None else f.by_key() for f in entry.proof)
    return entry._replace(proof=proof)


def _pair_key(a: ConfigDistribution, b: ConfigDistribution) -> tuple:
    """The unordered pair {a, b}, by digest: how certificates name pairs."""
    return (a.digest, b.digest) if a.digest <= b.digest else (b.digest, a.digest)


def _ground_fixpoint(system: System, members: list, tol: float, attack_cache: dict,
                     facts: Optional[_StateFacts] = None, log: Optional[dict] = None) -> set:
    """Index pairs (i, j), i < j, of `members` in the greatest fixpoint.

    Members are distinct, and a candidate is a pair of two of them: an
    identity pair (mu, mu) is never checked, given a column, recorded in
    `facts` or written into a witness.  This is exact.  The column of
    (mu, mu) in `_closure_columns` exists only when supp(mu) lies in
    supp(left) and in `rows`, and then it is the sum of mu(c) times the
    identity carrier of c, which the LP already has.  So no LP changes what
    it can solve, and no Farkas vector changes its validity.  Whether a
    pair passes thus never depends on identity pairs, and the greatest
    fixpoint over the other pairs is the same set with or without them.
    Each identity pair still belongs to the relation every report
    describes (`RelationCandidate`), and `_survives` answers it.

    Candidates are the pairs meeting clause (i) whose transition-consistent
    members agree on their weak visible sets (tc members related in any
    ground bisimulation must).  Clause (i) reads only the held qubits and
    the environment matrix of each side, so members with the same held
    qubits and bitwise-equal environments form one environment class
    (`_env_class`), and clause (i) is decided once per pair of classes, on
    their first members: bitwise-equal inputs give the same answer, and so
    does swapping the sides, since `_env_distance` is bit-identical under
    swapping.  The distance of each pair of classes is kept on the System
    (`_kept_clause_i`), so later fixpoints do not compute it again.

    A worklist deletes every pair that violates clause (ii) or (iii), in
    either orientation, against the surviving family.  A pair that passes
    records the pairs whose columns carry positive weight in its solutions,
    whether the LP found them or a one-to-one coupling did
    (`_coupling_answer` records the related point pairs of its bijection,
    which are exactly the positive-weight pair columns of the solution it
    exhibits); when a pair is deleted, only the survivors that recorded it
    are checked again.  This is exact: deleting a pair only removes
    columns, and a solution stays a solution while its positive-weight
    columns survive, so a survivor none of whose recorded pairs was deleted
    still meets every clause.  When the worklist empties the survivors form
    a post-fixpoint, and every deletion was forced by a superset of the
    greatest fixpoint, so the result is that fixpoint.  The relation
    (`_Relation`) is built once, at the first check, holding the k-th
    candidate in sorted order at positions 2k and 2k + 1, one per
    orientation.  A deleted pair is dropped from it, so positions stay
    valid and columns keep the order a relation rebuilt from the survivors
    would give them.  Rounds visit the pending pairs in sorted order, so
    the result and the LPs solved do not depend on hash order.

    With `log`, each deletion adds an `_Entry` under its `_pair_key`, with
    the evidence of the check that failed.  Entries are added when the
    fixpoint completes, numbered after those `log` already holds, so an
    entry's `seq` orders it after every deletion it relied on.

    With `facts`, every member is a point distribution.  A pair of members
    that some completed fixpoint had both as members (a common bit in
    `facts.seen`) was decided there, by the same shape and clause (i) rule
    at the same tolerance: it starts alive, never checked, when `facts`
    holds it alive, and is no candidate otherwise.  So only pairs with no
    common bit are walked, group by group of members with equal bits, and
    the rest is read from `facts.alive`.  The survivors then go into
    `facts`, and the members get the bit of this fixpoint.  This is exact.
    Each fact was decided over a reach-closed set, and so is every family
    here.  Clauses (ii) and (iii) of a point pair read only pairs of
    configurations both sides reach, and a pair column reaching past them
    carries no weight.  So the greatest fixpoint over either set restricts
    to the fixpoint over their intersection.  Every alive fact is then in
    this fixpoint and every deleted one is not.  The worklist also reaches
    the fixpoint from this start: deletions stay forced, and an alive fact
    meets every clause against any superset of the fixpoint.
    """
    ids = None if facts is None else [m.support[0].index for m in members]
    groups = {}      # bits of the completed fixpoints a member was in -> members
    shapes = []
    env_class = []   # per member, its environment class
    delegates = []   # per environment class, its first member
    classes = {}     # environment class -> its number
    for i, m in enumerate(members):
        groups.setdefault(0 if ids is None else facts.seen.get(ids[i], 0), []).append(i)
        sigs = {system.weak_enabled(c) for c in m.probs}
        shapes.append(sigs.pop() if len(sigs) == 1 else None)
        key = _env_class(m)
        if key not in classes:
            classes[key] = len(delegates)
            delegates.append(m)
        env_class.append(classes[key])
    class_keys = list(classes)
    meets = {}       # sorted pair of classes -> does it meet clause (i)?
    alive = set()    # pairs alive in `facts`, never checked here
    if ids is not None:
        pos = {x: i for i, x in enumerate(ids)}
        alive = {tuple(sorted((pos[x], pos[y]))) for x, y in facts.alive
                 if x in pos and y in pos}
    pending = set()  # candidates no completed fixpoint decided
    masks = list(groups)
    for k, g in enumerate(masks):
        for h in masks[k:]:
            if g & h:
                continue
            for i, j in (itertools.combinations(groups[g], 2) if g == h
                         else itertools.product(groups[g], groups[h])):
                if (shapes[i] is not None and shapes[j] is not None
                        and shapes[i] != shapes[j]):
                    continue
                a, b = sorted((env_class[i], env_class[j]))
                ok = meets.get((a, b))
                if ok is None:
                    ok = meets[a, b] = _kept_clause_i(
                        system, delegates[a], delegates[b], tol,
                        class_keys[a], class_keys[b]) is None
                if ok:
                    pending.add((i, j) if i < j else (j, i))
    alive |= pending

    rel = None
    deps = {}    # survivor -> the pairs its last check relied on
    users = {}   # pair -> the survivors whose last check relied on it
    deleted = {}  # entries for `log`
    while pending:
        for key in sorted(pending):
            pending.discard(key)
            if key not in alive:
                continue
            if rel is None:
                owners = sorted(alive)
                rank = {pair: k for k, pair in enumerate(owners)}
                rel = _Relation([(members[x], members[y]) for i, j in owners
                                 for x, y in ((i, j), (j, i))])
            for q in deps.pop(key, ()):
                users.get(q, set()).discard(key)
            used = set()
            proof = None if log is None else []
            i, j = key
            bad = _pair_violation(system, rel, members[i], members[j], tol,
                                  attack_cache, used, proof)
            if bad is None:
                deps[key] = {owners[k // 2] for k in used}
                for q in deps[key]:
                    users.setdefault(q, set()).add(key)
            else:
                alive.discard(key)
                pending |= users.pop(key, set())
                rel.drop(2 * rank[key])
                rel.drop(2 * rank[key] + 1)
                if log is not None:
                    deleted[_pair_key(members[i], members[j])] = _entry(
                        len(log) + len(deleted), (members[i], members[j]), bad, proof)
    if ids is not None:
        facts.alive.update((min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j in alive)
        bit = 1 << next(facts.runs)
        facts.seen.update((x, facts.seen.get(x, 0) | bit) for x in ids)
    if log is not None:
        log.update(deleted)
    return alive


def _entry(seq: int, pair: tuple, bad: dict, proof: list) -> _Entry:
    return _Entry(seq, pair, bad["direction"], bad["clause"], bad["label"],
                  bad.get("attack"), tuple(proof))


def _survives(members: list, alive: set, mu, nu) -> bool:
    """Is (mu, nu), both members, in the fixpoint `alive` over `members`?"""
    pos = {m.digest: k for k, m in enumerate(members)}
    return (mu.digest == nu.digest
            or tuple(sorted((pos[mu.digest], pos[nu.digest]))) in alive)


def _refine(system: System, members: list, mu, nu, tol: float, mode: str) -> CheckReport:
    """Greatest fixpoint of the ground clauses over pairs of `members`.

    The verdict is whether (mu, nu), both members, survives
    `_ground_fixpoint`; the survivors are the witness.  A refutation names
    the first clause (mu, nu) violates against the survivors, and carries a
    `Certificate` built from that check and the deletion log.  In mode
    "state-based" the members are the point distributions of a reach-closed
    set, and the fixpoint starts from the System's state-based facts and
    adds to their log.
    """
    attack_cache = {}
    facts = None
    log = {}
    if mode == "state-based":
        facts = system._state_facts.setdefault(tol, _StateFacts(set(), {}, {}, itertools.count()))
        log = facts.log
    alive = _ground_fixpoint(system, members, tol, attack_cache, facts, log)
    survivors = [(members[i], members[j]) for i, j in sorted(alive)]
    if _survives(members, alive, mu, nu):
        return CheckReport(True, mode, tol=tol, witness=RelationCandidate(tuple(survivors)),
                           detail=f"{len(alive)} pairs survive over a family of "
                                  f"{len(members)} distributions")
    detail = _kept_clause_i(system, mu, nu, tol, _env_class(mu), _env_class(nu))
    if detail is not None:
        return CheckReport(False, mode, clause="i", pair=(mu, nu), tol=tol, detail=detail)
    rel = _Relation(_oriented(survivors) + ((mu, nu), (nu, mu)))
    proof = []
    bad = _pair_violation(system, rel, mu, nu, tol, attack_cache, None, proof) or {}
    final = _entry(len(log), (mu, nu), bad, proof) if bad else None
    certificate = _certify(system, members, mode, log, final, tol)
    detail = bad.pop("detail", "deleted during refinement")
    return CheckReport(False, mode, pair=(mu, nu), tol=tol, detail=detail,
                       certificate=certificate, **bad)


def _certify(system: System, members: list, mode: str, log: dict,
             final: Optional[_Entry], tol: float) -> Certificate:
    """The certificate of a refutation whose failing check is `final`:
    that entry, and from `log` every entry deleting a pair whose column
    breaks the Farkas vectors of a kept entry, recursively.  Only deleted
    pairs can: the columns of the pairs alive at an entry's check were in
    its LP."""
    family = None if mode == "state-based" else members
    reader = _EntryChecker(system, tol, family)

    def logged(m, n):
        key = _pair_key(m, n)
        return key if key in log else None

    kept = {}
    final = None if final is None else _concrete(final)
    todo = [] if final is None else [final]
    while todo:
        for key in reader.blocks(todo.pop(), logged) or ():
            if key not in kept:
                kept[key] = _concrete(log[key])
                todo.append(kept[key])
    entries = sorted(kept.values(), key=lambda e: e.seq) + ([] if final is None else [final])
    return Certificate(tuple(entries), None if family is None
                       else tuple(m.digest for m in members))


def _search_family(system: System, mu, nu) -> list:
    """The family relation search refines over, sorted by digest.

    It holds the queried pair, every point distribution, every one-step
    target, canonical saturations, and the canonical classes of each
    member.  Complete only as far as the family reaches, which covers the
    acyclic desk-scale systems this mode is meant for.
    """
    family = {}

    def add(d):
        if d.digest not in family:
            if len(family) >= _FAMILY_CAP:
                raise BudgetExceededError(
                    "relation-search family exceeded its cap", budget=_FAMILY_CAP)
            family[d.digest] = d

    add(mu), add(nu)
    configs = system.reachable([c for d in (mu, nu) for c in d.support])
    for c in configs:
        add(system.dirac(c))
        for t in system.step(c):
            add(t.dist)
    for d in (mu, nu):
        add(_saturate(system, d))
    for d in list(family.values()):
        for cls in tc_decompose(d, system).classes:
            add(cls.dist)
    return sorted(family.values(), key=lambda d: d.digest)


def _relation_search(system: System, mu, nu, tol: float) -> CheckReport:
    """Refinement over the finite family `_search_family` of reachable
    distributions."""
    return _refine(system, _search_family(system, mu, nu), mu, nu, tol, "relation-search")


def _search_key(mu: ConfigDistribution, nu: ConfigDistribution, tol: float) -> tuple:
    """The System's key for the relation search on (mu, nu) at `tol`: the
    exact probabilities, not the 10-decimal digest, since two pairs with
    one digest can differ to the exact LP."""
    return (tuple(sorted((c.index, p) for c, p in mu.probs.items())),
            tuple(sorted((d.index, q) for d, q in nu.probs.items())), tol)


def _recorded_search(system: System, mu, nu, tol: float) -> CheckReport:
    """`_relation_search`, its outcome kept on the System for
    `distance_upper_bound`."""
    report = _relation_search(system, mu, nu, tol)
    system._searches[_search_key(mu, nu, tol)] = (
        report.holds, report.witness, report.detail)
    return report


@_query
def decide_bisim(mu, nu, context, tol: float = None, mode: str = "auto") -> CheckReport:
    """Decide distribution-based ground bisimilarity of two distributions.

    Preconditions: the reachable graph is acyclic and free of visible
    quantum input, so the super-operator clause holds (module docstring).
    "auto" walks behaviour forms under the canonical scheduler (`_walk`),
    which is complete on certified systems, and elsewhere runs the
    greatest-fixpoint refinement, which "relation-search" always runs; the
    report records the mode.  Certification proves that scheduling cannot
    change the canonical answers: the system is tau-normal and meets the
    local-diamond criterion of `confluence_check` at every reachable
    configuration.  The canonical decision holds iff the walk's lambda,
    the value `distance_upper_bound` reports, is within `tol`; the walk
    stops once it is past, and reports the first failing pair it met.
    Every relation-search outcome is kept on the System (module docstring).
    """
    if mode not in ("auto", "relation-search"):
        raise ValueError(f"unknown mode {mode!r}")
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    mu, nu = _as_dist(system, mu), _as_dist(system, nu)
    configs = _prepare(system, (mu, nu))
    if mode == "relation-search":
        return _recorded_search(system, mu, nu, tol)
    ok, why = _certified(system, configs)
    if not ok:
        return _recorded_search(system, mu, nu, tol)
    detail = _clause_i(mu, nu, tol)
    if detail is not None:
        return CheckReport(False, "canonical", clause="i", pair=(mu, nu), tol=tol,
                           detail=f"{detail}; {why}")
    node = _walk(system, _saturate(system, mu), _saturate(system, nu), tol, {}, [])
    if node.lam > tol:
        bad = dict(node.bad)
        detail = bad.pop("detail")
        return CheckReport(False, "canonical", tol=tol, detail=f"{detail}; {why}", **bad)
    witness = RelationCandidate(_unique_pairs(((mu, nu),) + node.pairs))
    return CheckReport(True, "canonical", tol=tol, witness=witness,
                       detail=f"behaviour forms agree within the tolerance; {why}")


# ---------------------------------------------------------------------------
# deciding state-based bisimilarity


@_query
def decide_state_based(c, d, context, tol: float = None) -> CheckReport:
    """Decide state-based ground bisimilarity of two configurations.

    State-based bisimulation is distribution-based bisimulation in which
    every related distribution is a point distribution, so this is the
    refinement of relation search over the point distributions of every
    reachable configuration.  On point distributions the held qubits are
    the configuration's quantum variables, every member is transition
    consistent with its weak enabled set as its shape, and the strong
    attacks are exactly the configuration's moves.  Complete on acyclic
    quantum-input-free systems.  The refinement starts from the pairs that
    earlier state-based decisions on the System settled at `tol` (module
    docstring), and only the rest are checked.
    """
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    if isinstance(c, ConfigDistribution):
        (c,) = c.support
    if isinstance(d, ConfigDistribution):
        (d,) = d.support
    mu, nu = system.dirac(c), system.dirac(d)
    family = [system.dirac(x) for x in _prepare(system, (mu, nu))]
    return _refine(system, family, mu, nu, tol, "state-based")


# ---------------------------------------------------------------------------
# distance bounds


@_query
def distance_upper_bound(mu, nu, context, tol: float = None) -> DistanceBound:
    """A verified upper bound on the bisimulation distance of two distributions.

    On certified systems (tau-normal, and confluent by the local-diamond
    criterion of `confluence_check`), the bound is the lambda of the
    canonical walk (`_walk`): the maximum over all visited pairs of the
    environment trace distance and the transition-consistent class mass
    left unmatched, the per-node matched subset chosen greedily to
    minimise that maximum.  `decide_bisim` holds on a certified pair iff
    this lambda is within the tolerance.
    The visited pairs form a witness passing `check_lambda_relation` at the
    returned value.  Elsewhere the bound degrades to 0 (when relation-search
    proves bisimilarity) or the trivial 1; the relation search that
    `decide_bisim` ran on the same pair and tolerance is read, not repeated.
    """
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    mu, nu = _as_dist(system, mu), _as_dist(system, nu)
    configs = _prepare(system, (mu, nu))
    ok, why = _certified(system, configs)
    if not ok:
        found = system._searches.get(_search_key(mu, nu, tol))
        if found is None:
            report = _recorded_search(system, mu, nu, tol)
            found = (report.holds, report.witness, report.detail)
        holds, witness, searched = found
        if holds:
            return DistanceBound(0.0, witness, "relation-search",
                                 detail=f"bisimilar by refinement; {why}")
        return DistanceBound(1.0, RelationCandidate(()), "relation-search",
                             detail=f"trivial bound; {why}; {searched}")

    if mu.held_qubits() != nu.held_qubits():
        return DistanceBound(1.0, RelationCandidate(()), "canonical",
                             detail="quantum variables differ; no lambda relates them")
    lam = _env_distance(mu, nu)
    notes = []
    node = _walk(system, _saturate(system, mu), _saturate(system, nu), inf, {}, notes)
    lam = max(lam, node.lam)
    if lam >= 1.0:
        return DistanceBound(1.0, RelationCandidate(()), "canonical",
                             detail=f"no matching found; {why}")
    witness = RelationCandidate(_unique_pairs(((mu, nu),) + node.pairs))
    # a bound stands on its witness passing `check_lambda_relation`, whose
    # saturated checker reads the saturation of every witness distribution
    for d in itertools.chain.from_iterable(witness.pairs):
        _saturate(system, d)
    annotations = tuple({
        "pair": [_dist_json(sl), _dist_json(sr)],
        "matched": [list(sig) for sig in matched],
        "dropped": [list(sig) for sig in dropped],
        "unmatched_mass": unmatched,
        "env_distance": env,
    } for sl, sr, env, matched, dropped, unmatched in notes)
    return DistanceBound(lam, witness, "canonical", detail=why, annotations=annotations)


# ---------------------------------------------------------------------------
# refutation replay


@_query
def replay_refutation(report: CheckReport, context) -> bool:
    """Confirm a refutation independently of the engine that produced it.

    Clause (i) violations are recomputed from the configurations.  A
    state-based or relation-search refutation is confirmed by checking its
    `Certificate` (`_certificate_holds`), whose last entry is the reported
    move: no LP is solved and no fixpoint runs, and what the System keeps
    from earlier queries is neither read nor written.  For canonical,
    exhaustive and saturated refutations a reported move must exist in the
    transition graph, and the pair is re-decided when the reachable graph
    fits in `_REPLAY_CAP` configurations: by a lambda-relation check when
    lambda > 0, and by relation search at lambda 0, an algorithm other
    than the canonical and relation-checking engines.  Beyond the cap, or
    when relation search refuses a visible quantum input in the reach or
    its family outgrows `_FAMILY_CAP`, the directly verified evidence
    stands.  Used by the test suite on every refutation.
    """
    system = _system_of(context)
    if report.holds:
        raise ValueError("only refutations replay")
    if report.pair is None:
        return False
    x, y = report.pair
    tol = report.tol if report.tol is not None else system.tol
    lam = report.lam if report.lam is not None else 0.0

    if report.clause == "i":
        return _clause_i(x, y, lam + tol) is not None
    if report.mode in ("state-based", "relation-search"):
        return _certificate_holds(system, report)

    attacker = x if report.direction != "right" else y
    confirmed = False
    if report.label is not None and report.attack is not None:
        if not _attack_exists(system, attacker, report.label, report.attack):
            return False
        confirmed = True
    if report.clause == "iii" and report.attack is None:
        defender = y if report.direction != "right" else x
        left = {cls.signature: cls.weight
                for cls in tc_decompose(attacker, system).classes}
        right = {cls.signature: cls.weight
                 for cls in tc_decompose(defender, system).classes}
        excess = sum(max(0.0, w - right.get(sig, 0.0)) for sig, w in left.items())
        if set(left) != set(right) or excess > lam + tol:
            confirmed = True  # the canonical decompositions genuinely disagree

    try:
        system.reachable([c for d in (x, y) for c in d.support],
                         max_configs=_REPLAY_CAP)
    except BudgetExceededError:
        # too large to re-decide; stand on the directly verified evidence
        return confirmed

    if lam > 0.0:
        fresh = check_lambda_relation([(x, y)], lam, system, tol=tol)
        return not fresh.holds
    try:
        _prepare(system, (x, y))
        return not _relation_search(system, x, y, tol).holds
    except (QuantumInputFragmentError, BudgetExceededError):
        # relation search refuses a visible quantum input in the reach, or
        # its family outgrows `_FAMILY_CAP`
        return confirmed


def _certificate_holds(system: System, report: CheckReport) -> bool:
    """Does the report's certificate prove its pair outside the greatest
    fixpoint of its engine?

    Entries are read in order.  An entry proves its pair dead when its
    evidence holds (`_EntryChecker.blocks`) with every pair of an earlier entry
    dead and every other candidate pair alive: each column a bisimulation
    could use is then a column of the entry's LP, which its Farkas vector
    shows infeasible.  The last entry must be the report's failing check.
    A report with no failing check names a pair that is no candidate.
    """
    cert = report.certificate
    if cert is None:
        return False
    mu, nu = report.pair
    family = None
    if cert.family is not None:
        family = _search_family(system, mu, nu)
        if tuple(m.digest for m in family) != cert.family:
            return False
    reader = _EntryChecker(system, report.tol, family)
    if not cert.entries:
        return report.clause is None and not reader.candidate(mu, nu)
    dead = set()

    def alive(m, n):
        key = _pair_key(m, n)
        return key if key not in dead and reader.candidate(m, n) else None

    last = cert.entries[-1]
    if ((last.pair[0].digest, last.pair[1].digest, last.direction, last.clause,
         last.label) != (mu.digest, nu.digest, report.direction, report.clause,
                         report.label)
            or getattr(last.attack, "digest", None)
            != getattr(report.attack, "digest", None)):
        return False
    for entry in cert.entries:
        if reader.blocks(entry, alive) != set():   # None, or a live candidate
            return False
        dead.add(_pair_key(*entry.pair))
    return True


def _dot(y: dict, items) -> tuple:
    """(n, s), s > 0, with n / s the exact sum of y[k] * v over the pairs
    (k, v) of `items`: integer arithmetic on each value's exact ratio."""
    terms = [(y[k], v.as_integer_ratio()) for k, v in items if k in y]
    scale = lcm(*(d for _, (_, d) in terms))
    return sum(w * n * (scale // d) for w, (n, d) in terms), scale


class _EntryChecker:
    """Re-reads deletion entries against the raw semantics.

    It reads moves through `System.step` (`_strong_attacks`) and
    `System.weak_extremes`, decides which pairs are candidates with the rule
    of `_ground_fixpoint` (`_clause_i` and the weak-enabled shape), and
    takes exact integer dot products; it solves no LP and runs no fixpoint.
    `family` is relation search's family, or None for state-based entries,
    whose members are the point distributions.

    An entry's LP is the one the engine built (`_closure_columns`): a
    column for every pair of members, except columns with mass on a
    right-hand row that no extreme move of the defender takes mass from.
    Nothing else is negative on such a row, whose target is 0, so those
    columns carry no weight in any solution.  Engine and checker thus
    build one LP, and its rows and columns depend on the attack and the
    defender's extreme moves, not on the size of the family.  The engine
    gives an identity pair (m, m) no column, while the checker still reads
    every pair of members, m with itself included.  That column is the
    sum of m(c) times the identity carrier of c, which the checker
    requires to have a nonnegative product, so it never breaks a Farkas
    vector and the two readings agree.
    """

    def __init__(self, system: System, tol: float, family=None):
        self.system, self.tol, self.family = system, tol, family
        self.by_digest = {m.digest: m for m in family or ()}
        self.attacks = {}
        self.verdicts = {}

    def member(self, d: ConfigDistribution) -> Optional[ConfigDistribution]:
        """The member an entry names by `d`, or None: an entry's sides are
        read from the family, or as point distributions, never as given."""
        if self.family is not None:
            return self.by_digest.get(d.digest)
        if list(d.probs.values()) == [1]:
            return self.system.dirac(d.support[0])
        return None

    def within(self, configs) -> list:
        """The members whose support lies in `configs`."""
        if self.family is not None:
            return [m for m in self.family if all(c in configs for c in m.probs)]
        return [self.system.dirac(c) for c in configs]

    def candidate(self, m: ConfigDistribution, n: ConfigDistribution) -> bool:
        key = _pair_key(m, n)
        got = self.verdicts.get(key)
        if got is None:
            shapes = []
            for d in (m, n):
                sigs = {self.system.weak_enabled(c) for c in d.probs}
                shapes.append(sigs.pop() if len(sigs) == 1 else None)
            got = self.verdicts[key] = (
                (None in shapes or shapes[0] == shapes[1])
                and _clause_i(m, n, self.tol) is None)
        return got

    def blocks(self, entry: _Entry, name) -> Optional[set]:
        """The keys `name(m, n)` gives the pairs whose columns break the
        entry's Farkas vectors (None drops a pair), or None when its
        evidence fails whatever pairs are dead."""
        system = self.system
        pair = [self.member(d) for d in entry.pair]
        if None in pair:
            return None
        x, y = pair if entry.direction == "left" else pair[::-1]
        if entry.clause == "ii" and entry.attack is not None and len(entry.proof) == 1:
            attack = next((d for label, d in _strong_attacks(system, x, self.attacks)
                           if label == entry.label and d.digest == entry.attack.digest),
                          None)
            extremes = [(d, system.weak_extremes(d, entry.label)) for d in y.support]
            (farkas,) = entry.proof
            if attack is None:
                return None
            if farkas is None:
                return set() if not all(es for _, es in extremes) else None
            return self.lp_blocks(farkas, [(("L",), attack, 1)], y, extremes, False, name)
        if entry.clause != "iii":
            return None
        classes = tc_decompose(x, system).classes
        options = [matched for _, matched in _partial_matchings(classes, 0.0 + self.tol)]
        proof = dict(entry.proof)
        if len(classes) < 2 or set(proof) != set(options):
            return None
        extremes = [(d, system.weak_extremes(d, TAU)) for d in y.support]
        found = set()
        for matched in options:
            parts = [(("L", i), classes[i].dist, classes[i].weight) for i in matched]
            got = self.lp_blocks(proof[matched], parts, y, extremes,
                                 len(matched) < len(classes), name)
            if got is None:
                return None
            found |= got
        return found

    def lp_blocks(self, y: dict, parts, defender, extremes, free: bool,
                  name) -> Optional[set]:
        """`blocks` for one LP: the Farkas vector `y` against matching
        `parts`, each (row tag, distribution, weight), by weak moves of
        `defender`, whose extreme moves are `extremes`; `free` adds the
        columns for unmatched mass, as `_match_decomposition` does."""
        reached = {z for _, es in extremes for e in es for z in e.probs}
        target = [(("D", d.index), p) for d, p in defender]
        fixed = []  # the columns of moves, unmatched mass and identity carriers
        for d, es in extremes:
            fixed += [[(("D", d.index), 1)] + [(("R", z.index), -q) for z, q in e]
                      for e in es]
        if free:
            fixed += [[(("R", z.index), 1)] for z in reached]
        for tag, dist, weight in parts:
            target += [((*tag, c.index), weight * p) for c, p in dist]
            fixed += [[((*tag, c.index), 1), (("R", c.index), 1)]
                      for c in dist.probs if c in reached]
        if _dot(y, target)[0] >= 0 or any(_dot(y, col)[0] < 0 for col in fixed):
            return None
        # a pair column's product is that of its left part plus its right part's
        rights = [(n, _dot(y, ((("R", z.index), q) for z, q in n)))
                  for n in self.within(reached)]
        blocked = set()
        for tag, dist, _ in parts:
            for m in self.within(dist.probs):
                a, s = _dot(y, (((*tag, c.index), p) for c, p in m))
                for n, (b, t) in rights:
                    if a * t + b * s < 0:
                        key = name(m, n)
                        if key is not None:
                            blocked.add(key)
        return blocked


def _attack_exists(system: System, attacker: ConfigDistribution,
                   label: Label, attack: ConfigDistribution) -> bool:
    """Is the reported move a real (possibly weak) step of the attacker?"""
    try:
        for got_label, got in _strong_attacks(system, attacker, {}):
            if got_label == label and got.digest == attack.digest:
                return True
    except BudgetExceededError:
        pass
    # canonical evidence reports saturated derivatives of weak moves
    try:
        if label == TAU:
            return _saturate(system, attacker).digest == attack.digest
        if all(label in system.weak_enabled(c) for c in attacker.support):
            sat = _saturate(system, attacker)
            return _derivative(system, sat, label).digest == attack.digest
    except CyclicModelError:
        pass
    return False
