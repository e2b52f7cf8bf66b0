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
definitions and is used for small systems and for replaying refutations.
The saturated engine applies only to certified systems (acyclic, free of
visible quantum input, every visibly-enabled configuration internally inert,
and confluent as proved by the local-diamond criterion of
`confluence_check`); there, every internal interleaving of a distribution
shares one canonical saturation, so matching collapses to comparing
saturated transition-consistent classes.  That collapse is what keeps
protocol-sized witnesses small enough to re-verify.

Soundness of relation verdicts rests on three facts about the convex
closure: lifted transitions are linear and left-decomposable, the canonical
tc-decomposition of a convex mixture groups by the same signatures as its
components, and identity pairs satisfy every clause.  A verified finite
family therefore certifies its whole convex closure (implicit identity
pairs included), which is the relation the reports describe.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    CyclicModelError,
    QuantumInputFragmentError,
)
from .lp import combination_weights
from .quantum import _matrix_digest, random_superoperator, trace_distance
from .semantics import (
    TAU,
    ConfigDistribution,
    Configuration,
    Label,
    PLTS,
    System,
    combine,
)

_ATTACK_CAP = 4096      # extreme strong moves enumerated per distribution
_SUBSET_CAP = 4096      # matched-class subsets tried per lambda decomposition
_FAMILY_CAP = 512       # distributions kept by relation-search mode


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


def _clause_i(x: ConfigDistribution, y: ConfigDistribution, bound: float) -> Optional[str]:
    """Why (x, y) breaks clause (i) with environments `bound` apart, or None."""
    held_x, held_y = x.held_qubits(), y.held_qubits()
    if held_x != held_y:
        return f"quantum variables differ: {sorted(held_x)} vs {sorted(held_y)}"
    dist = _env_distance(x, y)
    if dist > bound:
        return f"environment trace distance {dist:.6g} exceeds {bound:.6g}"
    return None


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
    """
    system = _system_of(context)
    mu = _as_dist(system, mu)
    groups = {}
    for c, p in mu:
        bucket = groups.setdefault(system.weak_enabled(c), {})
        bucket[c] = bucket.get(c, 0) + p
    classes = []
    for sig in sorted(groups, key=_sig_key):
        probs = groups[sig]
        w = sum(probs.values())
        classes.append(TcClass(w, ConfigDistribution(
            {c: p / w for c, p in probs.items()}), sig))
    return TcDecomposition(mu, tuple(classes))


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


def _first_choice(key, n: int) -> int:
    return 0


def _last_choice(key, n: int) -> int:
    return n - 1


class _ClassForm(NamedTuple):
    signature: frozenset
    weight: float
    qv: frozenset
    dist: ConfigDistribution
    children: tuple  # ((label, _Form), ...) in label order


class _Form(NamedTuple):
    sat: ConfigDistribution
    classes: tuple  # _ClassForm in signature order


class _Canon:
    """Canonical-scheduler engine: saturation, derivatives, behaviour forms.

    The scheduler resolves internal nondeterminism per configuration with
    `chooser` (first-transition by default) and saturates each support
    configuration independently; on confluent systems (`confluence_check`)
    every schedule agrees with this one.  All tables memoize against the
    owning system's interned configurations.
    """

    _MISSING = object()

    def __init__(self, system: System, chooser=_first_choice):
        self.system = system
        self.chooser = chooser
        self._sat = {}
        self._der = {}
        self._forms = {}

    def config_sat(self, config: Configuration) -> ConfigDistribution:
        got = self._sat.get(config, self._MISSING)
        if got is self._MISSING:
            self._sat[config] = None
            taus = self.system.tau_transitions(config)
            if not taus:
                got = self.system.dirac(config)
            else:
                t = taus[self.chooser(config, len(taus))]
                self.system._spend(len(t.dist.probs))
                got = combine((q, self.config_sat(d)) for d, q in t.dist)
            self._sat[config] = got
        elif got is None:
            raise CyclicModelError(
                "internal cycle during canonical saturation; "
                "the canonical scheduler needs an acyclic internal graph")
        return got

    def saturate(self, dist: ConfigDistribution) -> ConfigDistribution:
        return combine((p, self.config_sat(c)) for c, p in dist)

    def derivative(self, dist: ConfigDistribution, label: Label) -> ConfigDistribution:
        """Fire `label` on every support configuration, then saturate.

        Defined on saturated distributions whose support all enables the
        label; support configurations are internally inert there, so the
        weakly enabled label is a strong transition.
        """
        key = (dist.digest, label)
        got = self._der.get(key)
        if got is None:
            parts = []
            for c, p in dist:
                moves = [t for t in self.system.step(c) if t.label == label]
                t = moves[self.chooser((c, label), len(moves))]
                parts.append((p, t.dist))
            got = self._der[key] = self.saturate(combine(parts))
        return got

    def form(self, dist: ConfigDistribution) -> _Form:
        sat = self.saturate(dist)
        got = self._forms.get(sat.digest)
        if got is None:
            decomp = tc_decompose(sat, self.system)
            classes = []
            for cls in decomp.classes:
                children = []
                for label in sorted(cls.signature, key=str):
                    children.append((label, self.form(self.derivative(cls.dist, label))))
                classes.append(_ClassForm(cls.signature, cls.weight,
                                          cls.dist.held_qubits(), cls.dist,
                                          tuple(children)))
            got = self._forms[sat.digest] = _Form(sat, tuple(classes))
        return got


# ---------------------------------------------------------------------------
# certification: the preconditions of the canonical collapse


def _prepare(system: System, dists, max_configs=None) -> list:
    """Reachable configurations, with the decidable-fragment checks.

    Raises when a visible quantum input is reachable (the decision
    procedures cover the quantum-input-free fragment; inputs synchronised
    away under restriction are internal and fine) or when the graph has a
    cycle.
    """
    roots = [c for d in dists for c in d.support]
    configs = system.reachable(roots, max_configs=max_configs)
    for c in configs:
        for t in system.step(c):
            if t.label.kind == Label.QIN:
                raise QuantumInputFragmentError(
                    f"reachable visible quantum input {t.label} at {c!r}; "
                    "restrict the channel or use the relation checkers")
    if not system.is_acyclic(roots):
        raise CyclicModelError("the reachable transition graph has a cycle")
    return configs


def _confluent_at(canon: _Canon, config: Configuration) -> bool:
    """Do all moves of `config` with one label saturate to one distribution?

    For internal moves that distribution is `canon.config_sat(config)`,
    the saturation through the first one.  A configuration with at most
    one move per label passes without saturating anything.
    """
    by_label = {}
    for t in canon.system.step(config):
        by_label.setdefault(t.label, []).append(t.dist)
    return all(len({canon.saturate(d).digest for d in dists}) == 1
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
    canon = _Canon(system)
    return all(_confluent_at(canon, c) for c in configs)


def _certified(system: System, configs) -> tuple:
    """(canon, ok, reason): is the canonical collapse justified here?

    Certified means tau-normal (no visibly-enabled configuration has
    internal moves) and confluent in the sense of `confluence_check`,
    decided over the reachable `configs`; only configurations with two
    moves under one label are saturated.  `canon` is the query's one
    first-choice table, which the engines that run next share.
    """
    canon = _Canon(system)
    branching = []
    for c in configs:
        moves = system.step(c)
        labels = {t.label for t in moves}
        if TAU in labels and len(labels) > 1:
            return canon, False, "a visibly-enabled configuration has internal moves"
        if len(labels) < len(moves):
            branching.append(c)
    if not branching:
        return canon, True, "certified: scheduling is deterministic"
    if all(_confluent_at(canon, c) for c in branching):
        return canon, True, "certified: confluence proved by local diamonds"
    return canon, False, "nondeterminism is not confluent"


# ---------------------------------------------------------------------------
# feasibility queries: convex-closure membership and weak-move matching


def _closure_columns(pairs, left: ConfigDistribution, row=("L",), right=None) -> tuple:
    """LP columns spanning the convex closure of `pairs` plus identity pairs.

    A pair column puts its left side on the `row`-tagged rows and its right
    side on the ("R", index) rows; an identity carrier does both for one
    configuration of supp(left).  The left rows only ever receive
    nonnegative mass, so a pair reaching outside supp(left) can carry no
    weight and is dropped, which is exact; with `right` given, the same
    holds for the right side and supp(right).  Returns the columns and,
    for each, the position in `pairs` it came from (None for a carrier).
    """
    inside = {c.index for c in left.support}
    within = None if right is None else {d.index for d in right.support}
    columns = []
    origins = []
    for k, (mk, nk) in enumerate(pairs):
        if any(c.index not in inside for c in mk.support):
            continue
        if within is not None and any(d.index not in within for d in nk.support):
            continue
        col = {row + (c.index,): p for c, p in mk}
        col.update((("R", d.index), q) for d, q in nk)
        columns.append(col)
        origins.append(k)
    for c in left.support:
        if right is None or right.probability(c) > 0:
            columns.append({row + (c.index,): 1.0, ("R", c.index): 1.0})
            origins.append(None)
    return columns, origins


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


def _feasible(columns, origins, target, used) -> bool:
    """Is `target` a nonnegative combination of `columns`?

    `origins` gives the position of the relation pair behind each of the
    leading columns, or None for an identity carrier.  When the combination
    exists and `used` is a set, the positions of the pairs whose columns
    carry positive weight in it are added to `used`.
    """
    x = combination_weights(columns, target)
    if x is None:
        return False
    if used is not None:
        used.update(k for k, w in zip(origins, x) if w and k is not None)
    return True


def _member_lin(pairs, mu: ConfigDistribution, nu: ConfigDistribution) -> bool:
    """Is (mu, nu) a convex combination of `pairs` plus identity pairs?"""
    target = {("L", c.index): p for c, p in mu}
    target.update((("R", d.index), q) for d, q in nu)
    columns, origins = _closure_columns(pairs, mu, right=nu)
    return _feasible(columns, origins, target, None)


def _weak_extremes(system: System, config: Configuration, label: Label):
    if label == TAU:
        return system.weak_tau_extremes(config)
    return system.weak_visible_extremes(config, label)


def _point_index(pairs) -> dict:
    """x -> {y: position} for the pairs (dirac x, dirac y) of `pairs`.

    Both sides must be one configuration of mass exactly 1, so the pair's
    column is the unit column of (x, y); a repeated pair keeps its first
    position.  Built once per relation, beside it, for `_coupling_answer`.
    """
    index = {}
    for k, (a, b) in enumerate(pairs):
        if len(a.probs) == 1 == len(b.probs):
            ((x, p),) = a.probs.items()
            ((y, q),) = b.probs.items()
            if p == 1 == q:
                index.setdefault(x, {}).setdefault(y, k)
    return index


def _coupling_answer(attack: ConfigDistribution, defender: ConfigDistribution,
                     per_config, points: dict, used) -> bool:
    """Does a weak move of the defender answer `attack` by a one-to-one
    coupling along identity and related point pairs?

    True when the defender is one configuration with mass exactly 1 and
    one of its extreme weak moves e in `per_config` admits a bijection
    sigma from supp(attack) onto supp(e) with attack(x) == e(sigma(x)),
    where each sigma(x) is x itself or (dirac x, dirac sigma(x)) is a pair
    of the relation (`points`, see `_point_index`).  The matching LP of
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


def _match_weak(system: System, pairs, points: dict, attack: ConfigDistribution,
                defender: ConfigDistribution, label: Label, used=None) -> bool:
    """Can the defender weakly answer `attack` inside the relation's closure?

    Searches for a weak hatted `label` derivative nu' of `defender` with
    (attack, nu') in the convex closure of `pairs` plus identities.  Weak
    derivatives of a distribution factor per support configuration (lifted
    transitions are linear and left-decomposable), so nu' ranges over
    independent convex mixtures of each configuration's extreme weak moves;
    the whole question is one exact-rational feasibility problem.  When a
    point defender has an extreme weak move that a one-to-one coupling
    along identity pairs and the point pairs `points` of `pairs` relates to
    the attack (`_coupling_answer`), that coupling solves the problem and
    no LP is solved; otherwise the LP decides.  Either way the positions of
    the pairs the match relies on go into `used` (see `_feasible`).
    """
    per_config = []
    for d in defender.support:
        extremes = _weak_extremes(system, d, label)
        if not extremes:
            return False
        per_config.append((d, extremes))
    if _coupling_answer(attack, defender, per_config, points, used):
        return True
    columns, origins = _closure_columns(pairs, attack)
    target = {("L", c.index): p for c, p in attack}
    target.update((("D", d.index), p) for d, p in defender)
    return _feasible(columns + _extreme_columns(per_config), origins, target, used)


def _match_decomposition(system: System, pairs, decomp: TcDecomposition,
                         defender: ConfigDistribution, lam: float, tol: float,
                         used=None) -> bool:
    """Can the defender internally split to match the attacker's classes?

    Searches for a weak tau derivative of `defender` of the form
    sum_i p_i nu_i with (mu_i, nu_i) in the closure for every matched class
    and at most `lam` attacker mass unmatched.  Matched subsets are tried in
    order of decreasing matched mass.  The positions of the pairs the first
    feasible split relies on go into `used`.
    """
    classes = decomp.classes
    per_config = [(d, system.weak_tau_extremes(d)) for d in defender.support]
    extreme_columns = _extreme_columns(per_config)
    free_keys = {("R", y.index)
                 for _, extremes in per_config for e in extremes for y, _ in e}
    # defender mass on unmatched classes
    free_columns = [{key: 1.0} for key in sorted(free_keys, key=repr)]

    def feasible(matched):
        columns = []
        origins = []
        for i in matched:
            block, block_origins = _closure_columns(pairs, classes[i].dist, row=("L", i))
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
        return _feasible(columns, origins, target, used)

    indices = range(len(classes))
    options = []
    for r in range(len(classes), -1, -1):
        for matched in itertools.combinations(indices, r):
            unmatched_mass = sum(classes[i].weight for i in indices if i not in matched)
            if unmatched_mass <= lam + tol:
                options.append((unmatched_mass, matched))
            if len(options) > _SUBSET_CAP:
                raise BudgetExceededError(
                    "too many matched-class subsets", budget=_SUBSET_CAP)
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
    support = dist.support
    found = {}

    options = []
    for c in support:
        options.append([system.dirac(c)] +
                       [t.dist for t in system.tau_transitions(c)])
    total = 1
    for opts in options:
        total *= len(opts)
        if total > _ATTACK_CAP:
            raise BudgetExceededError(
                "attack enumeration exceeded the cap", budget=_ATTACK_CAP)
    first = True
    for pick in itertools.product(*options):
        if first:
            first = False
            continue
        moved = combine((dist.probability(c), d) for c, d in zip(support, pick))
        found.setdefault((TAU, moved.digest), (TAU, moved))

    shared = None
    for c in support:
        labels = {t.label for t in system.visible_transitions(c)}
        shared = labels if shared is None else shared & labels
        if not shared:
            break
    for label in sorted(shared or (), key=str):
        options = [[t.dist for t in system.step(c) if t.label == label]
                   for c in support]
        total = 1
        for opts in options:
            total *= len(opts)
            if total > _ATTACK_CAP:
                raise BudgetExceededError(
                    "attack enumeration exceeded the cap", budget=_ATTACK_CAP)
        for pick in itertools.product(*options):
            moved = combine((dist.probability(c), d) for c, d in zip(support, pick))
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


def _violation(system: System, rel, points: dict, x: ConfigDistribution,
               y: ConfigDistribution, lam: float, tol: float, attack_cache: dict,
               used=None) -> Optional[dict]:
    """The first clause (ii) or (iii) obligation of x, attacking y, that the
    closure of `rel` fails to meet, as CheckReport fields; None if all hold.
    `points` is `_point_index(rel)`.

    Clause (ii): every extreme strong move of x has a weak match by y.
    Clause (iii): when x is not transition consistent, an internal split of
    y matches its canonical classes with at most `lam` mass unmatched.
    The positions in `rel` of the pairs the matches rely on go into `used`.
    """
    for label, attack in _strong_attacks(system, x, attack_cache):
        if not _match_weak(system, rel, points, attack, y, label, used):
            return dict(clause="ii", label=label, attack=attack,
                        detail=f"strong {label} move has no weak match in the closure")
    if not is_transition_consistent(x, system):
        if not _match_decomposition(system, rel, tc_decompose(x, system), y, lam, tol,
                                    used):
            return dict(clause="iii", label=TAU,
                        detail="no internal split of the defending side matches the "
                               "transition-consistent classes within the allowed mass")
    return None


def _check_exhaustive(system: System, relation: RelationCandidate,
                      lam: float, tol: float) -> CheckReport:
    rel = _oriented(relation.pairs)
    points = _point_index(rel)
    attack_cache = {}
    for x, y in rel:
        detail = _clause_i(x, y, lam + tol)
        if detail is not None:
            return CheckReport(False, "exhaustive", clause="i", pair=(x, y),
                               lam=lam, tol=tol, detail=detail)
        bad = _violation(system, rel, points, x, y, lam, tol, attack_cache)
        if bad is not None:
            return CheckReport(False, "exhaustive", pair=(x, y), lam=lam, tol=tol,
                               direction="left", **bad)
    return CheckReport(True, "exhaustive", lam=lam, tol=tol, witness=relation,
                       detail=f"{len(rel)} oriented pairs verified by enumeration")


def _check_saturated(canon: _Canon, relation: RelationCandidate,
                     lam: float, tol: float, certificate: str) -> CheckReport:
    system = canon.system
    rel = _oriented(relation.pairs)
    digests = {(a.digest, b.digest) for a, b in rel}
    memo = {}

    def related(a, b):
        key = (a.digest, b.digest)
        if key[0] == key[1] or key in digests:
            return True
        got = memo.get(key)
        if got is None:
            got = memo[key] = _member_lin(rel, a, b)
        return got

    for x, y in rel:
        detail = _clause_i(x, y, lam + tol)
        if detail is not None:
            return CheckReport(False, "saturated", clause="i", pair=(x, y),
                               lam=lam, tol=tol, detail=detail)

        sx, sy = canon.saturate(x), canon.saturate(y)
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
                attack=canon.derivative(side, odd),
                detail=f"whole-distribution move {odd} is enabled on one side only")
        for label in sorted(shared_x, key=str):
            dx, dy = canon.derivative(x, label), canon.derivative(y, label)
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
                if not related(canon.derivative(cls.dist, label),
                               canon.derivative(partner.dist, label)):
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
                       detail=f"{len(rel)} oriented pairs verified; {certificate}")


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

    `mode` picks the engine: "exhaustive" enumerates attacks literally,
    "saturated" uses the canonical collapse and requires certification,
    "auto" certifies and falls back to enumeration.  Certification proves
    tau-normality and the local-diamond criterion of `confluence_check`
    on the graph the pairs reach, so a witness from a system that is not
    confluent is checked by enumeration, not by the collapse.
    """
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    relation = RelationCandidate.coerce(relation, system)
    if not relation.pairs:
        return CheckReport(True, "exhaustive", lam=lam, tol=tol,
                           witness=relation, detail="empty relation holds vacuously")

    if mode == "exhaustive":
        return _check_exhaustive(system, relation, lam, tol)
    roots = [c for pair in relation.pairs for d in pair for c in d.support]
    configs = system.reachable(roots)
    quantum_input = any(
        t.label.kind == Label.QIN for c in configs for t in system.step(c))
    if mode == "saturated":
        if quantum_input:
            raise QuantumInputFragmentError(
                "saturated checking covers the quantum-input-free fragment")
        if not system.is_acyclic(roots):
            raise CyclicModelError("saturated checking needs an acyclic graph")
        canon, ok, why = _certified(system, configs)
        return _check_saturated(canon, relation, lam, tol,
                                why if ok else f"forced ({why})")
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    if not quantum_input and system.is_acyclic(roots):
        canon, ok, why = _certified(system, configs)
        if ok:
            return _check_saturated(canon, relation, lam, tol, why)
    return _check_exhaustive(system, relation, lam, tol)


def check_ground_bisim_relation(relation, context, tol: float = None,
                                mode: str = "auto") -> CheckReport:
    """Verify a candidate ground bisimulation (lambda 0)."""
    return check_lambda_relation(relation, 0.0, context, tol=tol, mode=mode)


# ---------------------------------------------------------------------------
# deciding distribution bisimilarity


def _compare_forms(canon: _Canon, fl: _Form, fr: _Form, tol: float,
                   pairs: list, seen: set):
    """Structural equality of behaviour forms, with failure evidence.

    Returns None when the forms agree within tolerance, recording every
    compared pair of distributions in `pairs`; otherwise returns the
    failing CheckReport fragment as a dict of keyword arguments.
    """
    key = (fl.sat.digest, fr.sat.digest)
    if key in seen:
        return None
    seen.add(key)
    pairs.append((fl.sat, fr.sat))

    detail = _clause_i(fl.sat, fr.sat, tol)
    if detail is not None:
        return dict(clause="i", pair=(fl.sat, fr.sat), detail=detail)

    by_sig_l = {cls.signature: cls for cls in fl.classes}
    by_sig_r = {cls.signature: cls for cls in fr.classes}
    for sig, cls, side, other in (
            [(c.signature, c, "left", by_sig_r) for c in fl.classes] +
            [(c.signature, c, "right", by_sig_l) for c in fr.classes]):
        if sig in other:
            continue
        visible = sorted((l for l in sig if l.visible), key=str)
        if visible:
            evidence = (cls.dist, fr.sat) if side == "left" else (fl.sat, cls.dist)
            return dict(clause="ii", direction=side, label=visible[0],
                        pair=evidence,
                        attack=canon.derivative(cls.dist, visible[0]),
                        detail=f"class with weight {float(cls.weight):.6g} enables "
                               f"{visible[0]} on the {side} side only")
        return dict(clause="iii", direction=side, pair=(fl.sat, fr.sat),
                    detail=f"the {side} side can stall silently with mass "
                           f"{float(cls.weight):.6g}, the other side cannot")

    for sig in sorted(by_sig_l, key=_sig_key):
        cl, cr = by_sig_l[sig], by_sig_r[sig]
        if abs(cl.weight - cr.weight) > tol:
            return dict(clause="iii", pair=(fl.sat, fr.sat),
                        detail=f"class {list(_sig_key(sig))} has weight "
                               f"{float(cl.weight):.6g} vs {float(cr.weight):.6g}")
        detail = _clause_i(cl.dist, cr.dist, tol)
        if detail is not None:
            return dict(clause="i", pair=(cl.dist, cr.dist), detail=f"class {detail}")
        pairs.append((cl.dist, cr.dist))
        for (label, child_l), (_, child_r) in zip(cl.children, cr.children):
            bad = _compare_forms(canon, child_l, child_r, tol, pairs, seen)
            if bad is not None:
                return bad

    if len(fl.classes) > 1:
        # whole-distribution moves shared by every class, so the witness
        # carries their mixed derivatives as literal pairs
        shared = frozenset.intersection(*(c.signature for c in fl.classes))
        for label in sorted(shared, key=str):
            pairs.append((canon.derivative(fl.sat, label),
                          canon.derivative(fr.sat, label)))
    return None


def _decide_canonical(canon: _Canon, mu, nu, tol: float, certificate: str) -> CheckReport:
    pairs = [(mu, nu)]

    detail = _clause_i(mu, nu, tol)
    if detail is not None:
        return CheckReport(False, "canonical", clause="i", pair=(mu, nu), tol=tol,
                           detail=f"{detail}; {certificate}")

    bad = _compare_forms(canon, canon.form(mu), canon.form(nu), tol, pairs, set())
    if bad is not None:
        bad.setdefault("pair", (mu, nu))
        detail = bad.pop("detail", "")
        return CheckReport(False, "canonical", tol=tol,
                           detail=f"{detail}; {certificate}", **bad)
    witness = RelationCandidate(_unique_pairs(pairs))
    return CheckReport(True, "canonical", tol=tol, witness=witness,
                       detail=f"behaviour forms coincide; {certificate}")


def _pair_violation(system: System, rel, points: dict, a: ConfigDistribution,
                    b: ConfigDistribution, tol: float, attack_cache: dict,
                    used=None) -> Optional[dict]:
    """`_violation` at lambda 0 in both orientations of (a, b), with the
    attacking side as `direction`."""
    for x, y, side in ((a, b, "left"), (b, a, "right")):
        bad = _violation(system, rel, points, x, y, 0.0, tol, attack_cache, used)
        if bad is not None:
            return dict(bad, direction=side)
    return None


def _ground_fixpoint(system: System, members: list, tol: float,
                     attack_cache: dict) -> set:
    """Index pairs (i, j), i <= j, of `members` in the greatest fixpoint.

    Candidates are the pairs meeting clause (i) whose transition-consistent
    members agree on their weak visible sets (tc members related in any
    ground bisimulation must).  Clause (i) reads only the held qubits and
    the environment matrix of each side, so members with the same held
    qubits and bitwise-equal environments form one environment class, and
    `_clause_i` runs once per pair of classes, on their first members:
    bitwise-equal inputs give the same answer, and so does swapping the
    sides, since `_env_distance` is bit-identical under swapping.  (Equal
    10-decimal digests would not do: the trace distance reads the exact
    matrices.)

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
    greatest fixpoint, so the result is that fixpoint.  The relation and
    its point-pair index (`_point_index`) are rebuilt once per deletion.
    Rounds visit the pending pairs in sorted order, so the result and the
    LPs solved do not depend on hash order.
    """
    shapes = []
    env_class = []   # per member, its environment class
    delegates = []   # per environment class, its first member
    classes = {}
    for m in members:
        sigs = {system.weak_enabled(c) for c in m.support}
        shapes.append(sigs.pop() if len(sigs) == 1 else None)
        key = (m.held_qubits(), _environment(m)[1].tobytes())
        if key not in classes:
            classes[key] = len(delegates)
            delegates.append(m)
        env_class.append(classes[key])
    meets = {}       # sorted pair of classes -> does it meet clause (i)?
    alive = set()
    for i in range(len(members)):
        for j in range(i, len(members)):
            if (shapes[i] is not None and shapes[j] is not None
                    and shapes[i] != shapes[j]):
                continue
            key = tuple(sorted((env_class[i], env_class[j])))
            ok = meets.get(key)
            if ok is None:
                ok = meets[key] = _clause_i(delegates[key[0]], delegates[key[1]],
                                            tol) is None
            if ok:
                alive.add((i, j))

    rel = owners = points = None
    deps = {}    # survivor -> the pairs its last check relied on
    users = {}   # pair -> the survivors whose last check relied on it
    pending = set(alive)
    while pending:
        for key in sorted(pending):
            pending.discard(key)
            if key not in alive:
                continue
            if rel is None:
                rel, owners = [], []
                for i, j in sorted(alive):
                    for x, y in ((i, j), (j, i)) if i != j else ((i, i),):
                        rel.append((members[x], members[y]))
                        owners.append((i, j))
                points = _point_index(rel)
            for q in deps.pop(key, ()):
                users.get(q, set()).discard(key)
            used = set()
            i, j = key
            if _pair_violation(system, rel, points, members[i], members[j], tol,
                               attack_cache, used) is None:
                deps[key] = {owners[k] for k in used}
                for q in deps[key]:
                    users.setdefault(q, set()).add(key)
            else:
                alive.discard(key)
                pending |= users.pop(key, set())
                rel = None
    return alive


def _refine(system: System, members: list, mu, nu, tol: float, mode: str) -> CheckReport:
    """Greatest fixpoint of the ground clauses over pairs of `members`.

    The verdict is whether (mu, nu), both members, survives
    `_ground_fixpoint`; the survivors are the witness.  A refutation names
    the first clause (mu, nu) violates against the survivors.
    """
    attack_cache = {}
    alive = _ground_fixpoint(system, members, tol, attack_cache)
    survivors = [(members[i], members[j]) for i, j in sorted(alive)]
    pos = {m.digest: k for k, m in enumerate(members)}
    if tuple(sorted((pos[mu.digest], pos[nu.digest]))) in alive or mu.digest == nu.digest:
        return CheckReport(True, mode, tol=tol, witness=RelationCandidate(tuple(survivors)),
                           detail=f"{len(alive)} pairs survive over a family of "
                                  f"{len(members)} distributions")
    detail = _clause_i(mu, nu, tol)
    if detail is not None:
        return CheckReport(False, mode, clause="i", pair=(mu, nu), tol=tol, detail=detail)
    rel = _oriented(survivors) + ((mu, nu), (nu, mu))
    bad = _pair_violation(system, rel, _point_index(rel), mu, nu, tol, attack_cache) or {}
    detail = bad.pop("detail", "deleted during refinement")
    return CheckReport(False, mode, pair=(mu, nu), tol=tol, detail=detail, **bad)


def _relation_search(canon: _Canon, mu, nu, tol: float) -> CheckReport:
    """Refinement over a finite family of reachable distributions.

    The family holds the queried pair, every point distribution, every
    one-step target, canonical saturations, and the canonical classes of
    each member.  Complete only as far as the family reaches, which covers
    the acyclic desk-scale systems this mode is meant for.
    """
    system = canon.system
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
        add(canon.saturate(d))
    for d in list(family.values()):
        for cls in tc_decompose(d, system).classes:
            add(cls.dist)
    members = sorted(family.values(), key=lambda d: d.digest)
    return _refine(system, members, mu, nu, tol, "relation-search")


@_query
def decide_bisim(mu, nu, context, tol: float = None, mode: str = "auto") -> CheckReport:
    """Decide distribution-based ground bisimilarity of two distributions.

    Preconditions: the reachable graph is acyclic and free of visible
    quantum input.  Canonical mode compares behaviour forms under the
    canonical scheduler, which is complete on certified systems;
    relation-search mode runs the greatest-fixpoint refinement.  "auto"
    certifies first and picks accordingly; the report records the mode.
    Certification proves that scheduling cannot change the canonical
    answers: the system is tau-normal and meets the local-diamond
    criterion of `confluence_check` at every reachable configuration.
    """
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    mu, nu = _as_dist(system, mu), _as_dist(system, nu)
    configs = _prepare(system, (mu, nu))
    if mode not in ("auto", "canonical", "relation-search"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "relation-search":
        return _relation_search(_Canon(system), mu, nu, tol)
    canon, ok, why = _certified(system, configs)
    if mode == "canonical":
        return _decide_canonical(canon, mu, nu, tol,
                                 why if ok else f"forced canonical ({why})")
    if ok:
        return _decide_canonical(canon, mu, nu, tol, why)
    return _relation_search(canon, mu, nu, tol)


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
    quantum-input-free systems.
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
    criterion of `confluence_check`), walks both canonical behaviour forms
    in parallel and takes the maximum over all visited pairs of the
    environment trace distance and the transition-consistent class mass
    left unmatched; the per-node matched subset is chosen greedily to
    minimise that maximum.
    The visited pairs form a witness passing `check_lambda_relation` at the
    returned value.  Elsewhere the bound degrades to 0 (when relation-search
    proves bisimilarity) or the trivial 1.
    """
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    mu, nu = _as_dist(system, mu), _as_dist(system, nu)
    configs = _prepare(system, (mu, nu))
    canon, ok, why = _certified(system, configs)
    if not ok:
        report = _relation_search(canon, mu, nu, tol)
        if report.holds:
            return DistanceBound(0.0, report.witness, "relation-search",
                                 detail=f"bisimilar by refinement; {why}")
        return DistanceBound(1.0, RelationCandidate(()), "relation-search",
                             detail=f"trivial bound; {why}; {report.detail}")

    memo = {}
    annotations = []

    def rec(fl: _Form, fr: _Form):
        key = (fl.sat.digest, fr.sat.digest)
        got = memo.get(key)
        if got is not None:
            return got
        node_pairs = [(fl.sat, fr.sat)]
        if fl.sat.held_qubits() != fr.sat.held_qubits():
            got = memo[key] = (1.0, ())
            return got
        lam = _env_distance(fl.sat, fr.sat)

        shared_l = frozenset.intersection(*(c.signature for c in fl.classes))
        shared_r = frozenset.intersection(*(c.signature for c in fr.classes))
        if shared_l != shared_r:
            got = memo[key] = (1.0, ())
            return got
        for label in sorted(shared_l, key=str):
            sub, sub_pairs = rec(canon.form(canon.derivative(fl.sat, label)),
                                 canon.form(canon.derivative(fr.sat, label)))
            lam = max(lam, sub)
            node_pairs.extend(sub_pairs)

        by_sig_r = {c.signature: c for c in fr.classes}
        candidates = []
        for cl in fl.classes:
            cr = by_sig_r.get(cl.signature)
            if cr is None or cl.qv != cr.qv:
                continue
            env = _env_distance(cl.dist, cr.dist)
            pairs_s = [(cl.dist, cr.dist)]
            worst = env
            for (label, child_l), (_, child_r) in zip(cl.children, cr.children):
                sub, sub_pairs = rec(child_l, child_r)
                worst = max(worst, sub)
                pairs_s.extend(sub_pairs)
            candidates.append((worst, min(cl.weight, cr.weight),
                               _sig_key(cl.signature), cl.signature, pairs_s))

        # pick the prefix (by per-class cost) minimising the overall maximum
        candidates.sort(key=lambda item: (item[0], item[2]))
        best_lam, best_k = 1.0, 0
        for k in range(len(candidates), -1, -1):
            matched_mass = sum(item[1] for item in candidates[:k])
            cost = max([1.0 - matched_mass] + [item[0] for item in candidates[:k]])
            if cost <= best_lam:
                best_lam, best_k = cost, k
        lam = max(lam, best_lam)
        for item in candidates[:best_k]:
            node_pairs.extend(item[4])
        annotations.append({
            "pair": [_dist_json(fl.sat), _dist_json(fr.sat)],
            "matched": [list(item[2]) for item in candidates[:best_k]],
            "dropped": [list(_sig_key(c.signature)) for c in fl.classes
                        if c.signature not in {item[3] for item in candidates[:best_k]}],
            "unmatched_mass": max(0.0, 1.0 - sum(item[1] for item in candidates[:best_k])),
            "env_distance": _env_distance(fl.sat, fr.sat),
        })
        got = memo[key] = (lam, tuple(node_pairs))
        return got

    if mu.held_qubits() != nu.held_qubits():
        return DistanceBound(1.0, RelationCandidate(()), "canonical",
                             detail="quantum variables differ; no lambda relates them")
    lam = _env_distance(mu, nu)
    sub, pairs = rec(canon.form(mu), canon.form(nu))
    lam = max(lam, sub)
    if lam >= 1.0:
        return DistanceBound(1.0, RelationCandidate(()), "canonical",
                             detail=f"no matching found; {why}")
    witness = RelationCandidate(_unique_pairs([(mu, nu)] + list(pairs)))
    return DistanceBound(lam, witness, "canonical", detail=why,
                         annotations=tuple(annotations))


# ---------------------------------------------------------------------------
# super-operator closure sampling


def superop_closure_sample_test(relation, context, samples: int = 20,
                                seed: int = 0, tol: float = None,
                                kraus_count: int = 2) -> CheckReport:
    """Sample random channels on unheld qubits and re-check the relation.

    Each sample draws one trace-preserving map on the qubits no pair's
    support holds, applies it to every configuration of every pair, and
    re-runs the ground check on the transformed family (one map per sample
    keeps the auxiliary pairs coherent with the pairs they serve).  For
    quantum-input-free processes a complement channel commutes with every
    transition rule, so validity is provably preserved; the sampling gives
    direct evidence for that and covers relations with quantum inputs,
    where it can genuinely fail.  Full quantification over all channels is
    not enumerable, so a pass is evidence, not proof; a failure names the
    counterexample channel.
    """
    system = _system_of(context)
    tol = system.tol if tol is None else tol
    relation = RelationCandidate.coerce(relation, system)

    held = frozenset()
    for a, b in relation.pairs:
        held |= a.held_qubits() | b.held_qubits()
    complement = [q for q in system.register.names if q not in held]
    if not complement:
        return CheckReport(True, "sampled-closure", tol=tol, witness=relation,
                           detail="no untouched qubits; closure holds vacuously")

    rng = np.random.default_rng(seed)
    for i in range(samples):
        sop = random_superoperator(rng, len(complement), kraus_count,
                                   name=f"sample{i}")
        transformed = []
        for a, b in relation.pairs:
            mapped = []
            for dist in (a, b):
                probs = {}
                for c, p in dist:
                    nc = system._intern(c.term, sop.apply(
                        c.matrix, system.register, complement))
                    probs[nc] = probs.get(nc, 0) + p
                mapped.append(ConfigDistribution(probs))
            transformed.append(tuple(mapped))
        inner = check_lambda_relation(RelationCandidate(tuple(transformed)),
                                      0.0, system, tol=tol)
        if not inner.holds:
            return CheckReport(
                False, "sampled-closure", tol=tol, clause=inner.clause,
                pair=inner.pair, direction=inner.direction, label=inner.label,
                attack=inner.attack,
                detail=f"channel sample {i} (seed {seed}) on {complement} broke "
                       f"the relation: {inner.detail}")
    return CheckReport(True, "sampled-closure", tol=tol, witness=relation,
                       detail=f"{samples} random trace-preserving channels on "
                              f"{complement} preserved the relation (seed {seed}); "
                              "statistical evidence only")


# ---------------------------------------------------------------------------
# refutation replay


@_query
def replay_refutation(report: CheckReport, context, max_configs: int = 5000) -> bool:
    """Re-derive a refutation independently of the engine that produced it.

    Confirms the reported evidence against the raw semantics: clause (i)
    violations are recomputed from the configurations, reported moves must
    exist in the transition graph, and decomposition evidence must name a
    genuine inconsistency.  When the reachable graph fits in `max_configs`,
    the offending pair is additionally re-decided by a second procedure
    (a re-scheduled canonical run, the fixpoint refinement, or a fresh
    state-based decision).  Used by the test suite on every refutation.
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
                         max_configs=max_configs)
    except BudgetExceededError:
        # too large to re-decide; stand on the directly verified evidence
        return confirmed

    if report.mode == "state-based":
        (a,) = x.support
        (b,) = y.support
        return not decide_state_based(a, b, system, tol=tol).holds
    if lam > 0.0:
        fresh = check_lambda_relation([(x, y)], lam, system, tol=tol)
        return not fresh.holds
    if report.mode == "canonical":
        fresh = _decide_canonical(_Canon(system, _last_choice), x, y, tol, "replay")
        return not fresh.holds
    return not decide_bisim(x, y, system, tol=tol, mode="relation-search").holds


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
        canon = _Canon(system)
        if label == TAU:
            return canon.saturate(attacker).digest == attack.digest
        if all(label in system.weak_enabled(c) for c in attacker.support):
            sat = canon.saturate(attacker)
            return canon.derivative(sat, label).digest == attack.digest
    except (CyclicModelError, BudgetExceededError):
        pass
    return False
