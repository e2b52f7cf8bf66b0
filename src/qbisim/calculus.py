"""Process terms: abstract syntax, parser, static checks and substitution.

Concrete syntax summary (see README for the full grammar):

    channels { c : {0, 1}; d : real }
    Coin(; q) := pchoice { 1/2 -> apply Set0[q] . nil ; 1/2 -> apply Set1[q] . nil }
    Main(; q) := (c?x . meas Mcomp[q; y] . c!y . nil || c!0 . nil) \\ {c}

Prefix binds tighter than restriction/relabelling, which bind tighter than
parallel, which binds tighter than summation.  `if b then t else u` is sugar
for `if b then t + if not b then u`.  Quantum channels are written `#name`;
`#c?q` binds q, `meas N[...; x]` and `c?x` bind x.  Bound names are renamed
at parse time after the height of their binder, the longest chain of
binders nested in its scope (`x$0`, `q$1`, ...; see `alpha_canonical`), so
alpha-equivalent inputs produce identical terms and stepping keeps them
canonical.  `$` is reserved for bound names: a free name may not contain it.

Two functions know the shape of every process construct: `_parts`, the one
list of a node's children, which the folds (`qv`, `fv`, `check_well_formed`,
`_call_sites`, binder heights) read, and `_rewrite`, the one walk that
substitutes values, renames qubits and renames binders canonically.  A new
construct is added to both, besides its class, the parser and the printers.

Classical values are reals and bit-strings; bit-string literals are written
in double quotes ("01", "" for the empty string).  The payload of an output
and the arguments of calls parse at atom level: write `c!(x + 1)` with
parentheses for arithmetic.
"""

from __future__ import annotations

import json
import math
import weakref
from fractions import Fraction

from .errors import EvaluationError, ParseError, WellFormednessError
from .quantum import DEFAULT_TOL, BitString

# ---------------------------------------------------------------------------
# node plumbing: hash-consing
#
# Every constructor returns the live node with the same shallow key: the
# class, the scalar fields and the child nodes themselves.  Children are
# consed before their parents, so structurally equal terms are the same
# object; equality is identity and hashing is O(arity).  The table is a
# plain dict from key to a weak reference to the node, so a term does not
# outlive its last user: the reference carries its key, and its callback
# deletes that key unless a newer node has taken it.  Nodes are immutable:
# never assign to a field of a built node.

_TABLE = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _drop(entry, table=_TABLE):
    # the table is bound here, so a callback run at interpreter exit still
    # reaches it after the module globals are cleared
    if table.get(entry.key) is entry:
        del table[entry.key]


def _cons(cls, fields, key=None):
    """The live `cls` node with these field values, built on a miss.

    `fields` follow `cls._fields`; `key` defaults to the class and the
    fields.  Callers validate before they cons, so a hit skips no check.
    """
    if key is None:
        key = (cls,) + fields
    entry = _TABLE.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        setattr(node, name, value)
    for name in cls._caches:
        setattr(node, name, None)
    entry = _TABLE[key] = _Entry(node, _drop)
    entry.key = key
    return node


class Node:
    __slots__ = ("__weakref__",)
    _fields = ()
    _caches = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # unpickling conses again, so it yields the live equal node
        return type(self), tuple(getattr(self, name) for name in self._fields)


# ---------------------------------------------------------------------------
# channels


class Channel(Node):
    """Classical or quantum channel name; quantum channels print as #name."""

    __slots__ = _fields = ("name", "quantum")

    def __new__(cls, name: str, quantum: bool = False):
        return _cons(cls, (name, bool(quantum)))

    def __str__(self):
        return ("#" if self.quantum else "") + self.name

    def __repr__(self):
        return f"Channel({self})"


# ---------------------------------------------------------------------------
# classical expressions

_REAL_EQ_TOL = DEFAULT_TOL


class Expr(Node):
    """A classical expression; its free variables are computed once, on
    first use."""

    __slots__ = _caches = ("_fv",)


class Lit(Expr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        if isinstance(value, bool) or isinstance(value, BitString):
            key = (cls, value)
        elif isinstance(value, (int, float)):
            value = float(value)
            # by repr: -0.0 stays apart from 0.0, and 1.0 from True
            key = (cls, "f", repr(value))
        else:
            raise TypeError(f"not a classical value: {value!r}")
        return _cons(cls, (value,), key)


class Var(Expr):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return _cons(cls, (name,))


class Unary(Expr):
    __slots__ = _fields = ("op", "operand")

    def __new__(cls, op: str, operand: Expr):
        return _cons(cls, (op, operand))


class Binary(Expr):
    __slots__ = _fields = ("op", "left", "right")

    def __new__(cls, op: str, left: Expr, right: Expr):
        return _cons(cls, (op, left, right))


class Fun(Expr):
    """Builtin classical function application (cmp, substr, remstr, ...)."""

    __slots__ = _fields = ("name", "args")

    def __new__(cls, name: str, args):
        return _cons(cls, (name, tuple(args)))


def format_value(v) -> str:
    if isinstance(v, BitString):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    raise TypeError(f"not a value: {v!r}")


def _as_bits(v, what):
    if not isinstance(v, BitString):
        raise EvaluationError(f"{what} expects a bit-string, got {format_value(v)}")
    return v


def _bits_cmp(k, ba, bb):
    if not (len(k) == len(ba) == len(bb)):
        raise EvaluationError("cmp expects three bit-strings of equal length")
    return BitString("".join(k[i] for i in range(len(k)) if ba[i] == bb[i]))


def _bits_substr(k, mask, keep):
    if len(mask) != len(k):
        raise EvaluationError(
            f"mask length {len(mask)} does not match string length {len(k)}"
        )
    return BitString("".join(ch for ch, m in zip(k, mask) if (m == "1") == keep))


_FUNCTIONS = {
    "cmp": (3, lambda k, a, b: _bits_cmp(_as_bits(k, "cmp"), _as_bits(a, "cmp"), _as_bits(b, "cmp"))),
    "substr": (2, lambda k, m: _bits_substr(_as_bits(k, "substr"), _as_bits(m, "substr"), True)),
    "remstr": (2, lambda k, m: _bits_substr(_as_bits(k, "remstr"), _as_bits(m, "remstr"), False)),
    "concat": (2, lambda a, b: BitString(_as_bits(a, "concat") + _as_bits(b, "concat"))),
    "length": (1, lambda k: float(len(_as_bits(k, "length")))),
}


def values_equal(a, b) -> bool:
    """Value equality: reals within tolerance, bit-strings exactly.

    Values of different kinds are unequal (never an error); the protocol
    models compare bit-strings of unequal length, which is simply false.
    """
    if isinstance(a, BitString) or isinstance(b, BitString):
        return isinstance(a, BitString) and isinstance(b, BitString) and str(a) == str(b)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return abs(a - b) <= _REAL_EQ_TOL


def eval_expr(expr: Expr, env=None):
    """Evaluate a closed expression (env supplies values for free variables)."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        if env and expr.name in env:
            return env[expr.name]
        raise EvaluationError(f"unbound variable {expr.name!r}")
    if isinstance(expr, Unary):
        v = eval_expr(expr.operand, env)
        if expr.op == "not":
            if not isinstance(v, bool):
                raise EvaluationError("'not' expects a boolean")
            return not v
        if expr.op == "-":
            if not isinstance(v, float):
                raise EvaluationError("unary '-' expects a real")
            return -v
        raise EvaluationError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Binary):
        op = expr.op
        if op in ("and", "or"):
            lv = eval_expr(expr.left, env)
            if not isinstance(lv, bool):
                raise EvaluationError(f"'{op}' expects booleans")
            if op == "and" and not lv:
                return False
            if op == "or" and lv:
                return True
            rv = eval_expr(expr.right, env)
            if not isinstance(rv, bool):
                raise EvaluationError(f"'{op}' expects booleans")
            return rv
        lv = eval_expr(expr.left, env)
        rv = eval_expr(expr.right, env)
        if op == "=":
            return values_equal(lv, rv)
        if op == "!=":
            return not values_equal(lv, rv)
        if op in ("<", "<=", ">", ">="):
            if not (isinstance(lv, float) and isinstance(rv, float)):
                raise EvaluationError(f"'{op}' expects reals")
            return {"<": lv < rv, "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[op]
        if op in ("+", "-", "*", "/"):
            if not (isinstance(lv, float) and isinstance(rv, float)):
                raise EvaluationError(f"'{op}' expects reals")
            if op == "/" and rv == 0.0:
                raise EvaluationError("division by zero")
            return {"+": lv + rv, "-": lv - rv, "*": lv * rv, "/": lv / rv}[op]
        raise EvaluationError(f"unknown operator {op!r}")
    if isinstance(expr, Fun):
        spec = _FUNCTIONS.get(expr.name)
        if spec is None:
            raise EvaluationError(f"unknown function {expr.name!r}")
        arity, fn = spec
        if len(expr.args) != arity:
            raise EvaluationError(f"{expr.name} expects {arity} arguments")
        return fn(*(eval_expr(a, env) for a in expr.args))
    raise EvaluationError(f"cannot evaluate {expr!r}")


def expr_free_vars(expr: Expr) -> frozenset:
    """Free variables of an expression, computed once per node."""
    got = expr._fv
    if got is None:
        if isinstance(expr, Var):
            got = frozenset((expr.name,))
        elif isinstance(expr, Unary):
            got = expr_free_vars(expr.operand)
        elif isinstance(expr, Binary):
            got = expr_free_vars(expr.left) | expr_free_vars(expr.right)
        elif isinstance(expr, Fun):
            got = frozenset().union(*map(expr_free_vars, expr.args))
        else:
            got = frozenset()
        expr._fv = got
    return got


def _rewrite_expr(expr: Expr, env) -> Expr:
    """`expr` with each free variable named in `env` replaced by the
    expression it maps to; unchanged when none of them is free."""
    if expr_free_vars(expr).isdisjoint(env):
        return expr
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Unary):
        return Unary(expr.op, _rewrite_expr(expr.operand, env))
    if isinstance(expr, Binary):
        return Binary(expr.op, _rewrite_expr(expr.left, env), _rewrite_expr(expr.right, env))
    return Fun(expr.name, tuple(_rewrite_expr(a, env) for a in expr.args))


# ---------------------------------------------------------------------------
# actions


class Action(Node):
    __slots__ = ()


class Tau(Action):
    __slots__ = ()

    def __new__(cls):
        return _cons(cls, ())


class CIn(Action):
    """Classical input c?x; binds x in the continuation."""

    __slots__ = _fields = ("chan", "var")

    def __new__(cls, chan: Channel, var: str):
        return _cons(cls, (chan, var))


class COut(Action):
    __slots__ = _fields = ("chan", "expr")

    def __new__(cls, chan: Channel, expr: Expr):
        return _cons(cls, (chan, expr))


class QIn(Action):
    """Quantum input #c?q; binds q in the continuation."""

    __slots__ = _fields = ("chan", "qvar")

    def __new__(cls, chan: Channel, qvar: str):
        return _cons(cls, (chan, qvar))


class QOut(Action):
    __slots__ = _fields = ("chan", "qvar")

    def __new__(cls, chan: Channel, qvar: str):
        return _cons(cls, (chan, qvar))


class Apply(Action):
    """Super-operator application E[q1, ..., qk]."""

    __slots__ = _fields = ("op", "qubits")

    def __new__(cls, op: str, qubits):
        qubits = tuple(qubits)
        if len(set(qubits)) != len(qubits):
            raise WellFormednessError(f"apply {op}: repeated qubit in {qubits}")
        return _cons(cls, (op, qubits))


class Meas(Action):
    """Measurement M[q1, ..., qk; x]; binds x in the continuation."""

    __slots__ = _fields = ("op", "qubits", "var")

    def __new__(cls, op: str, qubits, var: str):
        qubits = tuple(qubits)
        if len(set(qubits)) != len(qubits):
            raise WellFormednessError(f"meas {op}: repeated qubit in {qubits}")
        return _cons(cls, (op, qubits, var))


# ---------------------------------------------------------------------------
# processes


class Process(Node):
    """A process term; its free names are computed once, on first use."""

    __slots__ = _caches = ("_qv", "_fv")


class Nil(Process):
    __slots__ = ()

    def __new__(cls):
        return _cons(cls, ())


NIL = Nil()


class Call(Process):
    __slots__ = _fields = ("name", "cargs", "qargs")

    def __new__(cls, name: str, cargs=(), qargs=()):
        qargs = tuple(qargs)
        if len(set(qargs)) != len(qargs):
            raise WellFormednessError(f"{name}: repeated quantum argument in {qargs}")
        return _cons(cls, (name, tuple(cargs), qargs))


class Prefix(Process):
    __slots__ = _fields = ("action", "cont")

    def __new__(cls, action: Action, cont: Process):
        return _cons(cls, (action, cont))


class Sum(Process):
    __slots__ = _fields = ("parts",)

    def __new__(cls, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("Sum needs at least two parts")
        return _cons(cls, (parts,))


class Par(Process):
    __slots__ = _fields = ("parts",)

    def __new__(cls, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("Par needs at least two parts")
        return _cons(cls, (parts,))


class Restrict(Process):
    __slots__ = _fields = ("body", "channels")

    def __new__(cls, body: Process, channels):
        return _cons(cls, (body, frozenset(channels)))


class Relabel(Process):
    __slots__ = _fields = ("body", "mapping")

    def __new__(cls, body: Process, mapping):
        # mapping: ordered (old, new) channel pairs; kinds must agree
        pairs = tuple(mapping)
        seen = set()
        for old, new in pairs:
            if old.quantum != new.quantum:
                raise WellFormednessError(f"relabel {old} -> {new} changes the channel kind")
            if old in seen:
                raise WellFormednessError(f"relabel maps {old} twice")
            seen.add(old)
        return _cons(cls, (body, pairs))


def rename_channel(mapping: tuple, chan: Channel) -> Channel:
    """`chan` under the (old, new) pairs of a relabelling's `mapping`."""
    for old, new in mapping:
        if old is chan:
            return new
    return chan


class If(Process):
    __slots__ = _fields = ("cond", "body")

    def __new__(cls, cond: Expr, body: Process):
        return _cons(cls, (cond, body))


class PChoice(Process):
    """Syntax-level probabilistic choice; exact rational weights summing to one."""

    __slots__ = _fields = ("branches",)

    def __new__(cls, branches, tol: float = DEFAULT_TOL):
        branches = tuple((Fraction(p), t) for p, t in branches)
        if not branches:
            raise ValueError("pchoice needs at least one branch")
        total = sum(p for p, _ in branches)
        if abs(total - 1.0) > tol:
            raise WellFormednessError(f"pchoice weights sum to {total}, expected 1")
        if any(p <= 0.0 for p, _ in branches):
            raise WellFormednessError("pchoice weights must be positive")
        return _cons(cls, (branches,))


class Definition(Node):
    """Process constant A(cparams; qparams) := body, the body in canonical
    form (`alpha_canonical`), so an unfolding is canonical too."""

    __slots__ = _fields = ("name", "cparams", "qparams", "body")

    def __new__(cls, name, cparams, qparams, body):
        cparams, qparams = tuple(cparams), tuple(qparams)
        if len(set(qparams)) != len(qparams):
            raise WellFormednessError(f"{name}: repeated quantum parameter")
        if len(set(cparams)) != len(cparams):
            raise WellFormednessError(f"{name}: repeated classical parameter")
        for param in cparams + qparams:
            _check_free_name(param, f"{name}: parameter")
        return _cons(cls, (name, cparams, qparams, alpha_canonical(body)))


# ---------------------------------------------------------------------------
# structure: the children of a node and the folds over them


def _parts(term: Process) -> tuple:
    """The child processes of a process node, in order.

    The one place that lists them: the folds below, binder heights and
    `_rewrite` read a node's children from here and handle only what the
    node adds itself.
    """
    if isinstance(term, Prefix):
        return (term.cont,)
    if isinstance(term, (Sum, Par)):
        return term.parts
    if isinstance(term, (Restrict, Relabel, If)):
        return (term.body,)
    if isinstance(term, PChoice):
        return tuple(t for _, t in term.branches)
    if isinstance(term, (Nil, Call)):
        return ()
    raise TypeError(f"not a process: {term!r}")


def _joined(fold, term: Process) -> frozenset:
    """The union of `fold` over the children of `term`; a single child's
    set is shared, not copied."""
    kids = _parts(term)
    if len(kids) == 1:
        return fold(kids[0])
    return frozenset().union(*map(fold, kids))


def qv(term: Process) -> frozenset:
    """Free quantum variables of a term, computed once per node."""
    got = term._qv
    if got is None:
        got = term._qv = _qv(term)
    return got


def _qv(term: Process) -> frozenset:
    if isinstance(term, Call):
        return frozenset(term.qargs)
    got = _joined(qv, term)
    if isinstance(term, Prefix):
        act = term.action
        if isinstance(act, QIn):
            return got - {act.qvar}
        if isinstance(act, QOut):
            return got | {act.qvar}
        if isinstance(act, (Apply, Meas)):
            return got | frozenset(act.qubits)
    return got


def fv(term: Process) -> frozenset:
    """Free classical variables of a term, computed once per node."""
    got = term._fv
    if got is None:
        got = term._fv = _fv(term)
    return got


def _fv(term: Process) -> frozenset:
    if isinstance(term, Call):
        return frozenset().union(*map(expr_free_vars, term.cargs))
    got = _joined(fv, term)
    if isinstance(term, If):
        return got | expr_free_vars(term.cond)
    if isinstance(term, Prefix):
        act = term.action
        if isinstance(act, (CIn, Meas)):
            return got - {act.var}
        if isinstance(act, COut):
            return got | expr_free_vars(act.expr)
    return got


def _call_sites(term: Process):
    """(name, classical arity, quantum arity) of each call in a term."""
    if isinstance(term, Call):
        yield term.name, len(term.cargs), len(term.qargs)
    for kid in _parts(term):
        yield from _call_sites(kid)


def check_well_formed(term: Process, where: str = "term") -> None:
    """Enforce the quantum-variable discipline.

    Sending a qubit forbids keeping it (`#c!q.P` needs q not free in P) and
    parallel components may not share free qubits.
    """
    if isinstance(term, Prefix):
        act = term.action
        if isinstance(act, QOut) and act.qvar in qv(term.cont):
            raise WellFormednessError(
                f"{where}: qubit {act.qvar} is sent on {act.chan} but still used afterwards"
            )
    kids = _parts(term)
    for kid in kids:
        check_well_formed(kid, where)
    if isinstance(term, Par):
        seen = [qv(p) for p in kids]
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                shared = seen[i] & seen[j]
                if shared:
                    raise WellFormednessError(
                        f"{where}: parallel components share qubits {sorted(shared)}"
                    )


# ---------------------------------------------------------------------------
# rewriting: substitution and canonical renaming
#
# `$` is reserved for bound names: no free name (a definition parameter, a
# free name of a parsed or built term, a register qubit) may contain it, so
# a canonical bound name never captures a free one.

_BOUND_SEP = "$"


def _check_free_name(name: str, what: str) -> None:
    """Reject a free name that could clash with a canonical bound name."""
    if _BOUND_SEP in name:
        raise WellFormednessError(
            f"{what} {name!r}: '{_BOUND_SEP}' is reserved for bound names")


def _renamed(names, ren) -> tuple:
    return tuple(ren.get(n, n) for n in names)


def _bind(env, old, new):
    """`env` in the scope of a binder of `old`: `old` maps to `new`, or is
    shadowed when `new` is None."""
    if new is not None:
        return {**env, old: new}
    return {k: v for k, v in env.items() if k != old} if old in env else env


def _rewrite(term: Process, cenv, qenv, fresh=None) -> Process:
    """`term` with free variables replaced by the expressions `cenv` maps
    them to and free qubits renamed by `qenv`.

    Without `fresh`, a binder keeps its name and shadows both maps, and a
    term in which nothing mapped is free comes back unchanged.  With it,
    a binder whose scope is P is renamed x$h or q$h, h = fresh(P).
    """
    if fresh is None and (not cenv or fv(term).isdisjoint(cenv)) and (
            not qenv or qv(term).isdisjoint(qenv)):
        return term
    if isinstance(term, Call):
        return Call(term.name, tuple(_rewrite_expr(e, cenv) for e in term.cargs),
                    _renamed(term.qargs, qenv))
    kids = _parts(term)
    if isinstance(term, Prefix):
        act, (cont,) = term.action, kids
        if isinstance(act, QIn):
            new = None if fresh is None else f"q{_BOUND_SEP}{fresh(cont)}"
            act, qenv = QIn(act.chan, new or act.qvar), _bind(qenv, act.qvar, new)
        elif isinstance(act, (CIn, Meas)):
            new = None if fresh is None else f"x{_BOUND_SEP}{fresh(cont)}"
            cenv = _bind(cenv, act.var, None if new is None else Var(new))
            act = (CIn(act.chan, new or act.var) if isinstance(act, CIn)
                   else Meas(act.op, _renamed(act.qubits, qenv), new or act.var))
        elif isinstance(act, COut):
            act = COut(act.chan, _rewrite_expr(act.expr, cenv))
        elif isinstance(act, QOut):
            act = QOut(act.chan, qenv.get(act.qvar, act.qvar))
        elif isinstance(act, Apply):
            act = Apply(act.op, _renamed(act.qubits, qenv))
        return Prefix(act, _rewrite(cont, cenv, qenv, fresh))
    kids = tuple(_rewrite(k, cenv, qenv, fresh) for k in kids)
    if isinstance(term, (Sum, Par)):
        return type(term)(kids)
    if isinstance(term, Restrict):
        return Restrict(kids[0], term.channels)
    if isinstance(term, Relabel):
        return Relabel(kids[0], term.mapping)
    if isinstance(term, If):
        return If(_rewrite_expr(term.cond, cenv), kids[0])
    if isinstance(term, PChoice):
        return PChoice(zip((p for p, _ in term.branches), kids), tol=math.inf)
    return term


def subst_values(term: Process, env) -> Process:
    """Substitute classical values for free variables; a term in which no
    substituted variable is free comes back unchanged."""
    return _rewrite(term, {name: Lit(v) for name, v in env.items()}, {})


def subst_qubits(term: Process, ren) -> Process:
    """Rename free quantum variables (used by constant unfolding and input);
    a term in which no renamed qubit is free comes back unchanged."""
    return _rewrite(term, {}, ren)


def alpha_canonical(term: Process) -> Process:
    """Name every bound variable by the height of its binder.

    A binder's height is the length of the longest chain of nested binders
    in its scope.  Each `c?x` and `meas ...; x` binder is renamed x$h and
    each `#c?q` binder q$h, where h is its height.  A height depends only on
    the binder's scope, so alpha-equivalent terms map to the identical node,
    every subterm of a canonical term is canonical, and substituting a
    closed value or a free qubit name keeps a term canonical: step targets
    need no renaming.  Binders inside a scope are lower than its owner and
    binders around it higher, so no name captures another.  A canonical
    term comes back as the identical object.
    """
    for name in fv(term) | qv(term):
        _check_free_name(name, "free name")
    heights = {}

    def height(t):
        got = heights.get(t)
        if got is None:
            got = heights[t] = max(map(height, _parts(t)), default=0) + (
                isinstance(t, Prefix) and isinstance(t.action, (CIn, Meas, QIn)))
        return got

    return _rewrite(term, {}, {}, height)


# ---------------------------------------------------------------------------
# pretty printer (canonical concrete syntax; parse(pretty(t)) == t)

_PREC_SUM, _PREC_PAR, _PREC_POST, _PREC_PRIM = 0, 1, 2, 3


def _fmt_expr(e: Expr, tight: bool = False) -> str:
    if isinstance(e, Lit):
        return format_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Fun):
        return f"{e.name}({', '.join(_fmt_expr(a) for a in e.args)})"
    if isinstance(e, Unary):
        inner = _fmt_expr(e.operand, tight=True)
        return f"not {inner}" if e.op == "not" else f"-{inner}"
    if isinstance(e, Binary):
        s = f"{_fmt_expr(e.left, tight=True)} {e.op} {_fmt_expr(e.right, tight=True)}"
        return f"({s})" if tight else s
    raise TypeError(f"not an expression: {e!r}")


def _fmt_action(a: Action) -> str:
    if isinstance(a, Tau):
        return "tau"
    if isinstance(a, CIn):
        return f"{a.chan}?{a.var}"
    if isinstance(a, COut):
        return f"{a.chan}!{_fmt_expr(a.expr, tight=True)}"
    if isinstance(a, QIn):
        return f"{a.chan}?{a.qvar}"
    if isinstance(a, QOut):
        return f"{a.chan}!{a.qvar}"
    if isinstance(a, Apply):
        return f"apply {a.op}[{', '.join(a.qubits)}]"
    if isinstance(a, Meas):
        return f"meas {a.op}[{', '.join(a.qubits)}; {a.var}]"
    raise TypeError(f"not an action: {a!r}")


def _fmt_weight(p: Fraction) -> str:
    frac = p.limit_denominator(10 ** 9)
    if abs(float(frac) - p) < 1e-12:
        return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
    return repr(float(p))


def pretty(term: Process, prec: int = _PREC_SUM) -> str:
    if isinstance(term, Nil):
        return "nil"
    if isinstance(term, Call):
        if not term.cargs and not term.qargs:
            return term.name
        cs = ", ".join(_fmt_expr(e) for e in term.cargs)
        qs = ", ".join(term.qargs)
        return f"{term.name}({cs}; {qs})" if qs else f"{term.name}({cs})"
    if isinstance(term, Prefix):
        s = f"{_fmt_action(term.action)} . {pretty(term.cont, _PREC_PRIM)}"
        return f"({s})" if prec > _PREC_PRIM else s
    if isinstance(term, Sum):
        s = " + ".join(pretty(p, _PREC_PAR) for p in term.parts)
        return f"({s})" if prec > _PREC_SUM else s
    if isinstance(term, Par):
        s = " || ".join(pretty(p, _PREC_POST) for p in term.parts)
        return f"({s})" if prec > _PREC_PAR else s
    if isinstance(term, Restrict):
        chans = ", ".join(sorted(str(c) for c in term.channels))
        s = f"{pretty(term.body, _PREC_POST)} \\ {{{chans}}}"
        return f"({s})" if prec > _PREC_POST else s
    if isinstance(term, Relabel):
        pairs = ", ".join(f"{o} -> {n}" for o, n in term.mapping)
        s = f"{pretty(term.body, _PREC_POST)} [{pairs}]"
        return f"({s})" if prec > _PREC_POST else s
    if isinstance(term, If):
        s = f"if {_fmt_expr(term.cond)} then {pretty(term.body, _PREC_PRIM)}"
        return f"({s})" if prec > _PREC_PRIM else s
    if isinstance(term, PChoice):
        body = " ; ".join(f"{_fmt_weight(p)} -> {pretty(t)}" for p, t in term.branches)
        return f"pchoice {{ {body} }}"
    raise TypeError(f"not a process: {term!r}")


# ---------------------------------------------------------------------------
# JSON export


def action_json(a: Action) -> dict:
    if isinstance(a, Tau):
        return {"kind": "tau"}
    if isinstance(a, CIn):
        return {"kind": "input", "channel": str(a.chan), "binds": a.var}
    if isinstance(a, COut):
        return {"kind": "output", "channel": str(a.chan), "expr": _fmt_expr(a.expr)}
    if isinstance(a, QIn):
        return {"kind": "qinput", "channel": str(a.chan), "binds": a.qvar}
    if isinstance(a, QOut):
        return {"kind": "qoutput", "channel": str(a.chan), "qubit": a.qvar}
    if isinstance(a, Apply):
        return {"kind": "apply", "op": a.op, "qubits": list(a.qubits)}
    if isinstance(a, Meas):
        return {"kind": "meas", "op": a.op, "qubits": list(a.qubits), "binds": a.var}
    raise TypeError(f"not an action: {a!r}")


def term_json(term: Process) -> dict:
    if isinstance(term, Nil):
        return {"node": "nil"}
    if isinstance(term, Call):
        return {"node": "call", "name": term.name,
                "cargs": [_fmt_expr(e) for e in term.cargs], "qargs": list(term.qargs)}
    if isinstance(term, Prefix):
        return {"node": "prefix", "action": action_json(term.action),
                "cont": term_json(term.cont)}
    if isinstance(term, Sum):
        return {"node": "sum", "parts": [term_json(p) for p in term.parts]}
    if isinstance(term, Par):
        return {"node": "par", "parts": [term_json(p) for p in term.parts]}
    if isinstance(term, Restrict):
        return {"node": "restrict", "channels": sorted(str(c) for c in term.channels),
                "body": term_json(term.body)}
    if isinstance(term, Relabel):
        return {"node": "relabel", "mapping": [[str(o), str(n)] for o, n in term.mapping],
                "body": term_json(term.body)}
    if isinstance(term, If):
        return {"node": "if", "cond": _fmt_expr(term.cond), "body": term_json(term.body)}
    if isinstance(term, PChoice):
        return {"node": "pchoice",
                "branches": [{"weight": float(p), "term": term_json(t)} for p, t in term.branches]}
    raise TypeError(f"not a process: {term!r}")


def module_json(module: "Module") -> dict:
    return {
        "channels": {
            name: (list(map(format_value, dom)) if dom is not None else "real")
            for name, dom in sorted(module.channel_domains.items())
        },
        "registry": list(module.registry_sources),
        "definitions": {
            name: {
                "cparams": list(d.cparams),
                "qparams": list(d.qparams),
                "body": term_json(d.body),
            }
            for name, d in sorted(module.definitions.items())
        },
    }


def module_json_str(module: "Module") -> str:
    return json.dumps(module_json(module), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# lexer

_KEYWORDS = {
    "nil", "tau", "if", "then", "else", "pchoice", "apply", "meas",
    "channels", "registry", "real", "true", "false", "and", "or", "not",
}

_TWO_CHAR = (":=", "->", "!=", "<=", ">=", "||")
_ONE_CHAR = "(){}[]\\,;:.?!=+-*/<>#"


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.value!r}"


def _lex(text: str):
    text = text.replace("→", "->")
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string literal", line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line, col)
            tokens.append(_Token("STR", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$'"):
                j += 1
            word = text[i:j]
            kind = "KW" if word in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(_Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser


class Module:
    """A parsed source file: definitions plus channel/registry declarations."""

    def __init__(self, definitions=None, channel_domains=None, registry_sources=()):
        self.definitions = dict(definitions or {})
        self.channel_domains = dict(channel_domains or {})
        self.registry_sources = tuple(registry_sources)

    def define(self, d: Definition):
        if d.name in self.definitions:
            raise WellFormednessError(f"process {d.name} defined twice")
        self.definitions[d.name] = d

    def check(self):
        """Static checks over every definition body."""
        for d in self.definitions.values():
            check_well_formed(d.body, where=d.name)
            bad_q = qv(d.body) - set(d.qparams)
            if bad_q:
                raise WellFormednessError(
                    f"{d.name}: body uses undeclared qubits {sorted(bad_q)}"
                )
            bad_c = fv(d.body) - set(d.cparams)
            if bad_c:
                raise WellFormednessError(
                    f"{d.name}: body uses unbound variables {sorted(bad_c)}"
                )
            for name, cn, qn in _call_sites(d.body):
                self.callee(name, cn, qn, where=d.name)

    def callee(self, name: str, cn: int, qn: int, where: str = "term") -> Definition:
        """The definition a call of `name` with `cn` classical and `qn`
        quantum arguments unfolds; WellFormednessError if there is none."""
        target = self.definitions.get(name)
        if target is None:
            raise WellFormednessError(f"{where}: call to undefined process {name}")
        if (cn, qn) != (len(target.cparams), len(target.qparams)):
            raise WellFormednessError(
                f"{where}: call to {name} with arity ({cn}; {qn}), "
                f"defined with ({len(target.cparams)}; {len(target.qparams)})")
        return target


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    # -- token helpers

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind, value=None):
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind, value=None):
        tok = self.peek()
        if not self.at(kind, value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- module level

    def module(self):
        mod = Module()
        while not self.at("EOF"):
            if self.at("KW", "channels"):
                self.channels_block(mod)
            elif self.at("KW", "registry"):
                self.next()
                if not self.at("STR"):
                    self.fail("registry expects a quoted file path")
                mod.registry_sources += (self.next().value,)
            else:
                self.definition(mod)
        return mod

    def channels_block(self, mod):
        self.next()
        self.expect("{")
        while not self.at("}"):
            name = self.expect("IDENT").value
            self.expect(":")
            if self.at("KW", "real"):
                self.next()
                domain = None
            else:
                self.expect("{")
                values = []
                while not self.at("}"):
                    values.append(self.value_literal())
                    if self.at(","):
                        self.next()
                self.expect("}")
                domain = tuple(values)
            if name in mod.channel_domains:
                self.fail(f"channel {name} declared twice")
            mod.channel_domains[name] = domain
            if self.at(";"):
                self.next()
        self.expect("}")

    def value_literal(self):
        if self.at("NUM"):
            return float(self.next().value)
        if self.at("STR"):
            return self.bits_token()
        if self.at("-"):
            self.next()
            return -float(self.expect("NUM").value)
        self.fail("expected a number or bit-string literal")

    def bits_token(self):
        tok = self.expect("STR")
        try:
            return BitString(tok.value)
        except ValueError:
            raise ParseError(f"bit-string literal may only contain 0/1: {tok.value!r}",
                             tok.line, tok.col) from None

    def definition(self, mod):
        name = self.expect("IDENT").value
        cparams, qparams = (), ()
        if self.at("("):
            self.next()
            cparams, qparams = self.param_lists()
            self.expect(")")
        self.expect(":=")
        mod.define(Definition(name, cparams, qparams, self.term()))

    def param_lists(self):
        cparams, qparams = [], []
        if not self.at(")"):
            if not self.at(";"):
                cparams.append(self.expect("IDENT").value)
                while self.at(","):
                    self.next()
                    cparams.append(self.expect("IDENT").value)
            if self.at(";"):
                self.next()
                if not self.at(")"):
                    qparams.append(self.expect("IDENT").value)
                    while self.at(","):
                        self.next()
                        qparams.append(self.expect("IDENT").value)
        return tuple(cparams), tuple(qparams)

    # -- terms, by descending precedence

    def term(self):
        parts = [self.par_term()]
        while self.at("+"):
            self.next()
            parts.append(self.par_term())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def par_term(self):
        parts = [self.postfix_term()]
        while self.at("||"):
            self.next()
            parts.append(self.postfix_term())
        return parts[0] if len(parts) == 1 else Par(tuple(parts))

    def postfix_term(self):
        t = self.primary()
        while True:
            if self.at("\\"):
                self.next()
                self.expect("{")
                chans = []
                while not self.at("}"):
                    chans.append(self.channel())
                    if self.at(","):
                        self.next()
                self.expect("}")
                t = Restrict(t, chans)
            elif self.at("["):
                self.next()
                mapping = []
                while not self.at("]"):
                    old = self.channel()
                    self.expect("->")
                    new = self.channel()
                    mapping.append((old, new))
                    if self.at(","):
                        self.next()
                self.expect("]")
                t = Relabel(t, mapping)
            else:
                return t

    def channel(self):
        if self.at("#"):
            self.next()
            return Channel(self.expect("IDENT").value, quantum=True)
        return Channel(self.expect("IDENT").value, quantum=False)

    def primary(self):
        if self.at("KW", "nil"):
            self.next()
            return NIL
        if self.at("("):
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if self.at("KW", "if"):
            return self.if_term()
        if self.at("KW", "pchoice"):
            return self.pchoice_term()
        if self.at("KW", "tau") or self.at("KW", "apply") or self.at("KW", "meas") or self.at("#"):
            return self.prefix_term()
        if self.at("IDENT"):
            # input/output prefix or a constant call
            if self.peek(1).kind in ("?", "!"):
                return self.prefix_term()
            return self.call_term()
        self.fail(f"unexpected token {self.peek().value!r} in process position")

    def if_term(self):
        self.expect("KW", "if")
        cond = self.expr()
        self.expect("KW", "then")
        body = self.primary()
        if self.at("KW", "else"):
            self.next()
            other = self.primary()
            return Sum((If(cond, body), If(Unary("not", cond), other)))
        return If(cond, body)

    def pchoice_term(self):
        self.expect("KW", "pchoice")
        self.expect("{")
        branches = []
        while not self.at("}"):
            w = self.weight()
            self.expect("->")
            branches.append((w, self.term()))
            if self.at(";"):
                self.next()
        self.expect("}")
        try:
            return PChoice(tuple(branches))
        except (WellFormednessError, ValueError) as exc:
            self.fail(str(exc))

    def weight(self):
        num = Fraction(self.expect("NUM").value)
        if self.at("/"):
            self.next()
            den = Fraction(self.expect("NUM").value)
            if den == 0:
                self.fail("zero denominator in weight")
            return num / den
        return num

    def prefix_term(self):
        act = self.action()
        self.expect(".")
        cont = self.primary()
        return Prefix(act, cont)

    def action(self):
        if self.at("KW", "tau"):
            self.next()
            return Tau()
        if self.at("KW", "apply"):
            self.next()
            op = self.expect("IDENT").value
            self.expect("[")
            qubits = [self.expect("IDENT").value]
            while self.at(","):
                self.next()
                qubits.append(self.expect("IDENT").value)
            self.expect("]")
            return Apply(op, qubits)
        if self.at("KW", "meas"):
            self.next()
            op = self.expect("IDENT").value
            self.expect("[")
            qubits = [self.expect("IDENT").value]
            while self.at(","):
                self.next()
                qubits.append(self.expect("IDENT").value)
            self.expect(";")
            var = self.expect("IDENT").value
            self.expect("]")
            return Meas(op, qubits, var)
        chan = self.channel()
        if self.at("?"):
            self.next()
            name = self.expect("IDENT").value
            return QIn(chan, name) if chan.quantum else CIn(chan, name)
        if self.at("!"):
            self.next()
            if chan.quantum:
                return QOut(chan, self.expect("IDENT").value)
            return COut(chan, self.atom_expr())
        self.fail(f"expected ? or ! after channel {chan}")

    def call_term(self):
        name = self.expect("IDENT").value
        cargs, qargs = (), ()
        if self.at("("):
            self.next()
            cargs, qargs = self.arg_lists()
            self.expect(")")
        return Call(name, cargs, qargs)

    def arg_lists(self):
        cargs, qargs = [], []
        if not self.at(")"):
            if not self.at(";"):
                cargs.append(self.expr())
                while self.at(","):
                    self.next()
                    cargs.append(self.expr())
            if self.at(";"):
                self.next()
                if not self.at(")"):
                    qargs.append(self.expect("IDENT").value)
                    while self.at(","):
                        self.next()
                        qargs.append(self.expect("IDENT").value)
        return tuple(cargs), tuple(qargs)

    # -- expressions

    def expr(self):
        left = self.and_expr()
        while self.at("KW", "or"):
            self.next()
            left = Binary("or", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.cmp_expr()
        while self.at("KW", "and"):
            self.next()
            left = Binary("and", left, self.cmp_expr())
        return left

    def cmp_expr(self):
        left = self.arith_expr()
        for op in ("!=", "<=", ">=", "=", "<", ">"):
            if self.at(op):
                self.next()
                return Binary(op, left, self.arith_expr())
        return left

    def arith_expr(self):
        left = self.mul_expr()
        while self.at("+") or self.at("-"):
            op = self.next().value
            left = Binary(op, left, self.mul_expr())
        return left

    def mul_expr(self):
        left = self.unary_expr()
        while self.at("*") or self.at("/"):
            op = self.next().value
            left = Binary(op, left, self.unary_expr())
        return left

    def unary_expr(self):
        if self.at("-"):
            self.next()
            return Unary("-", self.unary_expr())
        if self.at("KW", "not"):
            self.next()
            return Unary("not", self.unary_expr())
        return self.atom_expr()

    def atom_expr(self):
        if self.at("NUM"):
            return Lit(float(self.next().value))
        if self.at("STR"):
            return Lit(self.bits_token())
        if self.at("KW", "true"):
            self.next()
            return Lit(True)
        if self.at("KW", "false"):
            self.next()
            return Lit(False)
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if self.at("IDENT"):
            name = self.next().value
            if self.at("("):
                self.next()
                args = []
                if not self.at(")"):
                    args.append(self.expr())
                    while self.at(","):
                        self.next()
                        args.append(self.expr())
                self.expect(")")
                if name not in _FUNCTIONS:
                    self.fail(f"unknown function {name!r}")
                if len(args) != _FUNCTIONS[name][0]:
                    self.fail(f"{name} expects {_FUNCTIONS[name][0]} arguments")
                return Fun(name, args)
            return Var(name)
        self.fail(f"unexpected token {self.peek().value!r} in expression")


def parse_module(text: str) -> Module:
    """Parse a source file into a Module and run static checks."""
    mod = _Parser(_lex(text)).module()
    mod.check()
    return mod


def parse_term(text: str) -> Process:
    """Parse a single process term (canonically renamed)."""
    parser = _Parser(_lex(text))
    term = parser.term()
    parser.expect("EOF")
    return alpha_canonical(term)
