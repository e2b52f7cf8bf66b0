"""Density operators, super-operators and measurements on named qubit registers.

A register is an ordered set of qubit names; the tensor layout is fixed by
sorting names lexicographically, with the first name on the most significant
bit of the basis index.  States are dense complex density matrices over the
full register.  Operations act on a subset of wires and are embedded on
demand (and cached) into the full space.

Classical values in the rest of the toolkit are either reals (floats) or
`BitString`s; bit-strings appear here because layered measurements report
their outcome as one bit-string value.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownOperationError
from .linalg import jacobi_eigvalsh

DEFAULT_TOL = 1e-9

# support entries and measurement outcomes below this mass are dropped
PRUNE_EPS = 1e-12

_SQRT2 = math.sqrt(2.0)

_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0 / _SQRT2, 1.0 / _SQRT2], dtype=complex),
    "-": np.array([1.0 / _SQRT2, -1.0 / _SQRT2], dtype=complex),
}


class BitString(str):
    """Classical bit-string value; the empty string is the valid epsilon."""

    __slots__ = ()

    def __new__(cls, chars=""):
        s = str(chars)
        if any(ch not in "01" for ch in s):
            raise ValueError(f"not a bit-string: {s!r}")
        return super().__new__(cls, s)

    def __repr__(self):
        return '"' + str.__str__(self) + '"'


def _freeze(mat: np.ndarray) -> np.ndarray:
    mat = np.ascontiguousarray(mat, dtype=complex)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class QubitRegister:
    """Ordered qubit names; order is canonical (lexicographic)."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate qubit names: {self.names}")
        # `$` is reserved for bound names (`qbisim.calculus.alpha_canonical`)
        if any("$" in name for name in self.names):
            raise ValueError(f"qubit names may not contain '$': {self.names}")
        if list(self.names) != sorted(self.names):
            raise ValueError(f"register names must be sorted: {self.names}")

    @staticmethod
    def of(names) -> "QubitRegister":
        return QubitRegister(tuple(sorted(set(names))))

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return 2 ** len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"qubit {name!r} not in register {self.names}") from None

    def positions(self, names) -> tuple[int, ...]:
        return tuple(self.position(n) for n in names)

    def without(self, names) -> "QubitRegister":
        gone = set(names)
        return QubitRegister(tuple(n for n in self.names if n not in gone))

    def __contains__(self, name) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)


def ket(symbol: str) -> np.ndarray:
    """Single-qubit state vector for one of the symbols 0, 1, +, -."""
    try:
        return _KETS[symbol].copy()
    except KeyError:
        raise ValueError(f"unknown state symbol {symbol!r}; expected 0, 1, + or -") from None


def product_state(register: QubitRegister, assignment=None, default="0") -> np.ndarray:
    """Density matrix of a product of single-qubit symbol states."""
    assignment = dict(assignment or {})
    unknown = set(assignment) - set(register.names)
    if unknown:
        raise KeyError(f"assignment mentions qubits outside the register: {sorted(unknown)}")
    vec = np.array([1.0 + 0j])
    for name in register.names:
        vec = np.kron(vec, ket(assignment.get(name, default)))
    return _freeze(np.outer(vec, vec.conj()))


def is_hermitian(mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol)


def check_density_matrix(mat: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Raise ValueError unless `mat` is a density matrix within tolerance."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"not square: shape {mat.shape}")
    n = mat.shape[0]
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"dimension {n} is not a power of two")
    if not is_hermitian(mat, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    tr = mat.trace()
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace is {tr}, expected 1")
    w = jacobi_eigvalsh(mat)
    if w[0] < -tol:
        raise ValueError(f"matrix has negative eigenvalue {w[0]}")


@dataclass(frozen=True)
class QuantumState:
    """A validated density matrix bound to its register."""

    register: QubitRegister
    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        mat = _freeze(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (self.register.dim, self.register.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match register dimension {self.register.dim}"
            )
        check_density_matrix(mat, self.tol)

    @staticmethod
    def product(register: QubitRegister, assignment=None, default="0") -> "QuantumState":
        return QuantumState(register, product_state(register, assignment, default))


def _embedding_index(size: int, positions: tuple[int, ...]) -> np.ndarray:
    """Basis permutation moving `positions` to the front wires.

    Returns pi with pi[a] = index of basis state a once the register is
    reordered as positions + rest; used to conjugate kron(op, identity)
    back into register layout.
    """
    rest = [i for i in range(size) if i not in positions]
    perm = list(positions) + rest
    dim = 1 << size
    pi = np.empty(dim, dtype=np.intp)
    for idx in range(dim):
        out = 0
        for j, src in enumerate(perm):
            bit = (idx >> (size - 1 - src)) & 1
            out |= bit << (size - 1 - j)
        pi[idx] = out
    return pi


def embed(op: np.ndarray, register: QubitRegister, qubits) -> np.ndarray:
    """Embed an operator on `qubits` into the full register space."""
    qubits = tuple(qubits)
    positions = register.positions(qubits)
    if len(set(positions)) != len(positions):
        raise ValueError(f"repeated qubits in {qubits}")
    k = len(positions)
    if op.shape != (1 << k, 1 << k):
        raise ValueError(f"operator shape {op.shape} does not act on {k} qubits")
    if k == register.size and positions == tuple(range(k)):
        return np.asarray(op, dtype=complex)
    rest_dim = 1 << (register.size - k)
    full = np.kron(np.asarray(op, dtype=complex), np.eye(rest_dim, dtype=complex))
    pi = _embedding_index(register.size, positions)
    return full[np.ix_(pi, pi)]


def partial_trace(mat: np.ndarray, register: QubitRegister, keep) -> np.ndarray:
    """Trace out every register qubit not in `keep` (ordered as in the register)."""
    keep = set(keep)
    unknown = keep - set(register.names)
    if unknown:
        raise KeyError(f"cannot keep unknown qubits {sorted(unknown)}")
    n = register.size
    keep_pos = [i for i, name in enumerate(register.names) if name in keep]
    drop_pos = [i for i in range(n) if i not in keep_pos]
    arr = np.asarray(mat, dtype=complex).reshape([2] * (2 * n))
    removed = 0
    for p in drop_pos:
        row = p - removed
        cols = n - removed
        arr = np.trace(arr, axis1=row, axis2=row + cols)
        removed += 1
    d = 1 << len(keep_pos)
    return arr.reshape(d, d)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b; both arguments must be Hermitian."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    if diff.shape == (1, 1):
        return float(abs(diff[0, 0].real)) * 0.5
    w = jacobi_eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(w)))


# identity rounds reals to this many decimals: each matrix entry in a
# digest, a real label payload, each weight in a distribution digest
_DIGEST_DECIMALS = 10


def _matrix_digest(mat: np.ndarray) -> bytes:
    rounded = np.round(np.asarray(mat, dtype=complex), _DIGEST_DECIMALS) + 0.0
    return rounded.tobytes()


class SuperOperator:
    """Trace-preserving completely positive map given by Kraus operators."""

    def __init__(self, name: str, arity: int, kraus, tol: float = DEFAULT_TOL):
        self.name = name
        self.arity = int(arity)
        dim = 1 << self.arity
        ops = tuple(_freeze(np.asarray(k, dtype=complex)) for k in kraus)
        if not ops:
            raise ValueError(f"{name}: empty Kraus list")
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError(f"{name}: Kraus shape {k.shape}, expected {(dim, dim)}")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(dim))) > tol:
            raise ValueError(f"{name}: Kraus operators are not trace-preserving")
        self.kraus = ops
        self._embed_cache: dict = {}

    def __repr__(self):
        return f"SuperOperator({self.name!r}, arity={self.arity}, kraus={len(self.kraus)})"

    def embedded(self, register: QubitRegister, qubits) -> tuple[np.ndarray, ...]:
        key = (register.names, tuple(qubits))
        out = self._embed_cache.get(key)
        if out is None:
            out = tuple(embed(k, register, qubits) for k in self.kraus)
            self._embed_cache[key] = out
        return out

    def apply(self, mat: np.ndarray, register: QubitRegister, qubits) -> np.ndarray:
        ops = self.embedded(register, qubits)
        out = np.zeros_like(np.asarray(mat, dtype=complex))
        for k in ops:
            out += k @ mat @ k.conj().T
        return out


class Measurement:
    """Complete measurement; each outcome carries a classical value."""

    def __init__(self, name: str, arity: int, outcomes, tol: float = DEFAULT_TOL):
        self.name = name
        self.arity = int(arity)
        dim = 1 << self.arity
        frozen = []
        for value, op in outcomes:
            op = _freeze(np.asarray(op, dtype=complex))
            if op.shape != (dim, dim):
                raise ValueError(f"{name}: outcome operator shape {op.shape}")
            if not isinstance(value, (float, int, BitString)):
                raise ValueError(f"{name}: outcome value {value!r} is not a classical value")
            frozen.append((value if isinstance(value, BitString) else float(value), op))
        if not frozen:
            raise ValueError(f"{name}: no outcomes")
        values = [v for v, _ in frozen]
        if len(set(values)) != len(values):
            raise ValueError(f"{name}: duplicate outcome values")
        total = sum(op.conj().T @ op for _, op in frozen)
        if np.max(np.abs(total - np.eye(dim))) > tol:
            raise ValueError(f"{name}: outcome operators are not complete")
        self.outcomes = tuple(frozen)
        self._embed_cache: dict = {}

    def __repr__(self):
        return f"Measurement({self.name!r}, arity={self.arity}, outcomes={len(self.outcomes)})"

    def embedded(self, register: QubitRegister, qubits):
        key = (register.names, tuple(qubits))
        out = self._embed_cache.get(key)
        if out is None:
            out = tuple((v, embed(op, register, qubits)) for v, op in self.outcomes)
            self._embed_cache[key] = out
        return out

    def apply(self, mat: np.ndarray, register: QubitRegister, qubits):
        """All outcomes with positive probability: [(value, prob, post-state)].

        Probabilities are tr(E rho E^dagger); outcomes at or below `PRUNE_EPS`
        are dropped and the rest renormalised to sum to one.
        """
        results = []
        for value, op in self.embedded(register, qubits):
            post = op @ mat @ op.conj().T
            p = float(post.trace().real)
            if p > PRUNE_EPS:
                results.append((value, p, post / p))
        total = sum(p for _, p, _ in results)
        if total <= 0.0:
            raise ValueError(f"{self.name}: no outcome has positive probability")
        return [(v, p / total, post) for v, p, post in results]


# ---------------------------------------------------------------------------
# builtin operation registry

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQRT2
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_SET0 = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
         np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
_SET1 = (np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
         np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))


def _encoded_ket(basis_bit: str, key_bit: str) -> np.ndarray:
    """BB84 encoding: basis 0 is computational, basis 1 diagonal."""
    if basis_bit == "0":
        return _KETS[key_bit]
    return _KETS["+" if key_bit == "0" else "-"]


def _layered_set(bits: str) -> SuperOperator:
    kraus = []
    for combo in itertools.product(range(2), repeat=len(bits)):
        op = np.array([[1.0 + 0j]])
        for b, x in zip(bits, combo):
            op = np.kron(op, (_SET0 if b == "0" else _SET1)[x])
        kraus.append(op)
    return SuperOperator(f"Set_{bits}", len(bits), kraus)


def _layered_hadamard(bits: str) -> SuperOperator:
    op = np.array([[1.0 + 0j]])
    for b in bits:
        op = np.kron(op, _H if b == "1" else np.eye(2, dtype=complex))
    return SuperOperator(f"H_{bits}", len(bits), [op])


def _layered_measure(bits: str) -> Measurement:
    outcomes = []
    for combo in itertools.product("01", repeat=len(bits)):
        vec = np.array([1.0 + 0j])
        for b, y in zip(bits, combo):
            vec = np.kron(vec, _encoded_ket(b, y))
        outcomes.append((BitString("".join(combo)), np.outer(vec, vec.conj())))
    return Measurement(f"M_{bits}", len(bits), outcomes)


_FIXED_BUILTINS = {
    "H": lambda: SuperOperator("H", 1, [_H]),
    "X": lambda: SuperOperator("X", 1, [_X]),
    "Set0": lambda: SuperOperator("Set0", 1, _SET0),
    "Set1": lambda: SuperOperator("Set1", 1, _SET1),
    "Dephase": lambda: SuperOperator("Dephase", 1, [_P0, _P1]),
    "Mcomp": lambda: Measurement("Mcomp", 1, [(0.0, _P0), (1.0, _P1)]),
    "Mdiag": lambda: Measurement(
        "Mdiag", 1,
        [(0.0, np.outer(_KETS["+"], _KETS["+"].conj())),
         (1.0, np.outer(_KETS["-"], _KETS["-"].conj()))]),
}

_builtin_cache: dict = {}


def builtin(name: str):
    """Resolve a builtin operation name, including the layered families.

    Fixed names: H, X, Set0, Set1, Dephase, Mcomp, Mdiag.  Layered families
    take a bit-string parameter after the underscore: Set_<bits> resets wire
    i to |bits[i]>, H_<bits> applies H on wires with bits[i]=1, M_<bits>
    measures wire i in the basis selected by bits[i] (0 computational,
    1 diagonal) and reports the joint outcome as one bit-string.
    """
    hit = _builtin_cache.get(name)
    if hit is not None:
        return hit
    if name in _FIXED_BUILTINS:
        op = _FIXED_BUILTINS[name]()
    else:
        head, _, bits = name.partition("_")
        if head in ("Set", "H", "M") and bits and all(ch in "01" for ch in bits):
            if head == "Set":
                op = _layered_set(bits)
            elif head == "H":
                op = _layered_hadamard(bits)
            else:
                op = _layered_measure(bits)
        else:
            raise UnknownOperationError(f"unknown builtin operation {name!r}")
    _builtin_cache[name] = op
    return op


def parse_matrix(rows) -> np.ndarray:
    """A complex matrix from JSON rows whose entries are numbers or
    [re, im] pairs of numbers; ValueError on any other entry."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def entry(e):
        if number(e):
            return complex(e)
        if isinstance(e, (list, tuple)) and len(e) == 2 and all(map(number, e)):
            return complex(e[0], e[1])
        raise ValueError(f"bad matrix entry {e!r}; expected a number or [re, im]")

    return np.array([[entry(e) for e in row] for row in rows], dtype=complex)


def load_registry(source, tol: float = DEFAULT_TOL) -> dict:
    """Load user-defined operations from JSON.

    `source` is a file path, a parsed JSON object, or a list of objects.
    Each object has `name`, `acts_on_arity`, and either `kraus` (a list of
    matrices, entries [re, im] in row-major order) for a super-operator or
    `outcomes` (a list of {value, projector}) for a measurement.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if isinstance(data, dict) and "operations" in data:
        data = data["operations"]
    if isinstance(data, dict):
        data = [data]

    registry = {}
    for obj in data:
        if not (isinstance(obj, dict) and "name" in obj and "acts_on_arity" in obj):
            raise ValueError(f"bad registry entry {obj!r}; expected an object "
                             "with 'name' and 'acts_on_arity'")
        name = obj["name"]
        arity = int(obj["acts_on_arity"])
        if "kraus" in obj:
            registry[name] = SuperOperator(name, arity, [parse_matrix(k) for k in obj["kraus"]], tol)
        elif "outcomes" in obj:
            outcomes = []
            for item in obj["outcomes"]:
                value = item["value"]
                if isinstance(value, str):
                    value = BitString(value)
                outcomes.append((value, parse_matrix(item["projector"])))
            registry[name] = Measurement(name, arity, outcomes, tol)
        else:
            raise ValueError(f"{name}: neither 'kraus' nor 'outcomes' present")
    return registry


def resolve_operation(name: str, registry=None):
    """Look up `name` among user operations first, then builtins."""
    if registry and name in registry:
        return registry[name]
    return builtin(name)
