"""Density operators, super-operators and measurements on named qubit registers.

A register is an ordered set of qubit names; the tensor layout is fixed by
sorting names lexicographically, with the first name on the most significant
bit of the basis index.  A state is a dense density matrix over the full
register, of the matrix type of `qbisim.linalg`: a tuple of row tuples of
complex numbers.  A caller's matrix (nested sequences, or anything with
`tolist()`) is converted once, where it enters: `QuantumState`,
`System.config`, `parse_matrix`, and the `SuperOperator` and `Measurement`
constructors.

Operations act on a subset of wires.  Each Kraus operator and projector is
embedded once per register and wires (`_kernel`): its nonzero rows R, its
nonzero columns C, and its R x C block.  A map rho -> sum_k K rho K^dagger
then runs on the blocks only, as (K rho) K^dagger (`_sandwich`): a Kraus
operator of `Set_00` on two qubits is a 1 x 1 block, a projector of `M_01`
a 2 x 2 one, and only a dense operator costs the full d^3 products.

Classical values in the rest of the toolkit are either reals (floats) or
`BitString`s; bit-strings appear here because layered measurements report
their outcome as one bit-string value.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from dataclasses import dataclass
from operator import mul

from .errors import UnknownOperationError
from .linalg import _rows, as_matrix, jacobi_eigvalsh

DEFAULT_TOL = 1e-9

# support entries and measurement outcomes below this mass are dropped
PRUNE_EPS = 1e-12

_R = 1.0 / math.sqrt(2.0)

_KETS = {
    "0": (1 + 0j, 0j),
    "1": (0j, 1 + 0j),
    "+": (_R + 0j, _R + 0j),
    "-": (_R + 0j, -_R + 0j),
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


def _kron(a: tuple, b: tuple) -> tuple:
    """Kronecker product of two matrices, `a` on the leading wires."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _outer(u: tuple, v: tuple) -> tuple:
    """|u><v| of two state vectors."""
    return tuple(tuple(x * y.conjugate() for y in v) for x in u)


def ket(symbol: str) -> tuple:
    """Single-qubit state vector for one of the symbols 0, 1, +, -."""
    try:
        return _KETS[symbol]
    except KeyError:
        raise ValueError(f"unknown state symbol {symbol!r}; expected 0, 1, + or -") from None


def product_state(register: QubitRegister, assignment=None, default="0") -> tuple:
    """Density matrix of a product of single-qubit symbol states."""
    assignment = dict(assignment or {})
    unknown = set(assignment) - set(register.names)
    if unknown:
        raise KeyError(f"assignment mentions qubits outside the register: {sorted(unknown)}")
    vec = (1 + 0j,)
    for name in register.names:
        vec = tuple(x * y for x in vec for y in ket(assignment.get(name, default)))
    return _outer(vec, vec)


def is_hermitian(mat, tol: float = DEFAULT_TOL) -> bool:
    mat = _rows(mat)
    return all(abs(x - y.conjugate()) <= tol
               for row, col in zip(mat, zip(*mat)) for x, y in zip(row, col))


def check_density_matrix(mat, tol: float = DEFAULT_TOL) -> None:
    """Raise ValueError unless `mat` is a density matrix within tolerance."""
    mat = _rows(mat)
    n = len(mat)
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"dimension {n} is not a power of two")
    if not is_hermitian(mat, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    tr = sum(mat[i][i] for i in range(n))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace is {tr}, expected 1")
    w = jacobi_eigvalsh(mat)
    if w[0] < -tol:
        raise ValueError(f"matrix has negative eigenvalue {w[0]}")


@dataclass(frozen=True)
class QuantumState:
    """A validated density matrix bound to its register."""

    register: QubitRegister
    matrix: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        mat = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if len(mat) != self.register.dim:
            raise ValueError(
                f"matrix dimension {len(mat)} does not match register dimension "
                f"{self.register.dim}")
        check_density_matrix(mat, self.tol)

    @staticmethod
    def product(register: QubitRegister, assignment=None, default="0") -> "QuantumState":
        return QuantumState(register, product_state(register, assignment, default))


def _embedded_rows(op: tuple, register: QubitRegister, qubits) -> tuple:
    """The nonzeros of `op` embedded on `qubits` of the register: for each
    row of the full space, its (column, value) pairs in column order.

    Row a of the embedding is row s of `op`, where s reads the bits of a on
    `qubits` in their order, placed back on those wires next to the other
    bits of a."""
    qubits = tuple(qubits)
    positions = register.positions(qubits)
    if len(set(positions)) != len(positions):
        raise ValueError(f"repeated qubits in {qubits}")
    k, n = len(positions), register.size
    if len(op) != 1 << k:
        raise ValueError(f"operator of dimension {len(op)} does not act on {k} qubits")
    wires = [1 << (n - 1 - p) for p in positions]  # the register bit of each wire
    # the register bits of each operator index
    spread = [sum(b for j, b in enumerate(wires) if s >> (k - 1 - j) & 1) for s in range(1 << k)]
    nonzero = [[(spread[t], v) for t, v in enumerate(row) if v] for row in op]
    mask = sum(wires)
    out = []
    for a in range(1 << n):
        s = sum(1 << (k - 1 - j) for j, b in enumerate(wires) if a & b)
        out.append(tuple(sorted(((a & ~mask) | t, v) for t, v in nonzero[s])))
    return tuple(out)


def embed(op, register: QubitRegister, qubits) -> tuple:
    """Embed an operator on `qubits` into the full register space."""
    d = register.dim
    out = []
    for nonzero in _embedded_rows(_rows(op), register, qubits):
        row = [0j] * d
        for j, v in nonzero:
            row[j] = v
        out.append(tuple(row))
    return tuple(out)


def _kernel(ops, register: QubitRegister, qubits) -> tuple:
    """The map rho -> sum_k K rho K^dagger over `ops`, embedded on `qubits`,
    as `_sandwich` reads it: for each K, its nonzero rows R, its nonzero
    columns C, the rows of its R x C block, and their conjugates."""
    kernel = []
    for k in ops:
        rows = _embedded_rows(k, register, qubits)
        nonzero_rows = tuple(i for i, nonzero in enumerate(rows) if nonzero)
        nonzero_cols = tuple(sorted({m for nonzero in rows for m, _ in nonzero}))
        at = {m: b for b, m in enumerate(nonzero_cols)}
        block = []
        for i in nonzero_rows:
            row = [0j] * len(nonzero_cols)
            for m, v in rows[i]:
                row[at[m]] = v
            block.append(tuple(row))
        kernel.append((nonzero_rows, nonzero_cols, tuple(block),
                       tuple(tuple(v.conjugate() for v in row) for row in block)))
    return tuple(kernel)


def _block(entry: tuple, mat: tuple) -> list:
    """The R x R block of K mat K^dagger, by rows, for one entry of a
    `_kernel`, outside which it is zero: (K mat)[i][m] for i in R and m in
    C pairs a row of the block of K with a column of `mat` on C x C, and
    the entry (i, j) pairs that row of K mat with the conjugate of row j of
    the block of K."""
    _, nonzero_cols, block, conj = entry
    cols = [[mat[l][m] for l in nonzero_cols] for m in nonzero_cols]
    out = []
    for row in block:
        k_mat = [sum(map(mul, row, col)) for col in cols]
        out.append([sum(map(mul, k_mat, c)) for c in conj])
    return out


def _sandwich(kernel: tuple, mat: tuple) -> tuple:
    """sum_k K mat K^dagger for a `_kernel`."""
    d = len(mat)
    acc = [[0j] * d for _ in range(d)]
    for entry in kernel:
        nonzero_rows = entry[0]
        for i, values in zip(nonzero_rows, _block(entry, mat)):
            out = acc[i]
            for j, x in zip(nonzero_rows, values):
                out[j] += x
    return tuple(map(tuple, acc))


def _gram(ops, dim: int) -> list:
    """sum_k K^dagger K over `ops`."""
    return [[sum(k[m][i].conjugate() * k[m][j] for k in ops for m in range(dim))
             for j in range(dim)] for i in range(dim)]


def _off_identity(mat) -> float:
    """The largest entry of `mat` minus the identity, in modulus."""
    return max(abs(x - (i == j)) for i, row in enumerate(mat) for j, x in enumerate(row))


@functools.lru_cache(maxsize=None)
def _trace_steps(size: int, drop: tuple) -> tuple:
    """For tracing out the wires at `drop` (ascending) from `size` wires,
    one wire at a time: the pairs of index lists (bit 0, bit 1) at that
    wire of the wires left."""
    steps = []
    for removed, p in enumerate(drop):
        left = size - removed
        shift = left - 1 - (p - removed)
        low = (1 << shift) - 1
        zero = [((i >> shift) << (shift + 1)) | (i & low) for i in range(1 << (left - 1))]
        steps.append((zero, [i | (1 << shift) for i in zero]))
    return tuple(steps)


def partial_trace(mat, register: QubitRegister, keep) -> tuple:
    """Trace out every register qubit not in `keep` (ordered as in the register)."""
    keep = set(keep)
    unknown = keep - set(register.names)
    if unknown:
        raise KeyError(f"cannot keep unknown qubits {sorted(unknown)}")
    mat = _rows(mat)
    drop = tuple(i for i, name in enumerate(register.names) if name not in keep)
    for zero, one in _trace_steps(register.size, drop):
        mat = tuple(tuple(r0[b0] + r1[b1] for b0, b1 in zip(zero, one))
                    for r0, r1 in ((mat[a0], mat[a1]) for a0, a1 in zip(zero, one)))
    return mat


def trace_distance(a, b) -> float:
    """Half the trace norm of a - b; both arguments must be Hermitian."""
    a, b = _rows(a), _rows(b)
    if len(a) != len(b):
        raise ValueError(f"dimensions differ: {len(a)} and {len(b)}")
    diff = tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    if len(diff) == 1:
        return abs(diff[0][0].real) * 0.5
    return 0.5 * sum(map(abs, jacobi_eigvalsh(diff)))


# identity rounds reals to this many decimals: each matrix entry in a
# digest, a real label payload, each weight in a distribution digest
_DIGEST_DECIMALS = 10

_DIGEST_SCALE = 10.0 ** _DIGEST_DECIMALS


def _parts(mat) -> list:
    """The real and imaginary parts of the entries of `mat`, row by row."""
    return [x for row in mat for z in row for x in (z.real, z.imag)]


def _matrix_digest(mat) -> bytes:
    """Each real and imaginary part rounded to `_DIGEST_DECIMALS` places, as
    numpy's `round` does it (scaled, to the nearest integer with ties to
    even, scaled back, so -0.0 becomes 0.0), packed as little-endian
    doubles: the bytes of `(np.round(mat, 10) + 0.0).tobytes()`."""
    parts = [round(x * _DIGEST_SCALE) / _DIGEST_SCALE for x in _parts(mat)]
    return struct.pack(f"<{len(parts)}d", *parts)


def _exact_bytes(mat) -> bytes:
    """The exact parts of the entries of `mat` as little-endian doubles, so
    -0.0 stays apart from 0.0."""
    parts = _parts(mat)
    return struct.pack(f"<{len(parts)}d", *parts)


class SuperOperator:
    """Trace-preserving completely positive map given by Kraus operators."""

    def __init__(self, name: str, arity: int, kraus, tol: float = DEFAULT_TOL):
        self.name = name
        self.arity = int(arity)
        dim = 1 << self.arity
        ops = tuple(as_matrix(k) for k in kraus)
        if not ops:
            raise ValueError(f"{name}: empty Kraus list")
        for k in ops:
            if len(k) != dim:
                raise ValueError(f"{name}: Kraus dimension {len(k)}, expected {dim}")
        if _off_identity(_gram(ops, dim)) > tol:
            raise ValueError(f"{name}: Kraus operators are not trace-preserving")
        self.kraus = ops
        self._kernels: dict = {}

    def __repr__(self):
        return f"SuperOperator({self.name!r}, arity={self.arity}, kraus={len(self.kraus)})"

    def embedded(self, register: QubitRegister, qubits) -> tuple:
        """The Kraus operators embedded into the full register space."""
        return tuple(embed(k, register, qubits) for k in self.kraus)

    def apply(self, mat, register: QubitRegister, qubits) -> tuple:
        key = (register.names, tuple(qubits))
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = _kernel(self.kraus, register, qubits)
        return _sandwich(kernel, _rows(mat))


class Measurement:
    """Complete measurement; each outcome carries a classical value."""

    def __init__(self, name: str, arity: int, outcomes, tol: float = DEFAULT_TOL):
        self.name = name
        self.arity = int(arity)
        dim = 1 << self.arity
        frozen = []
        for value, op in outcomes:
            op = as_matrix(op)
            if len(op) != dim:
                raise ValueError(f"{name}: outcome operator dimension {len(op)}, expected {dim}")
            if not isinstance(value, (float, int, BitString)):
                raise ValueError(f"{name}: outcome value {value!r} is not a classical value")
            frozen.append((value if isinstance(value, BitString) else float(value), op))
        if not frozen:
            raise ValueError(f"{name}: no outcomes")
        values = [v for v, _ in frozen]
        if len(set(values)) != len(values):
            raise ValueError(f"{name}: duplicate outcome values")
        if _off_identity(_gram([op for _, op in frozen], dim)) > tol:
            raise ValueError(f"{name}: outcome operators are not complete")
        self.outcomes = tuple(frozen)
        self._kernels: dict = {}

    def __repr__(self):
        return f"Measurement({self.name!r}, arity={self.arity}, outcomes={len(self.outcomes)})"

    def embedded(self, register: QubitRegister, qubits) -> tuple:
        """(value, operator embedded into the full register space) per outcome."""
        return tuple((v, embed(op, register, qubits)) for v, op in self.outcomes)

    def apply(self, mat, register: QubitRegister, qubits):
        """All outcomes with positive probability: [(value, prob, post-state)].

        Probabilities are tr(E rho E^dagger); outcomes at or below `PRUNE_EPS`
        are dropped and the rest renormalised to sum to one.  A post-state
        is scaled by the reciprocal of its probability, as numpy divides a
        complex array by a real.
        """
        key = (register.names, tuple(qubits))
        kernels = self._kernels.get(key)
        if kernels is None:
            kernels = self._kernels[key] = tuple(
                (v, _kernel((op,), register, qubits)[0]) for v, op in self.outcomes)
        mat = _rows(mat)
        zero = (0j,) * len(mat)
        results = []
        for value, entry in kernels:
            nonzero_rows = entry[0]
            block = _block(entry, mat)
            p = sum([row[a].real for a, row in enumerate(block)])
            if p > PRUNE_EPS:
                scale = 1.0 / p
                post = [zero] * len(mat)
                for i, values in zip(nonzero_rows, block):
                    row = list(zero)
                    for j, x in zip(nonzero_rows, values):
                        row[j] = x * scale
                    post[i] = tuple(row)
                results.append((value, p, tuple(post)))
        total = sum(p for _, p, _ in results)
        if total <= 0.0:
            raise ValueError(f"{self.name}: no outcome has positive probability")
        return [(v, p / total, post) for v, p, post in results]


# ---------------------------------------------------------------------------
# builtin operation registry

_I = as_matrix([[1, 0], [0, 1]])
_H = as_matrix([[_R, _R], [_R, -_R]])
_X = as_matrix([[0, 1], [1, 0]])
_P0 = as_matrix([[1, 0], [0, 0]])
_P1 = as_matrix([[0, 0], [0, 1]])
_SET0 = (_P0, as_matrix([[0, 1], [0, 0]]))
_SET1 = (as_matrix([[0, 0], [1, 0]]), _P1)


def _encoded_ket(basis_bit: str, key_bit: str) -> tuple:
    """BB84 encoding: basis 0 is computational, basis 1 diagonal."""
    if basis_bit == "0":
        return _KETS[key_bit]
    return _KETS["+" if key_bit == "0" else "-"]


def _layered_set(bits: str) -> SuperOperator:
    kraus = []
    for combo in itertools.product(range(2), repeat=len(bits)):
        op = ((1 + 0j,),)
        for b, x in zip(bits, combo):
            op = _kron(op, (_SET0 if b == "0" else _SET1)[x])
        kraus.append(op)
    return SuperOperator(f"Set_{bits}", len(bits), kraus)


def _layered_hadamard(bits: str) -> SuperOperator:
    op = ((1 + 0j,),)
    for b in bits:
        op = _kron(op, _H if b == "1" else _I)
    return SuperOperator(f"H_{bits}", len(bits), [op])


def _layered_measure(bits: str) -> Measurement:
    outcomes = []
    for combo in itertools.product("01", repeat=len(bits)):
        vec = (1 + 0j,)
        for b, y in zip(bits, combo):
            vec = tuple(x * z for x in vec for z in _encoded_ket(b, y))
        outcomes.append((BitString("".join(combo)), _outer(vec, vec)))
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
        [(0.0, _outer(_KETS["+"], _KETS["+"])), (1.0, _outer(_KETS["-"], _KETS["-"]))]),
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


def parse_matrix(rows) -> tuple:
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

    return tuple(tuple(entry(e) for e in row) for row in rows)


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
