"""The pure-Python matrix kernels against numpy formulas.

The package computes with tuples of row tuples of Python complex numbers;
here every kernel is checked against the numpy expression it replaced, on
random states at d = 2, 4 and 8.  The identity digest must give the very
bytes numpy's rounding gives, since configuration identity, the distinct
matrix counts and the exported `env_digest`s read it.
"""

import itertools

import numpy as np
import pytest

from qbisim.quantum import (
    QubitRegister,
    _exact_bytes,
    _matrix_digest,
    builtin,
    embed,
    load_registry,
    partial_trace,
    product_state,
    trace_distance,
)
from randsys import random_density

TOL = 1e-12
NAMES = ("a", "b", "c")


def numpy_digest(mat) -> bytes:
    return (np.round(np.asarray(mat, dtype=complex), 10) + 0.0).tobytes()


def numpy_embed(op, n: int, positions) -> np.ndarray:
    """op (x) identity on the other wires, with the wires of `op` moved to
    `positions` by transposing the tensor."""
    k = len(positions)
    order = list(positions) + [i for i in range(n) if i not in positions]
    full = np.kron(np.asarray(op, dtype=complex), np.eye(2 ** (n - k)))
    inv = list(np.argsort(order))
    return full.reshape([2] * (2 * n)).transpose(inv + [n + i for i in inv]).reshape(
        2 ** n, 2 ** n)


def numpy_partial_trace(rho, n: int, keep_pos) -> np.ndarray:
    t = np.asarray(rho, dtype=complex).reshape([2] * (2 * n))
    rows = list(range(n))
    cols = [n + i if i in keep_pos else i for i in range(n)]
    out = [i for i in range(n) if i in keep_pos] + [n + i for i in range(n) if i in keep_pos]
    d = 2 ** len(keep_pos)
    return np.einsum(t, rows + cols, out).reshape(d, d)


def random_kraus(rng, arity: int, count: int) -> list:
    dim = 2 ** arity
    g = rng.normal(size=(count * dim, dim)) + 1j * rng.normal(size=(count * dim, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim:(i + 1) * dim, :] for i in range(count)]


def as_json(mat) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mat).tolist()]


def user_operations(rng) -> dict:
    """A dense two-qubit channel and a measurement in a random basis, both
    loaded from JSON as a user registry is."""
    basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return load_registry([
        {"name": "Dense", "acts_on_arity": 2,
         "kraus": [as_json(k) for k in random_kraus(rng, 2, 3)]},
        {"name": "Basis", "acts_on_arity": 2,
         "outcomes": [{"value": str(i % 2) * (1 + i // 2),
                       "projector": as_json(np.outer(basis[:, i], basis[:, i].conj()))}
                      for i in range(4)]},
    ])


class TestDigest:
    def test_random_matrices(self):
        rng = np.random.default_rng(41)
        for d in range(1, 9):
            for scale in (1.0, 1e-6, 1e3):
                m = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                assert _matrix_digest(np.asarray(m).tolist()) == numpy_digest(m)

    def test_half_way_ties_and_signed_zeros(self):
        values = [(n + 0.5) / 1e10 for n in range(-50, 50)]
        values += [0.0, -0.0, 1e-12, -1e-12, 4e-11, -4e-11, 5e-11, -5e-11,
                   0.123456789050, -0.123456789050, 2.5e-10, -2.5e-10]
        for re, im in itertools.product(values[::7] + values[-12:], repeat=2):
            m = [[complex(re, im)]]
            assert _matrix_digest(m) == numpy_digest(m), (re, im)
        column = np.array(values, dtype=complex) * (1 + 1j)
        square = np.resize(column, (8, 8))
        assert _matrix_digest(square.tolist()) == numpy_digest(square)

    def test_exact_bytes_keep_signed_zeros_apart(self):
        assert _exact_bytes([[complex(-0.0, 0.0)]]) != _exact_bytes([[0j]])
        m = np.random.default_rng(2).normal(size=(4, 4)) * (1 + 1j)
        assert _exact_bytes(m.tolist()) == np.asarray(m, dtype=complex).tobytes()


def cases(rng, ops):
    """(register, qubits, operation) for every operation on random wires of
    registers of 1, 2 and 3 qubits."""
    for n in (1, 2, 3):
        register = QubitRegister.of(NAMES[:n])
        for op in ops:
            if op.arity > n:
                continue
            qubits = [NAMES[i] for i in rng.permutation(n)[:op.arity]]
            yield register, qubits, op


class TestKernels:
    BUILTINS = ("H", "X", "Set0", "Set1", "Dephase", "Set_01", "H_10", "H_11",
                "Mcomp", "Mdiag", "M_01", "M_11", "M_101")

    def operations(self, rng):
        return [builtin(name) for name in self.BUILTINS] + list(user_operations(rng).values())

    def test_embed(self):
        rng = np.random.default_rng(5)
        for register, qubits, op in cases(rng, self.operations(rng)):
            matrices = op.kraus if hasattr(op, "kraus") else [p for _, p in op.outcomes]
            for k in matrices:
                want = numpy_embed(k, register.size, register.positions(qubits))
                assert np.allclose(embed(k, register, qubits), want, rtol=0, atol=TOL)

    def test_apply_and_measure(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            for register, qubits, op in cases(rng, self.operations(rng)):
                rho = random_density(rng, register.dim)
                positions = register.positions(qubits)
                if hasattr(op, "kraus"):
                    want = sum(e @ rho @ e.conj().T for e in
                               (numpy_embed(k, register.size, positions) for k in op.kraus))
                    got = op.apply(rho.tolist(), register, qubits)
                    assert np.allclose(got, want, rtol=0, atol=TOL), op.name
                    continue
                posts = {}
                for value, p in op.outcomes:
                    e = numpy_embed(p, register.size, positions)
                    post = e @ rho @ e.conj().T
                    if post.trace().real > 1e-12:
                        posts[value] = (post.trace().real, post / post.trace().real)
                got = op.apply(rho.tolist(), register, qubits)
                assert [v for v, _, _ in got] == list(posts), op.name
                for value, prob, post in got:
                    assert abs(prob - posts[value][0]) <= TOL
                    assert np.allclose(post, posts[value][1], rtol=0, atol=TOL)

    def test_partial_trace(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            register = QubitRegister.of(NAMES[:n])
            for size in range(n + 1):
                for keep in itertools.combinations(register.names, size):
                    rho = random_density(rng, register.dim)
                    want = numpy_partial_trace(rho, n, register.positions(keep))
                    got = partial_trace(rho.tolist(), register, keep)
                    assert np.allclose(got, want, rtol=0, atol=TOL)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_trace_distance(self, dim):
        rng = np.random.default_rng(8 + dim)
        for _ in range(20):
            a, b = random_density(rng, dim), random_density(rng, dim)
            want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)))
            assert abs(trace_distance(a.tolist(), b.tolist()) - want) <= TOL

    def test_product_state(self):
        kets = {"0": [1, 0], "1": [0, 1], "+": [2 ** -0.5, 2 ** -0.5],
                "-": [2 ** -0.5, -(2 ** -0.5)]}
        register = QubitRegister.of(NAMES)
        for symbols in itertools.product("01+-", repeat=3):
            vec = np.array([1.0 + 0j])
            for s in symbols:
                vec = np.kron(vec, kets[s])
            got = product_state(register, dict(zip(NAMES, symbols)))
            assert np.allclose(got, np.outer(vec, vec.conj()), rtol=0, atol=TOL)
