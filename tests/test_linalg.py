"""Jacobi eigenvalues against hand values, the LAPACK oracle and bit pins."""

import numpy as np
import pytest

import qbisim.linalg as linalg
from qbisim.errors import ConvergenceError
from qbisim.linalg import jacobi_eigvalsh


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


def test_diagonal_matrix_is_fixed_point():
    a = np.diag([3.0, -1.0, 2.0]).astype(complex)
    assert np.asarray(jacobi_eigvalsh(a)).tolist() == [-1.0, 2.0, 3.0]


def test_known_two_by_two():
    # [[0, 1], [1, 0]] has eigenvalues -1, 1
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(jacobi_eigvalsh(a), [-1.0, 1.0], rtol=0, atol=1e-15)


def test_complex_hermitian_hand_value():
    # [[1, i], [-i, 1]] has eigenvalues 0 and 2
    a = np.array([[1.0, 1j], [-1j, 1.0]])
    assert np.allclose(jacobi_eigvalsh(a), [0.0, 2.0], rtol=0, atol=1e-15)


def test_empty_and_single():
    w = jacobi_eigvalsh(np.zeros((0, 0)))
    assert np.asarray(w).shape == (0,)
    assert np.asarray(jacobi_eigvalsh(np.array([[5.0 + 0j]]))).tolist() == [5.0]


def test_rejects_non_square():
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.zeros(4))


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_matches_lapack_oracle(dim):
    rng = np.random.default_rng(1000 + dim)
    for _ in range(20):
        a = random_hermitian(rng, dim)
        w = jacobi_eigvalsh(a)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(w, np.linalg.eigvalsh(a), rtol=0, atol=1e-12)


def test_degenerate_spectrum():
    rng = np.random.default_rng(7)
    # random unitary conjugation of a degenerate diagonal
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    a = q @ np.diag([1.0, 1.0, 1.0, -3.0]) @ q.conj().T
    w = jacobi_eigvalsh(a)
    assert np.allclose(w, [-3.0, 1.0, 1.0, 1.0], rtol=0, atol=1e-12)


def test_convergence_error_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        jacobi_eigvalsh(random_hermitian(np.random.default_rng(3), 4))


# The sweep runs on Python complex scalars, so these bits must not move with
# numpy's SIMD dispatch (CI runs this file with it switched off) or BLAS.
# Rotations done with numpy's dispatched array multiply round the last value
# of the 4x4 to 0x1.a110c436cdbc0p-2 on AVX-512 machines.
PINNED = [
    ([[0.6, 0.2 - 0.3j], [0.2 + 0.3j, 0.4]],
     ["0x1.01b564a8c678ep-3", "0x1.bf92a6d5ce620p-1"]),
    ([[1, 2j, 0.5], [-2j, -1, 1 - 1j], [0.5, 1 + 1j, 0.25]],
     ["-0x1.51e6d4514a58ep+1", "0x1.19e1a7ad9e4e4p-3", "0x1.6048b9d670743p+1"]),
    ([[0.3, 0.1 + 0.2j, -0.05j, 0.1],
      [0.1 - 0.2j, -0.2, 0.15, 0.05 + 0.05j],
      [0.05j, 0.15, 0.1, -0.3 + 0.1j],
      [0.1, 0.05 - 0.05j, -0.3 - 0.1j, -0.2]],
     ["-0x1.efcb8187b15c6p-2", "-0x1.ee96d65d7224ap-3",
      "0x1.4606287f9cb1fp-2", "0x1.a110c436cdbbfp-2"]),
]


@pytest.mark.parametrize("matrix,bits", PINNED, ids=["2x2", "3x3", "4x4"])
def test_eigenvalue_bits_are_pinned(matrix, bits):
    w = jacobi_eigvalsh(np.array(matrix, dtype=complex))
    assert [float(x).hex() for x in w] == bits
