"""The quantum layer: embeddings, channels, measurements, trace distance.

Expected values are hand-derived (pure-state overlaps, Bell partial trace,
BB84 encoding) or checked against independently computed numerics frozen in
the assertions.
"""

import json
import math

import numpy as np
import pytest

from qbisim.errors import UnknownOperationError
from qbisim.quantum import (
    BitString,
    Measurement,
    QubitRegister,
    QuantumState,
    SuperOperator,
    builtin,
    check_density_matrix,
    embed,
    ket,
    load_registry,
    partial_trace,
    product_state,
    trace_distance,
)
from randsys import random_density, random_superoperator, random_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def dm(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


class TestRegister:
    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            QubitRegister(("q2", "q1"))
        reg = QubitRegister.of(["q2", "q1"])
        assert reg.names == ("q1", "q2")
        assert reg.dim == 4

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            QubitRegister(("q1", "q1"))

    def test_bound_name_separator_rejected(self):
        # `$` marks bound names, which a register qubit must never match
        with pytest.raises(ValueError, match=r"\$"):
            QubitRegister.of(["q$0", "q1"])

    def test_positions(self):
        reg = QubitRegister.of(["a", "b", "c"])
        assert reg.positions(["c", "a"]) == (2, 0)
        assert reg.without(["b"]).names == ("a", "c")


class TestStates:
    def test_product_state_layout(self):
        # first register name sits on the most significant bit
        reg = QubitRegister.of(["q1", "q2"])
        rho = product_state(reg, {"q1": "1", "q2": "0"})
        expect = np.zeros((4, 4))
        expect[2, 2] = 1.0  # |10>
        assert np.allclose(rho, expect)

    def test_plus_state(self):
        rho = product_state(QubitRegister.of(["q"]), {"q": "+"})
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))

    def test_validation(self):
        reg = QubitRegister.of(["q"])
        QuantumState(reg, dm(ket("0")))
        with pytest.raises(ValueError):
            QuantumState(reg, np.array([[0.7, 0.0], [0.0, 0.7]]))
        with pytest.raises(ValueError):
            # negative eigenvalue, trace 1
            QuantumState(reg, np.array([[1.5, 0.0], [0.0, -0.5]]))
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(3) / 3.0)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            ket("x")
        with pytest.raises(KeyError):
            product_state(QubitRegister.of(["q"]), {"r": "0"})


class TestEmbedding:
    def test_embed_on_full_register_is_identity_operation(self):
        reg = QubitRegister.of(["a", "b"])
        op = np.kron(ket("0")[:, None] @ ket("0")[None, :], np.eye(2))
        assert np.allclose(embed(op, reg, ["a", "b"]), op)

    def test_embed_acts_on_named_wire(self):
        reg = QubitRegister.of(["a", "b"])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        # X on the second wire maps |00> to |01>
        full = embed(x, reg, ["b"])
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert np.allclose(full @ v, np.eye(4)[1])
        # X on the first wire maps |00> to |10>
        full = embed(x, reg, ["a"])
        assert np.allclose(full @ v, np.eye(4)[2])

    def test_embed_respects_argument_order(self):
        # CNOT with control listed second
        reg = QubitRegister.of(["a", "b"])
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        full = embed(cnot, reg, ["b", "a"])  # control b, target a
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0  # |01>: control is 1
        assert np.allclose(full @ v, np.eye(4)[3])  # target flips: |11>

    def test_embed_shape_errors(self):
        reg = QubitRegister.of(["a", "b"])
        with pytest.raises(ValueError):
            embed(np.eye(2), reg, ["a", "b"])
        with pytest.raises(ValueError):
            embed(np.eye(4), reg, ["a", "a"])
        with pytest.raises(KeyError):
            embed(np.eye(2), reg, ["z"])


class TestPartialTrace:
    def test_bell_state_marginal(self):
        reg = QubitRegister.of(["a", "b"])
        bell = (np.eye(4)[0] + np.eye(4)[3]) / math.sqrt(2.0)
        rho = dm(bell)
        for keep in (["a"], ["b"]):
            assert np.allclose(partial_trace(rho, reg, keep), np.eye(2) / 2.0)

    def test_product_state_marginal(self):
        reg = QubitRegister.of(["a", "b", "c"])
        rho = product_state(reg, {"a": "1", "b": "+", "c": "0"})
        got = partial_trace(rho, reg, ["b"])
        assert np.allclose(got, 0.5 * np.ones((2, 2)))
        got = partial_trace(rho, reg, ["a", "c"])
        assert np.allclose(got, product_state(QubitRegister.of(["a", "c"]), {"a": "1"}))

    def test_keep_everything(self):
        reg = QubitRegister.of(["a"])
        rho = product_state(reg, {"a": "-"})
        assert np.allclose(partial_trace(rho, reg, ["a"]), rho)

    def test_trace_out_everything(self):
        reg = QubitRegister.of(["a", "b"])
        rho = product_state(reg)
        got = partial_trace(rho, reg, [])
        assert got.shape == (1, 1)
        assert np.allclose(got, [[1.0]])


class TestTraceDistance:
    def test_hand_values(self):
        zero, one, plus = dm(ket("0")), dm(ket("1")), dm(ket("+"))
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
        # d(|0>, |+>) = sqrt(1 - |<0|+>|^2) = 1/sqrt(2)
        assert trace_distance(zero, plus) == pytest.approx(INV_SQRT2, abs=1e-10)
        assert trace_distance(plus, plus) == pytest.approx(0.0, abs=1e-12)

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            a, b, c = (random_density(rng, dim) for _ in range(3))
            dab = trace_distance(a, b)
            assert dab == pytest.approx(trace_distance(b, a), abs=1e-10)
            assert -1e-12 <= dab <= 1.0 + 1e-12
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
            assert trace_distance(a, a) <= 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            dim = 4
            a, b = random_density(rng, dim), random_density(rng, dim)
            u = random_unitary(rng, dim)
            assert trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T) == pytest.approx(
                trace_distance(a, b), abs=1e-9
            )


class TestBuiltins:
    def test_hadamard(self):
        reg = QubitRegister.of(["q"])
        rho = builtin("H").apply(product_state(reg), reg, ["q"])
        assert np.allclose(rho, dm(ket("+")))

    def test_set_and_dephase(self):
        reg = QubitRegister.of(["q"])
        plus = product_state(reg, {"q": "+"})
        assert np.allclose(builtin("Set0").apply(plus, reg, ["q"]), dm(ket("0")))
        assert np.allclose(builtin("Set1").apply(plus, reg, ["q"]), dm(ket("1")))
        # Dephase kills off-diagonals: |+><+| becomes I/2
        assert np.allclose(builtin("Dephase").apply(plus, reg, ["q"]), np.eye(2) / 2)

    def test_layered_set_resets_to_pattern(self):
        reg = QubitRegister.of(["q1", "q2"])
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4)
        out = builtin("Set_10").apply(rho, reg, ["q1", "q2"])
        assert np.allclose(out, product_state(reg, {"q1": "1", "q2": "0"}), atol=1e-12)

    def test_layered_hadamard_matches_encoding(self):
        # Set key bits then rotate by basis bits: |x_y> encoding
        reg = QubitRegister.of(["q1", "q2"])
        rho = product_state(reg)
        rho = builtin("Set_01").apply(rho, reg, ["q1", "q2"])
        rho = builtin("H_10").apply(rho, reg, ["q1", "q2"])
        # q1: basis 1 key 0 -> |+>, q2: basis 0 key 1 -> |1>
        expect = product_state(reg, {"q1": "+", "q2": "1"})
        assert np.allclose(rho, expect)

    def test_computational_measurement_on_plus(self):
        reg = QubitRegister.of(["q"])
        out = builtin("Mcomp").apply(product_state(reg, {"q": "+"}), reg, ["q"])
        assert sorted((v, round(p, 10)) for v, p, _ in out) == [(0.0, 0.5), (1.0, 0.5)]

    def test_diagonal_measurement_on_minus_is_deterministic(self):
        reg = QubitRegister.of(["q"])
        out = builtin("Mdiag").apply(product_state(reg, {"q": "-"}), reg, ["q"])
        assert len(out) == 1
        value, p, post = out[0]
        assert value == 1.0 and p == pytest.approx(1.0)
        assert np.allclose(post, dm(ket("-")))

    def test_layered_measurement_outcome_is_bitstring(self):
        reg = QubitRegister.of(["q1", "q2"])
        rho = product_state(reg, {"q1": "-", "q2": "1"})
        out = builtin("M_10").apply(rho, reg, ["q1", "q2"])
        assert len(out) == 1
        value, p, _ = out[0]
        assert isinstance(value, BitString) and value == "11"
        assert p == pytest.approx(1.0)

    def test_layered_measurement_mixed_basis_probabilities(self):
        # measuring |+> in the computational basis: both outcomes at 1/2
        reg = QubitRegister.of(["q1"])
        out = builtin("M_0").apply(product_state(reg, {"q1": "+"}), reg, ["q1"])
        assert sorted((str(v), round(p, 10)) for v, p, _ in out) == [("0", 0.5), ("1", 0.5)]

    def test_unknown_builtin(self):
        with pytest.raises(UnknownOperationError):
            builtin("Teleport")
        with pytest.raises(UnknownOperationError):
            builtin("Set_")
        with pytest.raises(UnknownOperationError):
            builtin("M_2")

    def test_builtin_cache_returns_same_object(self):
        assert builtin("H") is builtin("H")
        assert builtin("M_01") is builtin("M_01")


class TestValidation:
    def test_superoperator_must_be_trace_preserving(self):
        with pytest.raises(ValueError):
            SuperOperator("bad", 1, [np.array([[1.0, 0.0], [0.0, 0.5]])])

    def test_measurement_must_be_complete(self):
        with pytest.raises(ValueError):
            Measurement("bad", 1, [(0.0, np.eye(2) * 0.5)])

    def test_measurement_duplicate_values(self):
        p0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        p1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Measurement("bad", 1, [(0.0, p0), (0.0, p1)])

    def test_measurement_prunes_zero_outcomes(self):
        reg = QubitRegister.of(["q"])
        out = builtin("Mcomp").apply(product_state(reg, {"q": "1"}), reg, ["q"])
        assert [(v, round(p, 12)) for v, p, _ in out] == [(1.0, 1.0)]


class TestBitString:
    def test_validation(self):
        assert BitString("0101") == "0101"
        assert BitString() == ""
        with pytest.raises(ValueError):
            BitString("012")

    def test_repr_is_quoted(self):
        assert repr(BitString("10")) == '"10"'

    def test_distinct_from_reals(self):
        assert BitString("0") != 0.0
        assert not BitString("") == 0.0


class TestRegistryLoading:
    def test_superoperator_roundtrip(self, tmp_path):
        spec = {
            "name": "SwapPhase",
            "acts_on_arity": 1,
            "kraus": [[[[0.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [0.0, 0.0]]]],
        }
        path = tmp_path / "ops.json"
        path.write_text(json.dumps([spec]))
        reg = load_registry(str(path))
        op = reg["SwapPhase"]
        assert isinstance(op, SuperOperator)
        assert np.allclose(op.kraus[0], np.array([[0.0, 1j], [-1j, 0.0]]))

    def test_measurement_entry(self):
        reg = load_registry(
            [
                {
                    "name": "Comp",
                    "acts_on_arity": 1,
                    "outcomes": [
                        {"value": "0", "projector": [[1, 0], [0, 0]]},
                        {"value": "1", "projector": [[0, 0], [0, 1]]},
                    ],
                }
            ]
        )
        m = reg["Comp"]
        assert isinstance(m, Measurement)
        assert [v for v, _ in m.outcomes] == [BitString("0"), BitString("1")]

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            load_registry([{"name": "X", "acts_on_arity": 1}])

    @pytest.mark.parametrize("entry", [{"acts_on_arity": 1, "kraus": []},
                                       {"name": "X", "kraus": []}, "X"])
    def test_entry_without_name_or_arity(self, entry):
        with pytest.raises(ValueError, match="bad registry entry"):
            load_registry([entry])

    @pytest.mark.parametrize("entry", [["1", "0"], "1", True, [1.0], [1.0, 0.0, 0.0]])
    def test_matrix_entries_are_numbers_or_pairs(self, entry):
        kraus = [[[entry, 0.0], [0.0, 1.0]]]
        with pytest.raises(ValueError, match="bad matrix entry"):
            load_registry([{"name": "X", "acts_on_arity": 1, "kraus": kraus}])


class TestRandomInstances:
    def test_random_superoperator_is_trace_preserving(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sop = random_superoperator(rng, 1, kraus_count=3)
            total = sum(k.conj().T @ k for k in sop.kraus)
            assert np.allclose(total, np.eye(2), atol=1e-9)

    def test_random_density_is_valid(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            check_density_matrix(random_density(rng, 4))
