"""Byte-identical PLTS exports of fixed systems.

Each case pins the sha256 of `PLTS(...).to_json_str(with_states=True)`:
the configuration order, every term, qubit set, environment digest and
density matrix, and every transition with its probabilities.  Any change to
how terms are stepped, shared or interned that alters a single byte of the
export fails here.  The cases are the BB84 n = 1 roots and three small
parallel systems: a restricted classical hand-off, qubit passing on a
restricted quantum channel, and a relabelled component.
"""

import hashlib

import pytest

from qbisim.bb84 import build_bb84_security_test, build_bb84_spec, build_bb84_test
from qbisim.quantum import QuantumState
from qbisim.semantics import PLTS, System

from randsys import PAR_SYSTEMS, par_system


def _bb84_root(build):
    instance = build(1)
    # the BB84 builders share one cached system; export from a fresh one
    system = System(instance.system.module, register=instance.register)
    (config,) = instance.root.support
    return system, system.config(config.term, QuantumState.product(instance.register, None),
                                 canonical=True)


ROOTS = {
    "bb84_test_n1": lambda: _bb84_root(build_bb84_test),
    "bb84_spec_n1": lambda: _bb84_root(build_bb84_spec),
    "bb84_security_test_n1": lambda: _bb84_root(build_bb84_security_test),
    **{name: (lambda name=name: par_system(name)) for name in PAR_SYSTEMS},
}

# name -> (configurations, sha256 of the export)
GOLDEN = {
    "bb84_security_test_n1": (283, "57011842001f88f95d47eca9d3320c646bbcab80f23345a132dfc0d48dc7496c"),
    "bb84_spec_n1": (8, "af9f166bda2d4591ff5ccce1b8be94e6b3594ff7c9e4484e8eb3f10f6fab3332"),
    "bb84_test_n1": (85, "891c591802e2142110b2081557d08ca1eadb6571bd0403a24851896a237040a3"),
    "classical_handoff": (13, "1951823e2df0aeba74ded217c7f1f89e249c819f2b9ab3a7893e75f87667b517"),
    "qubit_passing": (30, "92e8d4231196691c6585f07c29f3aee4da9dbb2ea69db5860a942dd77250e8b9"),
    "relabelled": (8, "c377acc03617320d6de718d7d4eebd482f5111eba1fa694503ce73acc0b8fce8"),
}


@pytest.mark.parametrize("name", sorted(ROOTS))
def test_plts_export_is_pinned(name):
    system, root = ROOTS[name]()
    plts = PLTS(system, root)
    digest = hashlib.sha256(plts.to_json_str(with_states=True).encode()).hexdigest()
    assert (len(plts.configs), digest) == GOLDEN[name]
