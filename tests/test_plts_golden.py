"""Byte-identical PLTS exports of fixed systems.

Each case pins the sha256 of `PLTS(...).to_json_str(with_states=True)`:
the configuration order, every term, qubit set, environment digest and
density matrix, and every transition with its probabilities.  Any change to
how terms are stepped, shared or interned that alters a single byte of the
export fails here.  The cases are the BB84 n = 1 roots and three small
parallel systems: a restricted classical hand-off, qubit passing on a
restricted quantum channel, and a relabelled component.

The n = 2 security system is too large to export in a test, so its
transition system is pinned on its own: the reach of the attacked root and
the ideal root, with every configuration's index and term, and every
transition's label, target indices and exact weights with their types.
"""

import hashlib

import pytest

from qbisim.bb84 import build_bb84_security_test, build_bb84_spec, build_bb84_test
from qbisim.calculus import pretty
from qbisim.quantum import QuantumState
from qbisim.semantics import PLTS, System

from randsys import PAR_SYSTEMS, par_system


def _bb84_root(build):
    instance = build(1)
    # the BB84 builders share one cached system; export from a fresh one
    system = System(instance.system.module, register=instance.register)
    (config,) = instance.root.support
    return system, system.config(config.term, QuantumState.product(instance.register, None))


ROOTS = {
    "bb84_test_n1": lambda: _bb84_root(build_bb84_test),
    "bb84_spec_n1": lambda: _bb84_root(build_bb84_spec),
    "bb84_security_test_n1": lambda: _bb84_root(build_bb84_security_test),
    **{name: (lambda name=name: par_system(name)) for name in PAR_SYSTEMS},
}

# name -> (configurations, sha256 of the export)
GOLDEN = {
    "bb84_security_test_n1": (283, "dbaaa815795130c4da40de9929b1aa9607aa7b16dd4a83761378d6241424ecb5"),
    "bb84_spec_n1": (8, "af9f166bda2d4591ff5ccce1b8be94e6b3594ff7c9e4484e8eb3f10f6fab3332"),
    "bb84_test_n1": (85, "f200b11fdf208fcd7ef99ffb7e38ee13280ba255b7a152f342ea7e70d151fb8c"),
    "classical_handoff": (13, "1951823e2df0aeba74ded217c7f1f89e249c819f2b9ab3a7893e75f87667b517"),
    "qubit_passing": (30, "9ef4f59e5bf428662e9b3493917bb2a6b35945379d5eed0ad40ff5c58628a779"),
    "relabelled": (8, "72c989b1d8c6a720d53c53d3fa2236c15876aa73c4f69e3bc4bc65dfb73b4c67"),
}


@pytest.mark.parametrize("name", sorted(ROOTS))
def test_plts_export_is_pinned(name):
    system, root = ROOTS[name]()
    plts = PLTS(system, root)
    digest = hashlib.sha256(plts.to_json_str(with_states=True).encode()).hexdigest()
    assert (len(plts.configs), digest) == GOLDEN[name]


def test_bb84_security_n2_transitions_are_pinned():
    instance = build_bb84_security_test(2)
    system = System(instance.system.module, register=instance.register)
    roots = [system.config(c.term, c.matrix)
             for c in instance.root.support + instance.ideal.support]
    configs = system.reachable(roots)
    lines = []
    for config in configs:
        lines.append(f"{config.index} {pretty(config.term)}")
        for label, dist in system.step(config):
            lines.append(f"  {label} " + " ".join(
                f"{target.index}:{type(p).__name__}:{p!r}" for target, p in dist))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(configs), digest) == (
        6728, "15c33120d01ec4442d29bb197c920b8232ec6d3d145f66c8773fc5ae64b5b110")
