"""Pinned verdicts of the refinement-based engines on fixed pairs.

Each case is a pair of sources over a fresh system.  For the state-based
decision, the relation-search decision and the exhaustive check of the
one-pair family {(c, d)} at lambda 0, the table pins the verdict, the
engine's mode, the violated clause, and the outcome of the independent
follow-up: a witness re-verified by the exhaustive checker, or a refutation
replayed by `replay_refutation`.  A one-pair family that is not closed
under moves fails the relation check even when the pair is bisimilar, and
its refutation then does not replay; the table pins that too.

The pairs are randsys-style terms against their bisimilar-by-construction
variants, mutants of them that differ deep in the behaviour, and the
nondeterministic fixtures of test_bisim.
"""

import numpy as np
import pytest

from qbisim.bisim import (
    check_ground_bisim_relation,
    check_lambda_relation,
    decide_bisim,
    decide_state_based,
    replay_refutation,
)
from qbisim.calculus import parse_module
from qbisim.quantum import QubitRegister, QuantumState
from qbisim.semantics import System
from randsys import random_density

H, F = True, False

# (qubits, state, left, right,
#  state-based (holds, clause, verified),
#  relation-search (holds, clause, verified),
#  exhaustive check (holds, clause, verified))
# state is ("rho", seed) for random_density(default_rng(seed)), or
# ("product", assignment) for a product state.
CASES = [
    (('q1',), ('rho', 0),
     'tau . apply Set1[q1] . tau . nil',
     'tau . tau . apply Set1[q1] . tau . nil',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 1),
     'pchoice { 1/2 -> ( a!0 . ( a!1 . nil + a!1 . nil ) ) ; 1/2 -> meas '
     'Mcomp[q1; x1] . b!x1 . a!1 . nil }',
     'pchoice { 1/2 -> ( pchoice { 1/2 -> ( a!0 . ( a!1 . nil + a!1 . nil ) '
     ') ; 1/2 -> meas Mcomp[q1; x1] . b!x1 . a!1 . nil } ) ; 1/2 -> ( '
     'pchoice { 1/2 -> ( a!0 . ( a!1 . nil + a!1 . nil ) ) ; 1/2 -> meas '
     'Mcomp[q1; x1] . b!x1 . a!1 . nil } ) }',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 2),
     'meas Mcomp[q1; x1] . c!x1 . tau . meas Mcomp[q1; x2] . a!x2 . nil',
     'tau . meas Mcomp[q1; x1] . c!x1 . tau . meas Mcomp[q1; x2] . a!x2 . '
     'nil',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 3),
     'c!1 . ( meas Mcomp[q1; x1] . ( b!1 . nil + tau . nil ) ) + b!0 . c!0 .'
     ' b!1 . nil',
     'pchoice { 1/2 -> ( c!1 . ( meas Mcomp[q1; x1] . ( b!1 . nil + tau . '
     'nil ) ) + b!0 . c!0 . b!1 . nil ) ; 1/2 -> ( c!1 . ( meas Mcomp[q1; '
     'x1] . ( b!1 . nil + tau . nil ) ) + b!0 . c!0 . b!1 . nil ) }',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 4),
     'b!0 . meas Mcomp[q1; x1] . b!x1 . tau . nil + c!1 . ( pchoice { 1/2 ->'
     ' ( b!1 . nil + a!0 . nil ) ; 1/2 -> b!1 . nil } )',
     'tau . ( b!0 . meas Mcomp[q1; x1] . b!x1 . tau . nil + c!1 . ( pchoice '
     '{ 1/2 -> ( b!1 . nil + a!0 . nil ) ; 1/2 -> b!1 . nil } ) )',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 5),
     'meas Mcomp[q1; x1] . c!x1 . ( meas Mcomp[q1; x2] . ( c!1 . nil + tau .'
     ' nil ) )',
     'pchoice { 1/2 -> ( meas Mcomp[q1; x1] . c!x1 . ( meas Mcomp[q1; x2] . '
     '( c!1 . nil + tau . nil ) ) ) ; 1/2 -> ( meas Mcomp[q1; x1] . c!x1 . ('
     ' meas Mcomp[q1; x2] . ( c!1 . nil + tau . nil ) ) ) }',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 6),
     'meas Mcomp[q1; x1] . a!x1 . a!1 . a!0 . nil',
     'tau . meas Mcomp[q1; x1] . a!x1 . a!1 . a!0 . nil',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 7),
     'c!0 . apply Set0[q1] . tau . nil',
     'pchoice { 1/2 -> c!0 . apply Set0[q1] . tau . nil ; 1/2 -> c!0 . apply'
     ' Set0[q1] . tau . nil }',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 8),
     'a!1 . b!0 . apply Dephase[q1] . nil + a!1 . nil',
     'tau . ( a!1 . b!0 . apply Dephase[q1] . nil + a!1 . nil )',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 9),
     'pchoice { 1/2 -> tau . nil ; 1/2 -> meas Mcomp[q1; x1] . b!1 . nil }',
     'pchoice { 1/2 -> pchoice { 1/2 -> tau . nil ; 1/2 -> meas Mcomp[q1; '
     'x1] . b!1 . nil } ; 1/2 -> pchoice { 1/2 -> tau . nil ; 1/2 -> meas '
     'Mcomp[q1; x1] . b!1 . nil } }',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('rho', 20),
     'meas Mcomp[q1; x1] . a!x1 . a!1 . a!0 . nil',
     'tau . meas Mcomp[q1; x1] . a!x1 . a!1 . a!1 . nil',
     (F, 'ii', H), (F, 'ii', H), (F, 'ii', H)),
    (('q1',), ('rho', 21),
     'a!1 . b!0 . apply Dephase[q1] . nil + a!1 . nil',
     'a!1 . b!0 . apply Dephase[q1] . nil',
     (F, 'ii', H), (F, 'ii', H), (F, 'ii', H)),
    (('q1',), ('rho', 22),
     'pchoice { 1/2 -> tau . nil ; 1/2 -> meas Mcomp[q1; x1] . b!1 . nil }',
     'pchoice { 1/4 -> tau . nil ; 3/4 -> meas Mcomp[q1; x1] . b!1 . nil }',
     (F, 'ii', H), (F, 'ii', H), (F, 'ii', H)),
    (('q1',), ('rho', 23),
     'c!0 . apply H[q1] . nil',
     'c!0 . apply X[q1] . nil',
     (F, 'ii', H), (F, 'ii', H), (F, 'ii', H)),
    (('q1',), ('rho', 24),
     'apply H[q1] . nil',
     'tau . nil',
     (F, 'i', H), (F, 'i', H), (F, 'i', H)),
    (('q1',), ('product', {}),
     'tau . c!0 . nil + tau . c!1 . nil',
     'tau . c!0 . nil + tau . c!1 . nil',
     (H, None, H), (H, None, H), (H, None, H)),
    (('q1',), ('product', {}),
     'tau . c!0 . nil + tau . c!1 . nil',
     'tau . c!0 . nil',
     (F, 'ii', H), (F, 'ii', H), (F, 'ii', H)),
    (('q1', 'q2'), ('product', {'q1': '+', 'q2': '+'}),
     'meas Mcomp[q1; x] . nil',
     'apply Dephase[q1] . nil',
     (F, 'ii', H), (H, None, H), (F, 'ii', F)),
    (('q1',), ('product', {'q1': '+'}),
     'meas Mcomp[q1; x] . apply Set0[q1] . a!x . nil',
     'pchoice { 1/2 -> apply Set0[q1] . a!0 . nil ; 1/2 -> apply Set0[q1] . '
     'a!1 . nil }',
     (H, None, H), (H, None, H), (F, 'ii', F)),
]

ENGINES = (
    ("state-based", lambda c, d, s: decide_state_based(c, d, s)),
    ("relation-search", lambda c, d, s: decide_bisim(c, d, s, mode="relation-search")),
    ("exhaustive", lambda c, d, s: check_lambda_relation(
        [(c, d)], 0.0, s, mode="exhaustive")),
)


def _build(qubits, state, left, right):
    register = QubitRegister.of(list(qubits))
    system = System(parse_module("Dummy := nil"), register=register)
    kind, arg = state
    if kind == "rho":
        matrix = random_density(np.random.default_rng(arg), 2 ** len(qubits))
    else:
        matrix = QuantumState.product(register, arg or None)
    return system, system.config(left, matrix), system.config(right, matrix)


@pytest.mark.parametrize("case", CASES, ids=[f"case{k:02d}" for k in range(len(CASES))])
def test_pinned_verdicts(case):
    qubits, state, left, right, *expected = case
    system, c, d = _build(qubits, state, left, right)
    for (mode, run), (holds, clause, verified) in zip(ENGINES, expected):
        report = run(c, d, system)
        assert (report.holds, report.mode, report.clause) == (holds, mode, clause)
        if report.holds:
            got = check_ground_bisim_relation(report.witness, system,
                                              mode="exhaustive").holds
        else:
            got = replay_refutation(report, system)
        assert got == verified, mode
