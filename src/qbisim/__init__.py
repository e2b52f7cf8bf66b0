"""Bisimulation checking and distance bounds for quantum process configurations.

The layers, bottom up: `quantum` (density operators, super-operators,
measurements over a named register), `calculus` (terms, parsing, static
discipline), `semantics` (configurations and their probabilistic
transition graphs), `bisim` (relation checkers, deciders, and distance
bounds), `bb84` (protocol instances and verdicts built on all of the
above), `cli` (the command-line front end).
"""

from .quantum import (
    BitString,
    Measurement,
    QuantumState,
    QubitRegister,
    SuperOperator,
    builtin,
    partial_trace,
    product_state,
    trace_distance,
)
from .calculus import (
    Module,
    ParseError,
    parse_module,
    parse_term,
    pretty,
)
from .semantics import (
    ConfigDistribution,
    Configuration,
    Label,
    PLTS,
    System,
)
from .bisim import (
    CheckReport,
    DistanceBound,
    RelationCandidate,
    check_ground_bisim_relation,
    check_lambda_relation,
    confluence_check,
    decide_bisim,
    decide_state_based,
    distance_upper_bound,
    is_transition_consistent,
    replay_refutation,
    tc_decompose,
)
from .bb84 import (
    ProtocolInstance,
    SECURITY_CONSTANT,
    build_bb84_security_test,
    build_bb84_spec,
    build_bb84_test,
    forbidden_action_probability,
    security_bound,
    verify_security,
    verify_soundness,
)
from .errors import (
    BudgetExceededError,
    ConfluenceError,
    CyclicModelError,
    QbisimError,
    QuantumInputFragmentError,
    WellFormednessError,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
