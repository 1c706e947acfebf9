"""Finite-frame engine for evidence topologies, limit decision methods,
inductive knowledge operators, a modal formula language with a model checker,
and attestation protocols for the inductive coordinated-attack problem."""

from .frame import (
    AgentSpec,
    BasisReport,
    BasisViolation,
    Frame,
    FrameError,
    ResourceLimitError,
    Topology,
    generate_topology,
    load_frame,
    load_frame_file,
    validate_basis,
)
from .hierarchy import (
    INFINITE,
    DescendingOpenChain,
    RankResult,
    Verdict,
    chain_from_method,
    closed_rank,
    gives_reason,
    limit_verdicts,
    limit_yes_set,
    max_switches,
    method_from_chain,
    min_switches,
    nested_difference,
    open_rank,
)
from .operators import OperatorContext
from .logic import (
    CheckResult,
    EvalError,
    Formula,
    Model,
    ParseError,
    check,
    evaluate,
    parse,
    print_formula,
)
from .laws import LawReport, law_battery
from .attest import (
    ProtocolError,
    Scenario,
    SimulationReport,
    choose_success_set,
    generate_stream,
    load_scenario,
    run_scenario,
    simulate,
    synthesize,
    verify_protocol,
)

__version__ = "0.1.0"
