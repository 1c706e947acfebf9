"""Every library entry point, with each data argument in turn replaced by a
value of the wrong type or out of range: the call returns, or it raises one
of the library's own errors, so no ``TypeError``, ``KeyError`` or other
crash escapes. A value returned is not compared (``Frame.mask({})`` is the
empty set). An argument that is a library object instead fails as Python
fails on a wrong type."""

import ast
import dataclasses
import json
from collections.abc import Iterator
from pathlib import Path

import pytest

import limitknow
from limitknow import (
    EvalError,
    Formula,
    Frame,
    FrameError,
    Model,
    OperatorContext,
    ParseError,
    ProtocolError,
    ResourceLimitError,
    Scenario,
    Topology,
    Verdict,
    generate_stream,
    load_frame,
    load_scenario,
    parse,
    synthesize,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODEL_FILE = str(FIXTURES / "model3.json")
SCENARIO_FILE = str(FIXTURES / "scenario3.json")

# Worlds x, y, z; agent a, tolerance 1, basis {x,y,z}, {y,z}, {z}.
with open(MODEL_FILE) as fh:
    MODEL_DATA = json.load(fh)
FRAME, VALUATION = load_frame(MODEL_DATA)
X, Y, Z = 0b001, 0b010, 0b100
BASIS = FRAME.agent("a").basis
TOPOLOGY = FRAME.topology("a")
MODEL = Model(FRAME, VALUATION)
FORMULA = parse("S[a] p")
METHOD = {X | Y | Z: Verdict.NO, Y | Z: Verdict.YES, Z: Verdict.NO}
PROTOCOL = synthesize(FRAME, Y | Z)
STREAMS = {"a": generate_stream(FRAME, "a", "z", 0)}
SCENARIO = load_scenario(SCENARIO_FILE)

# The arguments of one valid call per name the package exports (but the
# constant INFINITE) and per public method of Frame, Topology and
# OperatorContext, called on FRAME, TOPOLOGY and a fresh context.
CALLS = {
    "AgentSpec": ("a", BASIS, 1),
    "BasisReport": ((), TOPOLOGY.neighborhoods),
    "BasisViolation": ("empty-element",),
    "CheckResult": (True, ()),
    "EvalError": ("message",),
    "Formula": (),
    "Frame": (FRAME.worlds, FRAME.agents),
    "FrameError": ("message",),
    "LawReport": ((),),
    "Model": (FRAME, VALUATION),
    "OperatorContext": (FRAME,),
    "ParseError": ("message", 0),
    "ProtocolError": ("message",),
    "RankResult": ((Y | Z,),),
    "ResourceLimitError": ("message",),
    "Scenario": (FRAME, Y | Z, PROTOCOL, "z", (), 7, None),
    "SimulationReport": ("z", {"a": (Verdict.YES,)}, (Verdict.YES,), (), ()),
    "Topology": (TOPOLOGY.universe, TOPOLOGY.neighborhoods),
    "Verdict": ("yes",),
    "chain_from_method": (METHOD, 1),
    "check": (MODEL, FORMULA),
    "choose_success_set": (FRAME, Y | Z, None),
    "closed_rank": (TOPOLOGY, Y | Z),
    "evaluate": (MODEL, FORMULA),
    "generate_stream": (FRAME, "a", "z", 0),
    "generate_topology": (BASIS,),
    "gives_reason": (FRAME, "a", Y | Z, Y | Z),
    "law_battery": (MODEL, 1, 0),
    "limit_verdicts": (METHOD,),
    "limit_yes_set": (METHOD,),
    "load_frame": (MODEL_DATA,),
    "load_frame_file": (MODEL_FILE,),
    "load_scenario": (SCENARIO_FILE,),
    "max_switches": (METHOD, Verdict.YES),
    "method_from_chain": ((Y | Z,), BASIS),
    "min_switches": (FRAME, "a", Y | Z),
    "nested_difference": ((X | Y | Z, Y | Z),),
    "open_rank": (TOPOLOGY, Y | Z),
    "parse": ("S[a] p",),
    "print_formula": (FORMULA,),
    "run_scenario": (SCENARIO,),
    "simulate": (FRAME, PROTOCOL, "z", STREAMS, (), Y | Z, 7, None),
    "synthesize": (FRAME, Y | Z, None),
    "validate_basis": (BASIS, FRAME.universe),
    "verify_protocol": (FRAME, PROTOCOL, Y | Z),
    "Frame.agent": ("a",),
    "Frame.check_subset": (Y | Z,),
    "Frame.evidence_at": ("a", "z"),
    "Frame.index": ("x",),
    "Frame.mask": (["x", "z"],),
    "Frame.names": (Y | Z,),
    "Frame.position": ("y",),
    "Frame.subspace": ("a", Y | Z),
    "Frame.topology": ("a",),
    "Frame.with_tolerances": ({"a": 0},),
    "Topology.check_subset": (Y | Z,),
    "Topology.hull": (Y,),
    "Topology.interior": (X | Z,),
    "Topology.is_open": (Y | Z,),
    "Topology.meeting": (Y | Z, Y),
    "Topology.rooted": (BASIS,),
    "OperatorContext.believes_via": ("a", Y | Z, Y | Z),
    "OperatorContext.common": (Y | Z,),
    "OperatorContext.everyone_believes_via": (Y | Z, Y | Z),
    "OperatorContext.feasible": (Y | Z,),
    "OperatorContext.generates": (Y | Z, Y | Z),
    "OperatorContext.indicates": ("a", Y | Z, Y | Z),
    "OperatorContext.lewis_common": (Y | Z,),
    "OperatorContext.min_tolerance": ("a", Y | Z),
    "OperatorContext.reason": ("a", Y | Z),
    "OperatorContext.supporting_evidence": ("a", Y | Z),
    "OperatorContext.true_reason": ("a", Y | Z),
    "OperatorContext.true_reason_topology": ("a",),
    "OperatorContext.two_open_family": ("a",),
    "OperatorContext.witnesses": (Y | Z,),
}
OWNERS = {
    "Frame": lambda: FRAME,
    "Topology": lambda: TOPOLOGY,
    "OperatorContext": lambda: OperatorContext(FRAME),
}

BAD = [None, "1", 1.0, True, -1, 5, [1], {}]
LIBRARY_ERRORS = (FrameError, ProtocolError, ParseError, EvalError, ResourceLimitError)
# An argument that is one of these objects is no data: another value there
# fails as Python fails on a wrong type. A record, a dataclass, stores it.
OBJECTS = (Frame, Model, Topology, Formula, Scenario)


def function(name):
    owner, _, attr = name.rpartition(".")
    return getattr(OWNERS[owner]() if owner else limitknow, attr)


def call(fn, args):
    out = fn(*args)
    if isinstance(out, Iterator):  # a generator runs only as it is read
        out = list(out)
    return out


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_argument_of_the_wrong_type_is_a_library_error(name):
    fn, args = function(name), CALLS[name]
    call(fn, args)  # the valid call
    record = dataclasses.is_dataclass(fn)
    escaped = []
    for i, valid in enumerate(args):
        if isinstance(valid, OBJECTS) and not record:
            expected = (TypeError, AttributeError)
        elif fn is Verdict:
            expected = (ValueError,)  # an enum's own lookup error
        else:
            expected = LIBRARY_ERRORS
        for bad in BAD:
            try:
                call(fn, [*args[:i], bad, *args[i + 1 :]])
            except expected:
                continue
            except Exception as exc:
                escaped.append((i, bad, type(exc).__name__, str(exc)[:60]))
            else:
                if expected is not LIBRARY_ERRORS:
                    escaped.append((i, bad, "returned"))
    assert escaped == []


def test_the_sweep_covers_every_export_and_public_method():
    # The names __init__.py imports, and the public methods of the classes
    # that own the in-frame checks, are exactly the table's rows.
    tree = ast.parse(Path(limitknow.__file__).read_text())
    exported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    methods = {
        f"{cls.__name__}.{name}"
        for cls in (Frame, Topology, OperatorContext)
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
    }
    assert set(CALLS) == (exported - {"INFINITE"}) | methods
