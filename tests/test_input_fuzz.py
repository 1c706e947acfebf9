"""The input boundary under arbitrary JSON: a model, a scenario or a formula
either loads or raises one of the typed errors the CLI reports as one
``error:`` line (exit 2, or 3 for a resource limit), never anything else."""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from limitknow.attest import ProtocolError, load_scenario
from limitknow.frame import FrameError, ResourceLimitError, load_frame
from limitknow.logic import EvalError, ParseError, parse
from randgen import field_paths, with_field

MODEL = os.path.join(os.path.dirname(__file__), "fixtures", "model3.json")
with open(MODEL) as fh:
    MODEL_DOC = json.load(fh)
SCENARIO_DOC = {
    "frame": MODEL,
    "target": "@p",
    "protocol": {
        "type": "explicit",
        "strategies": {"a": [{"evidence": ["x", "y", "z"], "verdict": "yes"}]},
        "success_target": "z",
    },
    "world": "z",
    "faults": [],
    "seed": 5,
    "step_cap": 4,
}
CLI_ERRORS = (FrameError, ParseError, EvalError, ProtocolError, ResourceLimitError)

# Strings lean towards names the documents use, so replacements often
# reach the checks past the first type test.
names = st.sampled_from(["x", "y", "z", "a", "p", "@p", "yes", "explicit", "synthesized"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | names | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(names, inner, max_size=4),
    max_leaves=10,
)
fuzz = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@fuzz
@given(st.sampled_from(list(field_paths(MODEL_DOC))), json_values)
def test_load_frame_returns_or_raises_frame_error(path, value):
    try:
        load_frame(with_field(MODEL_DOC, path, value))
    except FrameError:
        pass


@fuzz
@given(
    st.sampled_from(["synthesized", "explicit"]),
    st.sampled_from(list(field_paths(SCENARIO_DOC))),
    json_values,
)
def test_load_scenario_returns_or_raises_a_cli_error(tmp_path_factory, kind, path, value):
    document = with_field(with_field(SCENARIO_DOC, ("protocol", "type"), kind), path, value)
    scenario = tmp_path_factory.getbasetemp() / "scenario.json"
    scenario.write_text(json.dumps(document))
    try:
        load_scenario(str(scenario))
    except CLI_ERRORS:
        pass


@fuzz
@given(st.text(max_size=30) | st.text(alphabet="pq()~&|->[]SRCIBGLa, ", max_size=30))
def test_parse_returns_or_raises_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass
