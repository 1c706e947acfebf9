"""CLI subcommands: dispatch, exit codes, and stable JSON payloads."""

import importlib
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

from limitknow import cli
from limitknow.attest import MAX_STEPS
from limitknow.cli import build_parser, main
from limitknow.frame import AgentSpec, Frame, FrameError, validate_basis
from limitknow.logic import Model
from limitknow.operators import OperatorContext
from randgen import with_field

MODEL = os.path.join(os.path.dirname(__file__), "fixtures", "model3.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_check_valid_formula(capsys):
    code, out, _ = run(capsys, "check", "-m", MODEL, "-f", "S[a] p -> p")
    assert code == 0 and out.strip() == "valid"


def test_check_invalid_formula_exits_one(capsys):
    code, payload, _ = run_json(capsys, "check", "-m", MODEL, "-f", "p -> C q")
    assert code == 1
    assert payload["valid"] is False
    assert payload["counterexamples"] == ["x", "z"]
    assert payload["schema"] == 1


def test_check_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "check", "-m", MODEL, "-f", "p & ")
    assert code == 2 and "error" in err


def test_missing_model_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "-m", "no-such.json", "-f", "p")
    assert code == 2 and "error" in err


def test_eval_reports_extension(capsys):
    code, payload, _ = run_json(capsys, "eval", "-m", MODEL, "-f", "C p")
    assert code == 0 and payload["extension"] == ["x", "z"]


def test_rank_matches_hierarchy_example(capsys):
    code, payload, _ = run_json(capsys, "rank", "-m", MODEL, "-a", "a", "-s", "x,z")
    assert code == 0
    assert payload["open_rank"] == 3
    assert payload["open_witness"] == [["x", "y", "z"], ["y", "z"], ["z"]]
    assert payload["closed_rank"] == 2


def test_rank_infinite_is_reported(capsys, tmp_path):
    indiscrete = tmp_path / "indiscrete.json"
    indiscrete.write_text(
        json.dumps(
            {
                "worlds": ["u", "v"],
                "agents": [{"name": "a", "tolerance": 1, "basis": [["u", "v"]]}],
            }
        )
    )
    code, payload, _ = run_json(capsys, "rank", "-m", str(indiscrete), "-a", "a", "-s", "u")
    assert code == 0 and payload["open_rank"] == "infinite"
    assert payload["open_witness"] is None


@pytest.mark.parametrize(
    "op, flags, formula",
    [
        ("R", ["-a", "a"], "R[a] p"),
        ("S", ["-a", "a"], "S[a] p"),
        ("I", ["-a", "a", "-w", "z"], "I[a @ R[a] p] p"),
        ("B", ["-a", "a", "-w", "z"], "B[a @ R[a] p] p"),
        ("G", ["-w", "z"], "G[R[a] p] p"),
        ("C", [], "C p"),
    ],
    ids=["R", "S", "I", "B", "G", "C"],
)
def test_ops_agrees_with_eval(capsys, op, flags, formula):
    # In the model, p is {x,z} and R[a] p is {z}.
    code, by_ops, _ = run_json(capsys, "ops", "-m", MODEL, "--op", op, "-p", "x,z", *flags)
    assert code == 0
    code, by_eval, _ = run_json(capsys, "eval", "-m", MODEL, "-f", formula)
    assert code == 0
    assert by_ops["result"] == by_eval["extension"]


def test_ops_lewis_common_agrees_with_the_operator(capsys):
    model = Model.from_file(MODEL)
    for spec in ("x,z", "y,z", "z", "x,y,z"):
        code, payload, _ = run_json(capsys, "ops", "-m", MODEL, "--op", "L", "-p", spec)
        assert code == 0
        expected = model.context.lewis_common(model.frame.mask(spec.split(",")))
        assert payload["result"] == list(model.frame.names(expected))


def test_ops_formula_operand_and_witness(capsys):
    code, payload, _ = run_json(
        capsys, "ops", "-m", MODEL, "-a", "a", "--op", "B", "-p", "z", "-w", "@p"
    )
    assert code == 0 and payload["result"] == ["z"]
    code, payload, _ = run_json(capsys, "ops", "-m", MODEL, "--op", "C", "-p", "@p")
    assert code == 0 and payload["result"] == ["x", "z"]


def test_ops_flag_validation(capsys):
    code, _, err = run(capsys, "ops", "-m", MODEL, "--op", "R", "-p", "x")
    assert code == 2 and "--agent" in err
    code, _, err = run(capsys, "ops", "-m", MODEL, "-a", "a", "--op", "I", "-p", "x")
    assert code == 2 and "--witness" in err
    code, _, err = run(capsys, "ops", "-m", MODEL, "-a", "a", "--op", "C", "-p", "x")
    assert code == 2


@pytest.mark.parametrize("op", ["C", "G", "L"])
def test_ops_rejects_an_empty_agent_it_does_not_take(capsys, op):
    witness = ["-w", "z"] if op == "G" else []
    code, out, err = run(capsys, "ops", "-m", MODEL, "--op", op, "-a", "", "-p", "x", *witness)
    assert (code, out, err) == (2, "", f"error: operator {op} does not take --agent\n")


def test_ops_reads_an_empty_agent_as_an_agent_name(capsys):
    code, out, err = run(capsys, "ops", "-m", MODEL, "--op", "R", "-a", "", "-p", "x")
    assert (code, out, err) == (2, "", "error: unknown agent ''\n")


@pytest.mark.parametrize(
    "op, flags",
    [("R", ["-a", "a"]), ("S", ["-a", "a"]), ("C", []), ("L", [])],
    ids=["R", "S", "C", "L"],
)
def test_ops_rejects_a_witness_it_does_not_take(capsys, op, flags):
    # The flag is refused before any world set is read, a bad formula included.
    for witness in ("x", "@p &"):
        code, out, err = run(capsys, "ops", "-m", MODEL, "--op", op, "-p", "x", "-w", witness, *flags)
        assert (code, out, err) == (2, "", f"error: operator {op} does not take --witness\n")


def test_synth_infeasible_names_the_rank(capsys):
    code, out, _ = run(capsys, "synth", "-m", MODEL, "-p", "p", "--target", "x,z")
    assert code == 1
    assert "3 opens" in out and "tolerance allows 2" in out


def test_synth_feasible_prints_tables(capsys):
    code, payload, _ = run_json(capsys, "synth", "-m", MODEL, "-p", "p", "--target", "z")
    assert code == 0
    assert payload["success_set"] == ["z"]
    rows = payload["strategies"]["a"]
    assert {"evidence": ["z"], "verdict": "yes"} in rows


SYNTH_Z = "agent a:\n  {z} -> yes\n  {y, z} -> defer\n  {x, y, z} -> defer\nsuccess set: {z}\n"


@pytest.mark.parametrize(
    "flags, code, out",
    [
        (["--target", "z"], 0, SYNTH_Z),
        ([], 0, SYNTH_Z),  # common knowledge {x, z} needs 3 opens; synthesis falls back
        (
            ["--target", "x,z"],
            1,
            "infeasible: target is not decidable for agent 'a': "
            "needs a chain of 3 opens, tolerance allows 2\n",
        ),
    ],
    ids=["target", "no-target", "infeasible"],
)
def test_synth_prints_the_chosen_success_set_without_verifying(capsys, monkeypatch, flags, code, out):
    # verify_protocol looks _switches up in attest's globals, so any
    # re-verification of the synthesized protocol fails here.
    def refuse(*args):
        raise AssertionError("synth verified its own protocol")

    monkeypatch.setattr("limitknow.attest._switches", refuse)
    assert run(capsys, "synth", "-m", MODEL, "-p", "p", *flags) == (code, out, "")


def test_simulate_scenario(capsys, tmp_path):
    scenario = {
        "frame": MODEL,
        "target": "@p",
        "protocol": {"type": "synthesized", "success_target": "z"},
        "world": "z",
        "faults": [],
        "seed": 5,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, payload, _ = run_json(capsys, "simulate", "-s", str(path))
    assert code == 0
    assert payload["aggregator_limit"] == "yes"
    assert payload["limits"] == {"a": "yes"}
    code, out, _ = run(capsys, "simulate", "-s", str(path))
    assert code == 0 and "aggregator limit: yes" in out
    # attesting on all evidence at z, where the target q fails
    rows = [{"evidence": e, "verdict": "yes"} for e in (["x", "y", "z"], ["y", "z"], ["z"])]
    scenario.update(target="@q", protocol={"type": "explicit", "strategies": {"a": rows}})
    path.write_text(json.dumps(scenario))
    code, out, _ = run(capsys, "simulate", "-s", str(path))
    assert code == 0 and out.splitlines()[-1] == "shame: a at z (false-yes)"


def test_laws_clean_run_exits_zero(capsys):
    code, payload, _ = run_json(capsys, "laws", "-m", MODEL, "--trials", "4", "--seed", "9")
    assert code == 0 and payload["ok"] is True
    names = [r["name"] for r in payload["results"]]
    assert "ax_S4" in names and "rule_G" in names


def test_laws_failure_exits_one_with_the_failing_instances(capsys, monkeypatch):
    monkeypatch.setattr(OperatorContext, "true_reason", lambda self, agent, p: self.frame.universe)
    code, payload, _ = run_json(capsys, "laws", "-m", MODEL, "--trials", "4")
    assert code == 1 and payload["ok"] is False
    failing = [r for r in payload["results"] if r["failures"]]
    assert [r["name"] for r in failing] == ["ax_S2"]
    assert failing[0]["failures"][0] == {
        "instantiation": "S[a] _m1 -> _m1",
        "counterexamples": ["z"],
    }
    code, out, _ = run(capsys, "laws", "-m", MODEL, "--trials", "4")
    assert code == 1
    assert "ax_S2                  trials=4    informative=4    4 FAILURES\n" in out
    assert "    S[a] _m1 -> _m1  fails at z\n" in out
    assert out.endswith("\n4 failures\n")


def test_json_payloads_are_schema_stable(capsys):
    code, payload, _ = run_json(capsys, "rank", "-m", MODEL, "-a", "a", "-s", "y")
    assert code == 0
    assert sorted(payload) == [
        "closed_rank",
        "closed_witness",
        "open_rank",
        "open_witness",
        "schema",
        "set",
    ]


SCENARIO_FILE = os.path.join(os.path.dirname(__file__), "fixtures", "scenario3.json")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "-m", MODEL, "-f", "S[a] p -> p"], 0),
        (["check", "-m", MODEL, "-f", "p"], 1),
        (["eval", "-m", MODEL, "-f", "C p"], 0),
        (["rank", "-m", MODEL, "-a", "a", "-s", "x,z"], 0),
        (["ops", "-m", MODEL, "--op", "R", "-a", "a", "-p", "x,z"], 0),
        (["ops", "-m", MODEL, "--op", "S", "-a", "a", "-p", "x,z"], 0),
        (["ops", "-m", MODEL, "--op", "I", "-a", "a", "-w", "z", "-p", "x,z"], 0),
        (["ops", "-m", MODEL, "--op", "B", "-a", "a", "-w", "z", "-p", "x,z"], 0),
        (["ops", "-m", MODEL, "--op", "G", "-w", "z", "-p", "x,z"], 0),
        (["ops", "-m", MODEL, "--op", "C", "-p", "x,z"], 0),
        (["ops", "-m", MODEL, "--op", "L", "-p", "x,z"], 0),
        (["synth", "-m", MODEL, "-p", "p", "--target", "z"], 0),
        (["synth", "-m", MODEL, "-p", "p", "--target", "x,z"], 1),
        (["simulate", "-s", SCENARIO_FILE], 0),
        (["laws", "-m", MODEL, "--trials", "2"], 0),
    ],
    ids=[
        "check-valid", "check-invalid", "eval", "rank", "ops-R", "ops-S", "ops-I", "ops-B",
        "ops-G", "ops-C", "ops-L", "synth-feasible", "synth-infeasible", "simulate", "laws",
    ],
)
def test_json_reports_are_one_line_with_sorted_keys(capsys, argv, code):
    # One line from the C encoder: default separators, keys sorted, no indent.
    got, out, err = run(capsys, *argv, "--json")
    assert (got, err) == (code, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert payload["schema"] == 1


def test_world_set_fallback_reports_unknown_names(capsys):
    code, _, err = run(capsys, "rank", "-m", MODEL, "-a", "a", "-s", "x,ghost")
    assert code == 2 and "ghost" in err


def opposed_chains_model(tmp_path, n):
    """n worlds, agent a learning suffixes and b prefixes, both tolerance 1;
    p is every world but w0, w1 and w2."""
    worlds = [f"w{i}" for i in range(n)]
    path = tmp_path / f"chains{n}.json"
    path.write_text(
        json.dumps(
            {
                "worlds": worlds,
                "agents": [
                    {"name": "a", "tolerance": 1, "basis": [worlds[k:] for k in range(n)]},
                    {"name": "b", "tolerance": 1, "basis": [worlds[: k + 1] for k in range(n)]},
                ],
                "valuation": {"p": worlds[3:]},
            }
        )
    )
    return str(path), worlds


def test_inductive_operators_past_twenty_worlds(capsys, tmp_path):
    model, worlds = opposed_chains_model(tmp_path, 24)
    code, payload, _ = run_json(capsys, "ops", "-m", model, "-a", "a", "--op", "S", "-p", "@p")
    assert code == 0 and payload["result"] == worlds[3:]
    code, payload, _ = run_json(capsys, "ops", "-m", model, "--op", "C", "-p", "@p")
    assert code == 0 and payload["result"] == worlds[3:]
    code, payload, _ = run_json(capsys, "synth", "-m", model, "-p", "@p")
    assert code == 0 and payload["success_set"] == worlds[3:]


def test_lewis_cap_is_a_resource_limit(capsys, tmp_path):
    model, worlds = opposed_chains_model(tmp_path, 20)
    operand = ",".join(w for w in worlds if w not in ("w1", "w3"))
    for command in (["ops", "--op", "L"], ["synth"]):  # L and target-free synth share the cap
        code, out, err = run(capsys, *command, "-m", model, "-p", operand)
        assert code == 3 and out == ""
        assert err == "error: resource limit: witness enumeration over 18 worlds exceeds cap 16\n"


@pytest.mark.parametrize("formula", ["(" * 400 + "p" + ")" * 400, "~" * 1000 + "p"])
def test_too_deep_formula_is_one_error_line(capsys, formula):
    code, out, err = run(capsys, "check", "-m", MODEL, "-f", formula)
    assert code == 2 and out == ""
    assert err.startswith("error: formula nests deeper than") and err.count("\n") == 1


@pytest.mark.parametrize("op", ["->", "&", "|", "<->"])
def test_a_long_chain_is_one_depth_error(capsys, op):
    formula = f" {op} ".join(["p"] * 5000)
    code, out, err = run(capsys, "check", "-m", MODEL, "-f", formula)
    assert (code, out) == (2, "")
    assert err == "error: formula nests deeper than 100 levels (at position 0)\n"


def test_an_implication_inside_99_parentheses_evaluates(capsys):
    code, payload, _ = run_json(capsys, "eval", "-m", MODEL, "-f", "(" * 99 + "p -> q" + ")" * 99)
    assert code == 0 and payload["extension"] == ["y"]


with open(MODEL) as fh:
    MODEL3 = json.load(fh)


@pytest.mark.parametrize(
    "path, value",
    [
        (("valuation",), 5),
        (("valuation", "p"), 3),
        (("valuation", "p"), "xz"),
        (("valuation",), None),
        (("worlds",), "xyz"),
        (("worlds", 0), ["x"]),
        (("agents",), {"a": 1}),
        (("agents", 0), "a"),
        (("agents", 0, "name"), ["a"]),
        (("agents", 0, "tolerance"), True),
        (("agents", 0, "tolerance"), 1.7),
        (("agents", 0, "basis"), "xyz"),
        (("agents", 0, "basis", 1), "yz"),
        (("valuation", "top"), ["y"]),  # no formula can name these propositions
        (("valuation", "bot"), []),
        (("valuation", "p q"), ["x"]),
        (("valuation", ""), ["x"]),
        (("valuation", "2p"), ["x"]),
    ],
)
def test_malformed_model_is_one_error_line(capsys, tmp_path, path, value):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(with_field(MODEL3, path, value)))
    code, out, err = run(capsys, "eval", "-m", str(model), "-f", "top")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_basis_with_many_violations_is_one_short_error_line(capsys, tmp_path):
    # 300 elements {w0, wi}: each pair meets in {w0}, which no element
    # refines, so every one of the 44,850 pairs is not directed at w0.
    worlds = [f"w{i}" for i in range(301)]
    basis = tuple([1 | 1 << i for i in range(1, 301)])
    assert len(validate_basis(basis, (1 << 301) - 1).violations) == 1
    with pytest.raises(FrameError) as info:
        Frame(worlds, [AgentSpec("a", basis, 0)])
    assert len(str(info.value)) < 200
    model = tmp_path / "model.json"
    agent = {"name": "a", "tolerance": 0, "basis": [["w0", w] for w in worlds[1:]]}
    model.write_text(json.dumps({"worlds": worlds, "agents": [agent]}))
    code, out, err = run(capsys, "eval", "-m", str(model), "-f", "top")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("name", ["a"], "agent names must be unique and non-empty strings"),
        ("name", 5, "agent names must be unique and non-empty strings"),
        ("tolerance", True, "agent a: tolerance must be an integer"),
        ("tolerance", "1", "agent a: tolerance must be an integer"),
        ("tolerance", -1, "agent a: tolerance must be >= 0"),
    ],
    ids=["list-name", "int-name", "bool-tolerance", "string-tolerance", "negative-tolerance"],
)
def test_an_agent_name_or_tolerance_is_checked_once_by_the_frame(
    capsys, tmp_path, field, value, message
):
    # The loader leaves these fields to Frame, so its messages reach the CLI.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(with_field(MODEL3, ("agents", 0, field), value)))
    assert run(capsys, "eval", "-m", str(model), "-f", "top") == (2, "", f"error: {message}\n")


SCENARIO = {
    "frame": MODEL,
    "target": "@p",
    "protocol": {"type": "synthesized", "success_target": "z"},
    "world": "z",
    "faults": [],
    "seed": 5,
}
EXPLICIT = {"type": "explicit", "strategies": {"a": [{"evidence": ["z"], "verdict": "yes"}]}}


@pytest.mark.parametrize(
    "path, value",
    [
        (("step_cap",), "x"),
        (("step_cap",), True),
        (("step_cap",), 2.5),
        (("protocol",), [EXPLICIT]),
        (("protocol",), dict(EXPLICIT, strategies=[1])),
        (("protocol",), dict(EXPLICIT, strategies={"a": [["z"]]})),
        (("protocol",), dict(EXPLICIT, strategies={"a": [{"evidence": "z", "verdict": "yes"}]})),
        (("faults",), "a"),
        (("faults",), None),
        (("seed",), [1, 2]),
        (("seed",), True),
        (("world",), ["z"]),
        (("target",), [["z"]]),
        (("frame",), 5),
        (("target",), ""),
        (("target",), "x,ghost"),
        (("protocol",), dict(EXPLICIT, strategies={"a": [
            {"evidence": ["x", "y", "z"], "verdict": "defer"},
            {"evidence": ["y", "z"], "verdict": "defer"},
            {"evidence": ["z"], "verdict": "maybe"},
        ]})),
        (("protocol",), dict(EXPLICIT, strategies={"a": [
            {"evidence": ["x", "y", "z"], "verdict": "defer"},
            {"evidence": ["y", "z"], "verdict": "defer"},
            {"evidence": ["z"], "verdict": "yes"},
            {"evidence": ["z"], "verdict": "defer"},
        ]})),
        (("schema",), 2),
    ],
)
def test_malformed_scenario_is_one_error_line(capsys, tmp_path, path, value):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(with_field(SCENARIO, path, value)))
    code, out, err = run(capsys, "simulate", "-s", str(scenario))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_inputs_are_one_error_line(capsys, tmp_path):
    undecodable = tmp_path / "model.json"
    undecodable.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "eval", "-m", str(undecodable), "-f", "top")
    assert code == 2 and out == "" and err.count("\n") == 1
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(with_field(SCENARIO, ("frame",), "model\0.json")))
    code, out, err = run(capsys, "simulate", "-s", str(scenario))
    assert code == 2 and out == "" and err.count("\n") == 1


def test_unreadable_files_are_named_by_kind(capsys, tmp_path):
    missing, broken = str(tmp_path / "missing.json"), tmp_path / "broken.json"
    broken.write_text("{")
    try:
        open(missing)
    except OSError as exc:
        not_found = str(exc)
    try:
        json.loads("{")
    except json.JSONDecodeError as exc:
        not_json = str(exc)
    for argv, what in ((["eval", "-f", "top", "-m"], "model file"), (["simulate", "-s"], "scenario")):
        expected = f"error: cannot read {what} {missing}: {not_found}\n"
        assert run(capsys, *argv, missing) == (2, "", expected)
        expected = f"error: {what} {broken} is not valid JSON: {not_json}\n"
        assert run(capsys, *argv, str(broken)) == (2, "", expected)


def test_step_cap_past_the_limit_is_a_resource_limit(capsys, tmp_path):
    scenario = tmp_path / "scenario.json"
    for step_cap, expected in ((MAX_STEPS, 0), (MAX_STEPS + 1, 3), (10**6, 3)):
        scenario.write_text(json.dumps(dict(SCENARIO, step_cap=step_cap)))
        code, out, err = run(capsys, "simulate", "-s", str(scenario))
        assert code == expected
        if expected == 3:
            assert out == ""
            assert err == f"error: resource limit: step cap {step_cap} exceeds {MAX_STEPS} steps\n"


EMPTY_SET = "error: not a world list (unknown: []) and not an evaluable formula: ''\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "-m", MODEL, "-p", "p", "--target", ""],
        ["ops", "-m", MODEL, "-a", "a", "--op", "I", "-p", "x", "-w", ""],
        ["ops", "-m", MODEL, "-a", "a", "--op", "B", "-p", "x", "-w", ""],
        ["ops", "-m", MODEL, "--op", "C", "-p", ""],
        ["rank", "-m", MODEL, "-a", "a", "-s", ""],
    ],
)
def test_an_empty_set_flag_is_an_input_error(capsys, argv):
    # A set flag that is given is read as a world set, even when empty.
    assert run(capsys, *argv) == (2, "", EMPTY_SET)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_laws_needs_at_least_one_trial(capsys, trials):
    code, out, err = run(capsys, "laws", "-m", MODEL, "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: the battery needs at least one trial, not {trials}\n"


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_share_no_state_through_the_parser(capsys, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    check = ["check", "-m", MODEL, "-f", "S[a] p -> p"]
    usage_error = ["check", "-m", MODEL]  # -f is required
    calls = [
        check,
        usage_error,
        ["laws", "-m", MODEL, "--trials", "3", "--json"],
        ["simulate", "-s", str(scenario), "--json"],
        check,
    ]

    def call(argv):
        if argv is not usage_error:
            return run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, *capsys.readouterr()

    first = [call(argv) for argv in calls]
    again = [call(argv) for argv in calls]
    assert first == again
    assert first[0] == first[-1] == (0, "valid\n", "")
    code, out, err = first[1]
    assert (code, out) == (2, "") and "required: -f/--formula" in err
    assert [code for code, _, _ in first[2:4]] == [0, 0]


# Each subcommand's options as groups of tokens, in each of their spellings.
# The values of --op and --trials go through choices and type, and three
# spellings are usage errors: a value outside the choices, one that fails
# its type, and one that starts with "-".
OPTION_GROUPS = {
    "check": [
        (["-m", MODEL], ["--model", MODEL]),
        (["-f", "p"], ["--formula", "p"], ["-f", "-p"]),
        (["--json"],),
    ],
    "eval": [(["-m", MODEL],), (["-f", "C p"], ["--formula", "C p"]), (["--json"],)],
    "rank": [
        (["-m", MODEL],),
        (["-a", "a"], ["--agent", "a"]),
        (["-s", "x,z"], ["--set", "x,z"]),
        (["--json"],),
    ],
    "ops": [
        (["-m", MODEL],),
        (["--op", "G"], ["--op", "R"], ["--op", "X"]),
        (["-p", "@p"], ["--set", ""]),
        (["-a", "a"], ["--agent", ""]),
        (["-w", "z"], ["--witness", "@R[a] p"]),
        (["--json"],),
    ],
    "synth": [
        (["-m", MODEL],),
        (["-p", "p"], ["--prop", "@p"]),
        (["--target", "z"],),
        (["--json"],),
    ],
    "simulate": [(["-s", SCENARIO_FILE], ["--scenario", SCENARIO_FILE]), (["--json"],)],
    "laws": [
        (["-m", MODEL],),
        (["--trials", "7"], ["--trials", "20"], ["--trials", "x"]),
        (["--seed", "3"],),
        (["--json"],),
    ],
}


def parsed(argv):
    """``build_parser().parse_args(argv)``, or None when it exits."""
    try:
        return build_parser().parse_args(argv)
    except SystemExit:
        return None


@pytest.mark.parametrize("command", sorted(OPTION_GROUPS))
def test_the_plain_reader_matches_argparse_in_every_order(capsys, command):
    # Every subset of the option groups in every order, each group in each
    # spelling: the reader answers exactly when argparse accepts the call,
    # which here is when every required option is given in a plain
    # spelling, and it answers as argparse does.
    groups = OPTION_GROUPS[command]
    answered = 0
    for k in range(len(groups) + 1):
        for chosen in itertools.permutations(groups, k):
            for spelling in range(3):
                argv = [command] + [t for g in chosen for t in g[spelling % len(g)]]
                want = parsed(argv)
                got = cli._read_plain(argv)
                assert (got is None) == (want is None), argv
                if want is not None:
                    assert vars(got) == vars(want), argv
                    answered += 1
    capsys.readouterr()
    assert answered > 0


NOT_PLAIN = {
    "empty": [],
    "help": ["-h"],
    "command-help": ["check", "-h"],
    "unknown-command": ["prove", "-m", MODEL, "-f", "p"],
    "abbreviation": ["check", "--mod", MODEL, "-f", "p"],
    "equals": ["check", f"--model={MODEL}", "-f", "p"],
    "attached": ["check", f"-m{MODEL}", "-f", "p"],
    "repeated-option": ["check", "-m", MODEL, "-m", MODEL, "-f", "p"],
    "repeated-flag": ["check", "-m", MODEL, "-f", "p", "--json", "--json"],
    "negative-trials": ["laws", "-m", MODEL, "--trials", "-3"],
    "negative-seed": ["laws", "-m", MODEL, "--trials", "2", "--seed", "-5"],
    "bad-type": ["laws", "-m", MODEL, "--trials", "x"],
    "bad-choice": ["ops", "-m", MODEL, "--op", "X", "-p", "x"],
    "extra-token": ["check", "-m", MODEL, "-f", "p", "p"],
    "missing-required": ["check", "-m", MODEL],
    "double-dash": ["check", "-m", MODEL, "--", "-f", "p"],
    "option-as-value": ["check", "-m", MODEL, "-f", "-p"],
    "not-a-str": ["check", "-m", MODEL, "-f", 5],
}


@pytest.mark.parametrize("argv", NOT_PLAIN.values(), ids=NOT_PLAIN.keys())
def test_the_plain_reader_declines_every_other_call(argv):
    assert cli._read_plain(argv) is None


def outcome(capsys, argv):
    """What ``main(argv)`` does: the code it returns, the ``SystemExit``
    code, or the exception it raises, with stdout and stderr."""
    try:
        result = ("return", main(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    except Exception as exc:  # compared, not swallowed: both sides must raise alike
        result = ("raise", type(exc), str(exc))
    return result, *capsys.readouterr()


@pytest.mark.parametrize("argv", NOT_PLAIN.values(), ids=NOT_PLAIN.keys())
def test_main_answers_a_declined_call_as_argparse_does(capsys, monkeypatch, argv):
    mine = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
    assert mine == outcome(capsys, argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "-m", MODEL, "-f", 5], "every command-line argument must be a string"),
        (f"check -m {MODEL} -f p", "argv must be a list of strings, not one string"),
        (5, "argv must be a list of strings, not 5"),
    ],
    ids=["not-a-str-token", "one-string", "not-iterable"],
)
def test_main_refuses_an_argv_that_is_no_list_of_strings(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert err.startswith("usage: limitknow") and err.endswith(f"limitknow: error: {message}\n")


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_gen():
    """bench/gen.py, and the oracle it imports, loaded without writing any
    bytecode under bench/ and dropped from ``sys.modules`` at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(BENCH))
        try:
            return importlib.import_module("gen")
        finally:
            sys.modules.pop("gen", None)
            sys.modules.pop("oracle", None)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["cli-small", "cli-large"])
def test_benchmark_traffic_takes_the_plain_path(bench_gen, tmp_path, workload, seed):
    ops, _ = bench_gen.make_cli(workload, seed, str(tmp_path), tiny=True)
    assert ops
    for op in ops:
        got = cli._read_plain(op["argv"])
        assert got is not None, op["argv"]
        assert vars(got) == vars(build_parser().parse_args(op["argv"]))
