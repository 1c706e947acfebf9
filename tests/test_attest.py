"""Attestation protocols: verification, synthesis, streams, and simulation."""

import itertools
import json
import os
import random
from dataclasses import asdict

import pytest

from limitknow import attest
from limitknow.attest import (
    ATTEST,
    DEFER,
    ProtocolError,
    generate_stream,
    load_scenario,
    run_scenario,
    simulate,
    synthesize,
    verify_protocol,
)
from limitknow.frame import AgentSpec, Frame, FrameError, load_frame_file, submasks
from limitknow.hierarchy import limit_yes_set, open_rank
from limitknow.operators import OperatorContext
from randgen import CHAIN, chain_frame, random_frame


def constant_protocol(frame, verdict):
    return {a.name: {e: verdict for e in a.basis} for a in frame.agents}


# ---------------------------------------------------------------------------
# verification


def test_all_defer_satisfies_validity_and_agreement_only():
    frame = chain_frame()
    report = verify_protocol(frame, constant_protocol(frame, DEFER), 0b010)
    assert report.validity and report.agreement and not report.nontriviality
    assert not report.solves and report.success_set == 0


def test_all_attest_solves_for_the_full_universe():
    frame = chain_frame()
    report = verify_protocol(frame, constant_protocol(frame, ATTEST), frame.universe)
    assert report.solves and report.success_set == frame.universe


def test_disagreement_between_strategies():
    frame = chain_frame()
    # strategy from the chain [{y,z},{z}] settles on {y}; all-defer settles on {}
    protocol = {
        "a": {0b111: DEFER, 0b110: ATTEST, 0b100: DEFER},
        "b": {e: DEFER for e in CHAIN},
    }
    report = verify_protocol(frame, protocol, 0b010)
    assert report.limit_yes == {"a": 0b010, "b": 0}
    assert report.validity and not report.agreement and not report.nontriviality


def test_switch_bounds_are_reported():
    frame = chain_frame(tolerance=0)
    alternating = {0b111: ATTEST, 0b110: DEFER, 0b100: ATTEST}
    stay = {e: ATTEST for e in CHAIN}
    report = verify_protocol(frame, {"a": alternating, "b": stay}, frame.universe)
    assert not report.switch_bounds["a"].ok
    assert report.switch_bounds["b"].ok


def test_protocol_shape_is_checked():
    frame = chain_frame()
    with pytest.raises(ProtocolError):
        verify_protocol(frame, {"a": {e: DEFER for e in CHAIN}}, 0)
    with pytest.raises(ProtocolError):
        verify_protocol(frame, {"a": {0b111: DEFER}, "b": {e: DEFER for e in CHAIN}}, 0)
    # a protocol, and each strategy table in it, is a mapping
    streams = make_streams(frame, "x")
    table = {e: DEFER for e in CHAIN}
    cases = [
        ((("a", table), ("b", table)), "a protocol must map each agent name"),
        ({"a": table, "b": list(table.items())}, "strategy for 'b' must map evidence"),
    ]
    for protocol, message in cases:
        with pytest.raises(ProtocolError, match=message):
            verify_protocol(frame, protocol, 0)
        with pytest.raises(ProtocolError, match=message):
            simulate(frame, protocol, "x", streams, [], 0, seed=0)


@pytest.mark.parametrize(
    "keys",
    [
        pytest.param(CHAIN[1:], id="missing"),
        pytest.param(CHAIN + (0b1000,), id="extra"),
        pytest.param(CHAIN[1:] + ("0b111",), id="string"),
        pytest.param(CHAIN[1:] + (None,), id="none"),
        pytest.param(CHAIN[1:] + (frozenset(),), id="frozenset"),
    ],
)
def test_a_strategy_keyed_off_the_basis_is_not_total(keys):
    frame = chain_frame()
    protocol = {"a": dict.fromkeys(keys, DEFER), "b": dict.fromkeys(CHAIN, DEFER)}
    with pytest.raises(ProtocolError) as err:
        verify_protocol(frame, protocol, 0)
    assert str(err.value) == "strategy for 'a' is not total on the agent's basis"


@pytest.mark.parametrize(
    "table",
    [
        pytest.param({3.0: ATTEST, 1: ATTEST}, id="float"),
        pytest.param({3: ATTEST, True: ATTEST}, id="bool"),
    ],
)
def test_a_strategy_keyed_by_a_number_that_is_no_int_mask_is_refused(table):
    # 3.0 and True sort and compare as the masks 3 and 1, so comparing sorted
    # keys alone accepts them.
    frame = Frame(["x", "y"], [AgentSpec("a", (0b11, 0b01), 1)])
    message = "strategy for 'a' is not total on the agent's basis"
    with pytest.raises(ProtocolError, match=message):
        verify_protocol(frame, {"a": table}, frame.universe)
    with pytest.raises(ProtocolError, match=message):
        simulate(frame, {"a": table}, "x", {"a": (0b11, 0b01)}, [], frame.universe, seed=0)


def test_a_strategy_may_list_the_basis_in_any_order():
    frame = chain_frame()
    forward = {"a": {0b111: DEFER, 0b110: ATTEST, 0b100: DEFER}, "b": dict.fromkeys(CHAIN, DEFER)}
    backward = {"a": dict(reversed(forward["a"].items())), "b": forward["b"]}
    assert verify_protocol(frame, backward, 0b010) == verify_protocol(frame, forward, 0b010)


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_universe_gives_constant_attest():
    frame = chain_frame()
    protocol = synthesize(frame, frame.universe)
    for verdicts in protocol.values():
        assert all(v == ATTEST for v in verdicts.values())
    assert verify_protocol(frame, protocol, frame.universe).success_set == frame.universe


def test_synthesize_rejects_infeasible_target():
    frame = chain_frame(tolerance=1)
    with pytest.raises(ProtocolError) as err:
        synthesize(frame, 0b101, 0b101)
    assert "3 opens" in str(err.value)


def test_synthesize_picks_common_knowledge_when_feasible():
    frame = chain_frame(tolerance=2)
    protocol = synthesize(frame, 0b101)
    report = verify_protocol(frame, protocol, 0b101)
    assert report.solves and report.success_set == 0b101
    ctx = OperatorContext(frame)
    assert ctx.min_tolerance("a", 0b101) == 2


def test_synthesize_falls_back_below_threshold():
    frame = chain_frame(tolerance=1)
    protocol = synthesize(frame, 0b101)
    report = verify_protocol(frame, protocol, 0b101)
    assert report.solves and report.success_set == 0b100


def test_synthesized_strategies_do_not_depend_on_slack_tolerance(fixtures_dir, monkeypatch):
    frame, _ = load_frame_file(os.path.join(fixtures_dir, "model3.json"))
    low = frame.with_tolerances({"a": 1})
    high = frame.with_tolerances({"a": 10**6})
    chain_lengths = []
    real = attest._chain_verdicts
    monkeypatch.setattr(
        attest,
        "_chain_verdicts",
        lambda chain, basis: chain_lengths.append(len(chain)) or real(chain, basis),
    )
    topo = frame.topology("a")
    feasible = [v for v in submasks(frame.universe) if v and open_rank(topo, v).rank <= 2]
    assert len(feasible) == 6
    for success in feasible:
        expected = synthesize(low, frame.universe, success)
        assert synthesize(high, frame.universe, success) == expected
    # each chain is a shortest witness, never padded out to tolerance + 1 opens
    assert max(chain_lengths) == 2


def test_synthesize_input_validation():
    frame = chain_frame()
    with pytest.raises(ProtocolError):
        synthesize(frame, 0b101, 0)
    with pytest.raises(ProtocolError):
        synthesize(frame, 0b100, 0b011)  # target not inside the proposition


def test_achievable_success_sets_are_the_generating_fixed_points():
    # success sets of solving protocols == non-empty fixed points of
    # X -> X meet generates(X, P), checked by enumeration
    rng = random.Random(40)
    for _ in range(12):
        frame = random_frame(rng, max_worlds=3, max_agents=2)
        ctx = OperatorContext(frame)
        target = rng.randint(0, frame.universe)
        feasible = set()
        for v in submasks(target):
            if v and all(
                open_rank(frame.topology(a.name), v).rank <= a.tolerance + 1
                for a in frame.agents
            ):
                feasible.add(v)
        fixed = {
            v
            for v in submasks(frame.universe)
            if v and v == v & ctx.generates(v, target)
        }
        assert feasible == fixed
        for v in feasible:
            protocol = synthesize(frame, target, v)
            assert verify_protocol(frame, protocol, target).success_set == v


# ---------------------------------------------------------------------------
# streams


def test_stream_walks_down_to_minimal_evidence():
    frame = chain_frame()
    stream = generate_stream(frame, "a", "z", seed=3)
    assert stream[-1] == 0b100
    for a, b in zip(stream, stream[1:]):
        assert b != a and b & ~a == 0
    only = Frame(["u", "v"], [AgentSpec("a", (0b01, 0b11), 1)])
    assert generate_stream(only, "a", "v", seed=0) == (0b11,)


def test_stream_is_deterministic_per_seed():
    frame = chain_frame()
    a = generate_stream(frame, "a", "z", seed="s1")
    b = generate_stream(frame, "a", "z", seed="s1")
    c = [generate_stream(frame, "a", "z", seed=f"s{k}") for k in range(2, 30)]
    assert a == b
    assert any(x != a for x in c)  # the walk does vary


def test_stream_limits_match_sigma():
    rng = random.Random(41)
    for _ in range(30):
        frame = random_frame(rng, max_worlds=5)
        protocol = constant_protocol(frame, ATTEST)
        for a in frame.agents:
            w = rng.randrange(len(frame.worlds))
            stream = generate_stream(frame, a.name, w, seed=rng.random())
            assert stream[-1] == frame.topology(a.name).neighborhoods[w]


# ---------------------------------------------------------------------------
# simulation


def make_streams(frame, world, seed=0):
    return {
        a.name: generate_stream(frame, a.name, world, f"{seed}:{a.name}")
        for a in frame.agents
    }


def test_simulate_honest_all_attest():
    frame = chain_frame()
    report = simulate(
        frame,
        constant_protocol(frame, ATTEST),
        "y",
        make_streams(frame, "y"),
        [],
        frame.universe,
        seed=0,
    )
    assert report.aggregator_limit == ATTEST
    assert report.shame == ()


def test_simulate_all_defer_never_attests():
    frame = chain_frame()
    for world in frame.worlds:
        report = simulate(
            frame,
            constant_protocol(frame, DEFER),
            world,
            make_streams(frame, world),
            [],
            0b010,
            seed=1,
        )
        assert report.aggregator_limit == DEFER
        assert all(v == DEFER for v in report.aggregator_trace)


def test_simulate_byzantine_minority_cannot_force_attest():
    frame = chain_frame(tolerance=1, agents=("a", "b", "c"))
    protocol = synthesize(frame, 0b100, 0b100)  # success set {z}
    streams = make_streams(frame, "x", seed=5)
    for seed in range(10):
        report = simulate(frame, protocol, "x", streams, ["c"], 0b100, seed=seed)
        assert report.aggregator_limit == DEFER


def test_the_aggregator_attests_on_a_strict_majority_as_the_lower_median():
    # Every verdict vector of 1-6 honest agents at a one-world frame: the
    # aggregator's step is the lower median, DEFER ranking below ATTEST, and
    # that attests exactly when a strict majority attests.
    cases = 0
    for n in range(1, 7):
        names = [f"a{i}" for i in range(n)]
        frame = Frame(["x"], [AgentSpec(name, (1,), 0) for name in names])
        for verdicts in itertools.product((ATTEST, DEFER), repeat=n):
            protocol = {name: {1: v} for name, v in zip(names, verdicts)}
            report = simulate(frame, protocol, "x", dict.fromkeys(names, (1,)), [], 1, seed=0)
            median = sorted(verdicts, key=(DEFER, ATTEST).index)[(n - 1) // 2]
            assert report.aggregator_trace == (median,)
            assert (median == ATTEST) == (2 * verdicts.count(ATTEST) > n)
            cases += 1
    assert cases == 126


def test_simulate_shame_events():
    frame = chain_frame()
    # strategy pair that falsely attests at y (outside target {z}) for agent a
    liar = {0b111: DEFER, 0b110: ATTEST, 0b100: DEFER}
    carefree = {e: DEFER for e in CHAIN}
    protocol = {"a": liar, "b": carefree}
    report = simulate(
        frame, protocol, "y", make_streams(frame, "y"), [], 0b100, seed=2
    )
    causes = {(s.agent, s.cause) for s in report.shame}
    assert ("a", "false-yes") in causes
    assert ("a", "disagreement") in causes
    # The payload reads as asdict's would, without asdict's tuple copies,
    # plus the limits that the traces end on.
    limits = {"limits": {"a": ATTEST, "b": DEFER}, "aggregator_limit": DEFER}
    expected = {"schema": 1, **asdict(report), **limits}
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_simulate_honest_limits_equal_sigma():
    rng = random.Random(42)
    for _ in range(30):
        frame = random_frame(rng, max_worlds=4)
        target = rng.randint(0, frame.universe)
        try:
            protocol = synthesize(frame, target)
        except ProtocolError:
            continue
        world = rng.randrange(len(frame.worlds))
        report = simulate(
            frame,
            protocol,
            world,
            make_streams(frame, world, seed=rng.random()),
            [],
            target,
            seed=rng.random(),
        )
        for spec in frame.agents:
            sigma_yes = limit_yes_set(protocol[spec.name])
            expected = ATTEST if (sigma_yes >> world) & 1 else DEFER
            assert report.limits[spec.name] == expected
        success = verify_protocol(frame, protocol, target).success_set
        expected = ATTEST if (success >> world) & 1 else DEFER
        assert report.aggregator_limit == expected


def test_simulate_validates_inputs():
    frame = chain_frame()
    protocol = constant_protocol(frame, DEFER)
    streams = make_streams(frame, "x")
    with pytest.raises(ProtocolError):
        simulate(frame, protocol, "x", streams, ["ghost"], 0, seed=0)
    with pytest.raises(ProtocolError):
        simulate(frame, protocol, "y", streams, [], 0, seed=0)  # world mismatch
    with pytest.raises(ProtocolError):
        simulate(frame, protocol, "x", {"a": streams["a"]}, [], 0, seed=0)
    # a stream is a non-empty, strictly descending run of the agent's
    # evidence at the world, ending at the least evidence there
    for chain in [(64,), (), (0b110, 0b100), (0b111, 0b111), (7.0,), 5]:
        with pytest.raises(ProtocolError, match="no evidence stream at 'x'"):
            simulate(frame, protocol, "x", {**streams, "a": chain}, [], 0, seed=0)
    for faults in (None, [1, "a"], [["a"]]):
        with pytest.raises(ProtocolError, match="faults must be a sequence"):
            simulate(frame, protocol, "x", streams, faults, 0, seed=0)
    with pytest.raises(ProtocolError, match="streams must cover"):
        simulate(frame, protocol, "x", 5, [], 0, seed=0)
    long_streams = {name: (0b111, 0b100) for name in ("a", "b")}
    with pytest.raises(ProtocolError):
        simulate(frame, protocol, "z", long_streams, [], 0, seed=0, step_cap=1)
    for step_cap in (2.5, "9", True):
        with pytest.raises(ProtocolError, match="'step_cap' must be an integer"):
            simulate(frame, protocol, "z", long_streams, [], 0, seed=0, step_cap=step_cap)
    # a target is a world set of the frame, checked before any trace is built
    with pytest.raises(FrameError, match="integer mask, not True"):
        simulate(frame, constant_protocol(frame, ATTEST), "z", long_streams, [], True, seed=1)
    with pytest.raises(FrameError, match="members outside"):
        simulate(frame, protocol, "z", long_streams, [], 1 << 10 | 0b100, seed=0)


def _simulate_with_string_faults():
    frame = chain_frame()
    protocol = constant_protocol(frame, DEFER)
    simulate(frame, protocol, "x", make_streams(frame, "x"), "ab", 0, seed=0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Frame("xyz", [AgentSpec("a", (0b111,), 0)]), FrameError),
        (_simulate_with_string_faults, ProtocolError),
        (lambda: Frame(["x"], [AgentSpec("a", (1,), "1")]), FrameError),
        (lambda: Frame(["x"], [AgentSpec("a", (1,), True)]), FrameError),
        (lambda: Frame(["x"], [AgentSpec("a", (1,), 1.5)]), FrameError),
        (lambda: chain_frame().with_tolerances({"a": "2"}), FrameError),
        (lambda: chain_frame().with_tolerances({"typo": 3}), FrameError),
    ],
    ids=[
        "string-worlds",
        "string-faults",
        "string-tolerance",
        "bool-tolerance",
        "float-tolerance",
        "string-tolerance-update",
        "unknown-agent-update",
    ],
)
def test_entry_points_never_misread_a_string_or_a_non_integer(call, error):
    """A string is not read as a list of its characters, a tolerance must be
    an integer, and a tolerance update must name agents of the frame."""
    with pytest.raises(error):
        call()


def test_step_cap_extends_the_horizon():
    frame = chain_frame()
    report = simulate(
        frame,
        constant_protocol(frame, ATTEST),
        "z",
        make_streams(frame, "z"),
        [],
        frame.universe,
        seed=0,
        step_cap=9,
    )
    assert all(len(t) == 9 for t in report.traces.values())


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_round_trip(tmp_path, fixtures_dir):
    scenario = {
        "schema": 1,
        "frame": str(fixtures_dir) + "/model3.json",
        "target": "@p",
        "protocol": {"type": "synthesized", "success_target": "z"},
        "world": "z",
        "faults": [],
        "seed": 11,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    loaded = load_scenario(str(path))
    report = run_scenario(loaded)
    assert report.world == "z"
    assert report.aggregator_limit == ATTEST
    payload = report.to_dict()
    assert payload["schema"] == 1 and payload["limits"]["a"] == "yes"


@pytest.mark.parametrize(
    "load, error", [(load_frame_file, FrameError), (load_scenario, ProtocolError)]
)
def test_loaders_take_no_file_descriptor(fixtures_dir, load, error):
    """An int is no path: ``open`` would read it as a descriptor and close it."""
    model = os.path.join(fixtures_dir, "model3.json")
    scenario = {"frame": model, "target": "@p", "protocol": {"type": "synthesized"}, "world": "x"}
    with open(model) as fh:
        document = fh.read() if load is load_frame_file else json.dumps(scenario)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, document.encode())
        os.close(write_end)
        with pytest.raises(error, match=f"path must be a string or a path object, not {read_end}$"):
            load(read_end)
        os.fstat(read_end)  # still open
    finally:
        os.close(read_end)


def test_scenario_target_reads_a_bare_formula(tmp_path, fixtures_dir):
    # "p" names no world, so it reads as the formula p, exactly as "@p" does.
    path = tmp_path / "scenario.json"
    reports = []
    for target in ("p", "@p"):
        scenario = {
            "frame": str(fixtures_dir) + "/model3.json",
            "target": target,
            "protocol": {"type": "synthesized", "success_target": "z"},
            "world": "x",
            "seed": 3,
        }
        path.write_text(json.dumps(scenario))
        loaded = load_scenario(str(path))
        assert loaded.target == 0b101
        reports.append(run_scenario(loaded))
    assert reports[0] == reports[1]


def test_scenario_explicit_protocol_and_errors(tmp_path, fixtures_dir):
    scenario = {
        "frame": str(fixtures_dir) + "/model3.json",
        "target": ["x", "z"],
        "protocol": {
            "type": "explicit",
            "strategies": {
                "a": [
                    {"evidence": ["x", "y", "z"], "verdict": "defer"},
                    {"evidence": ["y", "z"], "verdict": "defer"},
                    {"evidence": ["z"], "verdict": "yes"},
                ]
            },
        },
        "world": "x",
        "seed": 1,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    report = run_scenario(load_scenario(str(path)))
    assert report.limits["a"] == DEFER

    path.write_text("{not json")
    with pytest.raises(ProtocolError):
        load_scenario(str(path))

    path.write_text(json.dumps({**scenario, "protocol": {"type": "nonsense"}}))
    with pytest.raises(ProtocolError):
        load_scenario(str(path))

    rows = [*scenario["protocol"]["strategies"]["a"], {"evidence": ["z", "y"], "verdict": "yes"}]
    twice = {"type": "explicit", "strategies": {"a": rows}}
    path.write_text(json.dumps({**scenario, "protocol": twice}))
    with pytest.raises(ProtocolError, match=r"strategy for 'a' lists evidence \['y', 'z'\] twice"):
        load_scenario(str(path))
