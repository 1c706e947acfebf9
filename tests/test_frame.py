"""Basis validation, topology generation, subspaces, hulls, and model files."""

import random
from enum import IntEnum
from functools import reduce
from operator import and_

import pytest

from limitknow import frame as frame_module
from limitknow.attest import generate_stream
from limitknow.frame import (
    AgentSpec,
    Frame,
    FrameError,
    ResourceLimitError,
    Topology,
    bits,
    generate_topology,
    load_frame,
    submasks,
    validate_basis,
)
from limitknow.hierarchy import (
    Verdict,
    chain_from_method,
    gives_reason,
    limit_verdicts,
    max_switches,
    method_from_chain,
    min_switches,
    nested_difference,
)
from limitknow.logic import Model
from limitknow.operators import OperatorContext
from randgen import oracle_bits, random_basis, random_frame, subspace_basis

U = 0b001  # world u
V = 0b010  # world v
Z = 0b100


def test_validate_chain_basis_is_valid():
    assert validate_basis([U, U | V], U | V).ok


def test_validate_reports_uncovered_world():
    report = validate_basis([U], U | V)
    assert not report.ok
    kinds = {(v.kind, v.world) for v in report.violations}
    assert ("uncovered-world", 1) in kinds


def test_validate_reports_directedness_witness():
    # {u,v}, {v,z}, {u,z} over {u,v,z}: every pair meets in a singleton that
    # is not in the family, so directedness fails at each shared world.
    elements = [U | V, V | Z, U | Z]
    report = validate_basis(elements, U | V | Z)
    assert not report.ok
    witnesses = {
        (v.world, frozenset((v.element, v.other)))
        for v in report.violations
        if v.kind == "not-directed"
    }
    assert (0, frozenset((U | V, U | Z))) in witnesses


def test_validate_flags_empty_and_duplicate_and_stray():
    report = validate_basis([0, U, U, 0b1000], U | V)
    kinds = [v.kind for v in report.violations]
    assert "empty-element" in kinds
    assert "duplicate-element" in kinds
    assert "outside-universe" in kinds


def test_generate_topology_sierpinski():
    topo = generate_topology([U, U | V])
    assert topo.opens == (0, U, U | V)


def test_generate_topology_indiscrete():
    topo = generate_topology([U | V])
    assert topo.opens == (0, U | V)
    with pytest.raises(ResourceLimitError):
        generate_topology([(1 << 21) - 1]).opens


def test_generate_topology_chain_fixture():
    # Oracle: closure of the basis under unions of arbitrary subfamilies.
    basis = [0b111, 0b110, 0b100]
    topo = generate_topology(basis)
    unions = {0}
    for pick in submasks(0b111):
        chosen = [basis[i] for i in bits(pick)]
        acc = 0
        for c in chosen:
            acc |= c
        unions.add(acc)
    assert set(topo.opens) == unions == {0, 0b100, 0b110, 0b111}


def test_generate_topology_rejects_invalid():
    with pytest.raises(FrameError):
        generate_topology([U | V, V | Z, U | Z])


def test_topology_idempotent_under_reclosure():
    rng = random.Random(7)
    for _ in range(25):
        basis = random_basis(rng, rng.randint(1, 5))
        topo = generate_topology(basis)
        nonempty_opens = tuple(o for o in topo.opens if o)
        again = generate_topology(nonempty_opens)
        assert again.opens == topo.opens


def test_subspace_basis_examples():
    basis = (0b111, 0b110, 0b100)
    assert subspace_basis(basis, 0b110) == (0b110, 0b100)
    assert subspace_basis((U, U | V), U | V) == (U, U | V)
    assert subspace_basis((U, U | V), U) == (U,)
    with pytest.raises(FrameError):
        subspace_basis(basis, 0b011)


def test_subspace_opens_are_traces_of_full_opens():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        basis = random_basis(rng, n)
        topo = generate_topology(basis)
        for e in basis:
            sub = generate_topology(subspace_basis(basis, e))
            assert set(sub.opens) == {o & e for o in topo.opens}


def test_open_hull_examples():
    sierpinski = generate_topology([U, U | V])
    assert sierpinski.hull(V) == U | V
    assert sierpinski.hull(0) == 0
    chain = generate_topology([0b111, 0b110, 0b100])
    # Oracle: intersect every open containing the set.
    target = 0b010
    expected = 0b111
    for o in chain.opens:
        if target & ~o == 0:
            expected &= o
    assert chain.hull(target) == expected == 0b110


def test_hull_is_least_open_superset():
    rng = random.Random(3)
    for _ in range(30):
        basis = random_basis(rng, 5)
        topo = generate_topology(basis)
        s = rng.randint(0, topo.universe)
        h = topo.hull(s)
        assert topo.is_open(h) and s & ~h == 0
        for o in topo.opens:
            if s & ~o == 0:
                assert h & ~o == 0


def test_evidence_at_and_minimal():
    frame = Frame(
        ["x", "y", "z"],
        [AgentSpec("a", (0b111, 0b110, 0b100), 1)],
    )
    assert frame.evidence_at("a", "z") == (0b111, 0b110, 0b100)
    assert frame.topology("a").neighborhoods[frame.position("z")] == 0b100
    assert frame.evidence_at("a", "x") == (0b111,)
    assert frame.topology("a").neighborhoods[frame.position("x")] == 0b111
    sierpinski = Frame(["u", "v"], [AgentSpec("a", (U, U | V), 0)])
    assert sierpinski.topology("a").neighborhoods[sierpinski.position("u")] == U
    for world in ("nope", True, -1, 3):
        with pytest.raises(FrameError, match="nope" if world == "nope" else repr(world)):
            frame.evidence_at("a", world)
        with pytest.raises(FrameError):
            frame.position(world)


def test_minimal_evidence_is_singleton_on_random_frames():
    rng = random.Random(13)
    for _ in range(40):
        frame = random_frame(rng, max_worlds=5)
        for a in frame.agents:
            for w in range(len(frame.worlds)):
                at_w = frame.evidence_at(a.name, w)
                scan = tuple(e for e in at_w if not any(o != e and o & ~e == 0 for o in at_w))
                assert len(scan) == 1
                assert scan == (frame.topology(a.name).neighborhoods[w],)


def test_frame_rejects_bad_inputs():
    with pytest.raises(FrameError):
        Frame([], [AgentSpec("a", (1,), 0)])
    with pytest.raises(FrameError):
        Frame(["x", "x"], [AgentSpec("a", (1,), 0)])
    with pytest.raises(FrameError):
        Frame(["x"], [])
    with pytest.raises(FrameError):  # duplicate basis element
        Frame(["x", "y"], [AgentSpec("a", (0b11, 0b11), 0)])
    with pytest.raises(FrameError):  # negative tolerance
        Frame(["x"], [AgentSpec("a", (1,), -1)])
    with pytest.raises(FrameError):  # duplicate agent names
        Frame(["x"], [AgentSpec("a", (1,), 0), AgentSpec("a", (1,), 0)])
    with pytest.raises(FrameError, match="an agent must be an AgentSpec, not 'a'"):
        Frame(["x"], ["a"])


def test_frame_repr_names_worlds_and_agents():
    frame = Frame(["u", "v"], [AgentSpec("a", (U, U | V), 0), AgentSpec("b", (U | V,), 1)])
    assert repr(frame) == "Frame(worlds=('u', 'v'), agents=['a', 'b'])"


SIERPINSKI_METHOD = {U: Verdict.YES, U | V: Verdict.NO}


def sierpinski_frame():
    return Frame(["u", "v"], [AgentSpec("a", (U, U | V), 0)])


SIERPINSKI_CHAIN = (U | V, U)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Frame(["x"], "a"), id="string-agents"),
        pytest.param(lambda: Frame(["x"], [AgentSpec("a", 1, 0)]), id="int-basis"),
        pytest.param(lambda: Frame(["x"], [AgentSpec("a", "3", 0)]), id="string-basis"),
        pytest.param(lambda: Frame(["x"], [AgentSpec("a", (1.0,), 0)]), id="float-element"),
        pytest.param(lambda: Frame(["x"], [AgentSpec(1, (1,), 0)]), id="int-agent-name"),
        pytest.param(lambda: Frame([1, 2], [AgentSpec("a", (0b11,), 0)]), id="int-world-names"),
        pytest.param(lambda: validate_basis((1.0,), 1), id="validate-float-element"),
        pytest.param(lambda: validate_basis((True,), 1), id="validate-bool-element"),
        pytest.param(lambda: validate_basis((1,), 1.0), id="validate-float-universe"),
        pytest.param(lambda: generate_topology((1.0,)), id="generate-float-element"),
        pytest.param(
            lambda: chain_from_method({1.0: Verdict.YES}, 0),
            id="chain-float-element",
        ),
        pytest.param(lambda: chain_from_method(SIERPINSKI_METHOD, 1.5), id="float-bound"),
        pytest.param(lambda: chain_from_method(SIERPINSKI_METHOD, True), id="bool-bound"),
        pytest.param(
            lambda: max_switches({1.0: Verdict.YES}, Verdict.YES),
            id="switches-float-element",
        ),
        pytest.param(lambda: max_switches(U, Verdict.YES), id="switches-int-basis"),
        pytest.param(lambda: max_switches([7], Verdict.YES), id="switches-list-method"),
        pytest.param(
            lambda: max_switches({7: "maybe"}, Verdict.YES), id="switches-unknown-verdict"
        ),
        pytest.param(lambda: max_switches({7: Verdict.YES}, "maybe"), id="switches-unknown-start"),
        pytest.param(
            lambda: max_switches({0b011: Verdict.YES, 0b110: Verdict.NO}, Verdict.YES),
            id="switches-undirected-basis",
        ),
        pytest.param(
            lambda: max_switches({0: Verdict.YES, 1: Verdict.NO}, Verdict.YES),
            id="switches-empty-element",
        ),
        pytest.param(lambda: limit_verdicts({7: "maybe"}), id="limit-unknown-verdict"),
        pytest.param(lambda: chain_from_method({7: "maybe"}, 0), id="chain-unknown-verdict"),
        pytest.param(lambda: Frame(["x"], 5), id="int-agents"),
        pytest.param(lambda: Frame(5, [AgentSpec("a", (1,), 0)]), id="int-worlds"),
        pytest.param(lambda: validate_basis(1, 1), id="validate-int-basis"),
        pytest.param(lambda: nested_difference("ab"), id="string-chain"),
        pytest.param(lambda: nested_difference((0b11, 1.0)), id="float-chain-member"),
        pytest.param(lambda: sierpinski_frame().mask("uv"), id="string-world-names"),
        pytest.param(lambda: sierpinski_frame().index(["x"]), id="list-world-name"),
        pytest.param(lambda: sierpinski_frame().mask([["x"]]), id="list-world-name-in-mask"),
        pytest.param(lambda: sierpinski_frame().topology("a").meeting(U, "1"), id="string-meets"),
        pytest.param(lambda: sierpinski_frame().topology("a").meeting(U, None), id="none-meets"),
        pytest.param(lambda: sierpinski_frame().topology("a").meeting(U, Z), id="meets-past-universe"),
        pytest.param(lambda: sierpinski_frame().topology("a").rooted([U, 1.0]), id="float-rooted"),
        pytest.param(lambda: sierpinski_frame().topology("a").rooted([Z]), id="rooted-past-universe"),
        pytest.param(lambda: sierpinski_frame().with_tolerances("a"), id="string-tolerances"),
        pytest.param(lambda: method_from_chain(SIERPINSKI_CHAIN, "ab"), id="string-method-basis"),
        pytest.param(
            lambda: method_from_chain(SIERPINSKI_CHAIN, (3.0, 1)), id="float-method-element"
        ),
        pytest.param(lambda: method_from_chain((0b01,), (0b11, 0b10)), id="chain-not-open"),
        pytest.param(lambda: method_from_chain((U, U | V), (U, U | V)), id="chain-not-descending"),
        pytest.param(lambda: Model(sierpinski_frame(), 5), id="int-valuation"),
        pytest.param(lambda: Model(sierpinski_frame(), "1"), id="string-valuation"),
        pytest.param(lambda: Model(sierpinski_frame(), {1: 1}), id="int-valuation-name"),
    ],
)
def test_library_entry_points_reject_what_is_not_their_type(call):
    """Agents, bases, world names, masks and switch bounds of the wrong type
    are one ``FrameError``, never a crash or a silent misreading."""
    with pytest.raises(FrameError):
        call()


@pytest.mark.parametrize("agent", [[1], {}], ids=["list", "dict"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, a: f.agent(a), id="agent"),
        pytest.param(lambda f, a: f.topology(a), id="topology"),
        pytest.param(lambda f, a: gives_reason(f, a, U, U | V), id="gives_reason"),
        pytest.param(lambda f, a: min_switches(f, a, U), id="min_switches"),
        pytest.param(lambda f, a: generate_stream(f, a, "u", 0), id="generate_stream"),
        pytest.param(lambda f, a: OperatorContext(f).reason(a, U), id="reason"),
        pytest.param(lambda f, a: OperatorContext(f).indicates(a, U, U), id="indicates"),
        pytest.param(lambda f, a: OperatorContext(f).believes_via(a, U, U), id="believes_via"),
        pytest.param(lambda f, a: OperatorContext(f).true_reason(a, U), id="true_reason"),
        pytest.param(lambda f, a: OperatorContext(f).min_tolerance(a, U), id="min_tolerance"),
    ],
)
def test_an_unhashable_agent_name_is_an_unknown_agent(call, agent):
    with pytest.raises(FrameError, match="unknown agent"):
        call(sierpinski_frame(), agent)


class _Mask(IntEnum):
    U = U


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, s: f.check_subset(s), id="frame"),
        pytest.param(lambda f, s: f.topology("a").check_subset(s), id="topology"),
        pytest.param(lambda f, s: OperatorContext(f).reason("a", s), id="reason"),
    ],
)
@pytest.mark.parametrize(
    "mask, error",
    [
        (U, None),
        (_Mask.U, None),
        (True, "a world set must be an integer mask, not True"),
        (1.0, "a world set must be an integer mask, not 1.0"),
        (-1, "world set has members outside this universe"),
        (Z, "world set has members outside this universe"),
    ],
    ids=["int", "int-enum", "bool", "float", "negative", "past-universe"],
)
def test_mask_check_verdicts_are_pinned(call, mask, error):
    # An exact int takes one type test; every other mask keeps its verdict.
    frame = sierpinski_frame()
    if error is None:
        assert call(frame, mask) == call(frame, U)
    else:
        with pytest.raises(FrameError, match=f"^{error}$"):
            call(frame, mask)


@pytest.mark.parametrize(
    "element, error",
    [
        (_Mask.U, None),
        (True, "a basis element is not an integer mask"),
        (1.0, "a basis element is not an integer mask"),
        (-1, "a basis element is a negative mask"),
    ],
    ids=["int-enum", "bool", "float", "negative"],
)
def test_basis_element_verdicts_are_pinned(element, error):
    # An exact int takes one type test; every other element keeps its verdict.
    def build(e):
        return Frame(["u", "v"], [AgentSpec("a", (e, U | V), 0)])

    if error is None:
        assert build(element).topology("a").neighborhoods == build(U).topology("a").neighborhoods
    else:
        with pytest.raises(FrameError, match=f"^{error}$"):
            build(element)


def test_frame_errors_name_the_empty_element_and_the_uncovered_world():
    with pytest.raises(FrameError, match="agent a: invalid basis: basis element is empty"):
        Frame(["u", "v"], [AgentSpec("a", (0, U | V), 0)])
    with pytest.raises(FrameError, match="agent a: invalid basis: world v is in no basis element"):
        Frame(["u", "v"], [AgentSpec("a", (U,), 0)])
    frame = Frame(["u", "v"], [AgentSpec("a", (U | V, U), 0)])
    with pytest.raises(FrameError, match="subspace root is not a basis element"):
        frame.subspace("a", V)


def test_load_frame_roundtrip_and_errors():
    data = {
        "worlds": ["x", "y", "z"],
        "agents": [{"name": "a", "tolerance": 1, "basis": [["x", "y", "z"], ["z"]]}],
        "valuation": {"p": ["x", "z"]},
    }
    frame, valuation = load_frame(data)
    assert frame.worlds == ("x", "y", "z")
    assert frame.agent("a").basis == (0b111, 0b100)
    assert valuation == {"p": 0b101}

    bad = {
        "worlds": ["x", "y"],
        "agents": [{"name": "a", "tolerance": 0, "basis": [["x", "nope"]]}],
        "valuation": {"p": ["ghost"]},
    }
    with pytest.raises(FrameError) as err:
        load_frame(bad)
    assert "nope" in str(err.value) and "ghost" in str(err.value)


def test_valuation_is_optional():
    frame, valuation = load_frame(
        {"worlds": ["x"], "agents": [{"name": "a", "tolerance": 0, "basis": [["x"]]}]}
    )
    assert valuation == {}


def test_cross_frame_masks_are_rejected():
    frame, _ = load_frame(
        {"worlds": ["x"], "agents": [{"name": "a", "tolerance": 0, "basis": [["x"]]}]}
    )
    with pytest.raises(FrameError):
        frame.names(0b10)
    with pytest.raises(FrameError):
        frame.topology("a").hull(0b10)


def test_with_tolerances_shares_topologies():
    frame, _ = load_frame(
        {
            "worlds": ["x", "y"],
            "agents": [{"name": "a", "tolerance": 0, "basis": [["x", "y"], ["x"]]}],
        }
    )
    topo = frame.topology("a")
    bumped = frame.with_tolerances({"a": 2})
    assert bumped.agent("a").tolerance == 2
    assert bumped.topology("a") is topo


def test_a_topology_is_a_value():
    rng = random.Random(42)
    for _ in range(20):
        topo = generate_topology(random_basis(rng, rng.randint(1, 5)))
        twin = Topology(topo.universe, topo.neighborhoods)
        assert twin == topo and hash(twin) == hash(topo)


def test_topology_reuses_the_neighborhoods_validation_computed(monkeypatch):
    calls = []
    original = frame_module._meets

    def counting(*args):
        calls.append(args)
        return original(*args)

    rng = random.Random(41)
    for _ in range(25):
        built = random_frame(rng)  # randgen validates its bases as it draws them
        monkeypatch.setattr(frame_module, "_meets", counting)
        frame = Frame(built.worlds, built.agents)
        assert len(calls) == len(frame.agents)  # one pass per agent
        calls.clear()
        bumped = frame.with_tolerances({a.name: a.tolerance + 1 for a in frame.agents})
        for a in frame.agents:
            topo = frame.topology(a.name)
            assert bumped.topology(a.name) is topo
            least = tuple(
                reduce(and_, (e for e in a.basis if (e >> w) & 1))
                for w in range(len(frame.worlds))
            )
            assert topo.neighborhoods == least
        assert calls == []
        monkeypatch.undo()
    with pytest.raises(FrameError, match="unknown agent 'nobody'"):
        frame.topology("nobody")


def _one_agent_model(basis, valuation):
    return {
        "worlds": ["x", "y", "z"],
        "agents": [{"name": "a", "tolerance": 0, "basis": basis}],
        "valuation": valuation,
    }


def test_load_frame_lists_every_unknown_name_in_order():
    data = _one_agent_model(
        [["x", "nope"], ["y", "zz", "x", "nope"]], {"p": ["ghost"], "q": ["x", "w", "y"]}
    )
    with pytest.raises(FrameError) as err:
        load_frame(data)
    assert str(err.value) == (
        "unknown world names: 'nope' in basis of agent 'a', 'zz' in basis of agent 'a', "
        "'nope' in basis of agent 'a', 'ghost' in valuation of 'p', 'w' in valuation of 'q'"
    )


@pytest.mark.parametrize(
    "name, shown", [(3, "3"), (True, "True"), (None, "None"), (["y"], "['y']"), ({"x": 1}, "{'x': 1}")]
)
def test_load_frame_names_a_world_name_that_is_no_string(name, shown):
    # an unknown name listed before it is not reported: the type error comes first
    with pytest.raises(FrameError) as err:
        load_frame(_one_agent_model([["x", "y", "z"], ["nope", name]], {}))
    assert str(err.value) == f"basis of agent 'a' must list world names, not {shown}"
    with pytest.raises(FrameError) as err:
        load_frame(_one_agent_model([["x", "y", "z"]], {"p": ["x", name, "ghost"]}))
    assert str(err.value) == f"valuation of 'p' must list world names, not {shown}"


def test_load_frame_reads_a_repeated_name_as_one_world():
    frame, valuation = load_frame(
        _one_agent_model([["x", "y", "z", "x"], ["z", "z"]], {"p": ["y", "x", "y"]})
    )
    assert frame.agent("a").basis == (0b111, 0b100)
    assert valuation == {"p": 0b011}


def test_bits_match_the_shift_per_member_oracle():
    rng = random.Random(22)
    masks = [0, 1, 1 << 4095, (1 << 4096) - 1]
    for _ in range(400):
        width = rng.randint(1, 4096)
        members = rng.randint(0, min(width, rng.choice((8, 9, 16, width // 8, width))))
        masks.append(sum([1 << i for i in rng.sample(range(width), members)]))
    for k in range(8, 11):  # popcounts on both sides of the gate, narrow and wide
        masks += [(1 << k) - 1, ((1 << k) - 1) << 60, sum([1 << 8 * i for i in range(k)])]
    for mask in masks:
        assert list(bits(mask)) == list(oracle_bits(mask))


def test_names_and_violations_keep_world_order():
    rng = random.Random(23)
    worlds = [f"w{i}" for i in range(300)]
    rng.shuffle(worlds)  # world order, not name order
    frame = Frame(worlds, [AgentSpec("a", ((1 << 300) - 1,), 0)])
    for members in (0, 1, 5, 9, 40, 150, 300):
        mask = sum([1 << i for i in rng.sample(range(300), members)])
        listed = tuple([worlds[i] for i in oracle_bits(mask)])
        assert frame.names(mask) == listed
        assert frame_module.BasisViolation("duplicate-element", element=mask).describe(
            worlds
        ) == "duplicate basis element {" + ",".join(listed) + "}"
    past = frame_module.BasisViolation("duplicate-element", element=1 << 300 | 1)
    assert past.describe(worlds) == f"duplicate basis element {bin(1 << 300 | 1)}"
