"""Acceptance suite: one test per criterion, each printing a PASS line.
Criterion 1 asserts that its battery finishes within 120 s, and criterion 3
is split into cases so that each one stays short.

Scales and tolerances are pinned here and are exact set equalities unless
stated otherwise. "Exhaustive" enumerations run over every valid basis with
up to 3 worlds and every valid basis over 4 worlds with at most 6 elements
(the full 4-world family is astronomically larger with no extra structure).
"""

import itertools
import json
import os
import random
import time

import pytest

from limitknow.attest import (
    ATTEST,
    DEFER,
    ProtocolError,
    generate_stream,
    simulate,
    synthesize,
    verify_protocol,
)
from limitknow.frame import AgentSpec, Frame, generate_topology, load_frame, submasks
from limitknow.hierarchy import (
    INFINITE,
    Verdict,
    limit_yes_set,
    max_switches,
    method_from_chain,
    open_rank,
)
from limitknow.laws import ALL_LAW_NAMES, law_battery
from limitknow.logic import Model
from limitknow.operators import OperatorContext
from randgen import (
    all_methods,
    all_valid_bases,
    common_via_interior,
    oracle_all_ranks,
    random_basis,
    random_frame,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _passed(line):
    print(f"PASS: {line}")


# ---------------------------------------------------------------------------


def test_criterion_1_soundness_battery():
    """All 17 axiom schemas, 4 rules, and 5 derived rules: zero failures on
    100 random valid frames, 20 instantiations per law, under 2 minutes."""
    rng = random.Random(20260808)
    started = time.time()
    assert len(ALL_LAW_NAMES) == 26
    for k in range(100):
        frame = random_frame(rng, max_worlds=6, max_agents=3, max_tolerance=3)
        model = Model(frame, {"p": rng.randint(0, frame.universe)})
        report = law_battery(model, trials=20, seed=k)
        assert report.ok, (
            frame,
            [(r.name, f.instantiation, f.counterexamples)
             for r in report.results for f in r.failures],
        )
    elapsed = time.time() - started
    assert elapsed < 120, f"battery took {elapsed:.0f}s"
    _passed(
        f"criterion 1: soundness battery clean on 100 frames x 26 laws x 20 trials "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_rank_oracle():
    """Greedy rank equals exhaustive descending-chain minimization on every
    subset of every topology, including infinite ranks."""
    rng = random.Random(2)
    bases = [random_basis(rng, rng.randint(1, 5)) for _ in range(60)]
    for n in range(2, 6):
        bases.append(((1 << n) - 1,))  # indiscrete
    bases.append(tuple(range(1, 8)))  # discrete over 3 worlds
    bases.append(tuple((1 << k) - 1 for k in range(1, 6)))  # maximal chain
    checked = 0
    for basis in bases:
        topo = generate_topology(basis)
        oracle = oracle_all_ranks(topo)
        for s in submasks(topo.universe):
            got = open_rank(topo, s).rank
            assert got == oracle.get(s, INFINITE), (basis, bin(s))
            checked += 1
    _passed(f"criterion 2: greedy rank == chain-enumeration oracle on {checked} sets")


def _small_bases(worlds, half):
    """The exhaustive bases over the given world counts: every valid basis
    of up to 3 worlds and every 4-world basis of at most 6 elements. A
    ``half`` of 0 or 1 keeps every other one, so that a long part splits
    into two shorter cases."""
    bases = []
    for n in worlds:
        found = all_valid_bases(n, max_elements=6) if n == 4 else all_valid_bases(n)
        bases += [(b, n) for b in found]
    return bases if half is None else bases[half::2]


def _methods_settle_within_one_more_open(basis, n):
    if len(basis) > 7:
        return 0
    topo = generate_topology(basis)
    checked = 0
    for method in all_methods(basis):
        bound = max_switches(method, Verdict.YES)
        assert open_rank(topo, limit_yes_set(method)).rank <= bound + 1
        checked += 1
    return checked


def _witness_read_offs_settle_their_set(basis, n):
    topo = generate_topology(basis)
    checked = 0
    for s in submasks(topo.universe):
        r = open_rank(topo, s)
        if r.is_infinite:
            continue
        method = method_from_chain(r.witness, basis)
        assert limit_yes_set(method) == s
        assert max_switches(method, Verdict.YES) <= max(r.rank - 1, 0)
        checked += 1
    return checked


def _feasible_iff_supported_pointwise(basis, n):
    worlds = [f"w{i}" for i in range(n)]
    frame = Frame(worlds, [AgentSpec("a", basis, 0)])
    topo = frame.topology("a")
    checked = 0
    for tolerance in range(4):
        ctx = OperatorContext(frame.with_tolerances({"a": tolerance}))
        for w_set in submasks(frame.universe):
            feasible = open_rank(topo, w_set).rank <= tolerance + 1
            supported = w_set & ~ctx.reason("a", w_set) == 0
            assert feasible == supported, (basis, tolerance, bin(w_set))
            checked += 1
    return checked


CRITERION_3_PARTS = {
    "methods": _methods_settle_within_one_more_open,
    "read-offs": _witness_read_offs_settle_their_set,
    "pointwise": _feasible_iff_supported_pointwise,
}


# Each part runs on the bases of up to 3 worlds, then on each half of the
# 4-world bases. The counts sum to 85,884 methods, 30,056 witness read-offs
# and 132,792 pointwise checks.
@pytest.mark.parametrize(
    "part, worlds, half, expected",
    [
        pytest.param("methods", (1, 2, 3), None, 1_358, id="methods-1-3-worlds"),
        pytest.param("methods", (4,), 0, 42_242, id="methods-4-worlds-half-1"),
        pytest.param("methods", (4,), 1, 42_284, id="methods-4-worlds-half-2"),
        pytest.param("read-offs", (1, 2, 3), None, 534, id="read-offs-1-3-worlds"),
        pytest.param("read-offs", (4,), 0, 14_762, id="read-offs-4-worlds-half-1"),
        pytest.param("read-offs", (4,), 1, 14_760, id="read-offs-4-worlds-half-2"),
        pytest.param("pointwise", (1, 2, 3), None, 2_360, id="pointwise-1-3-worlds"),
        pytest.param("pointwise", (4,), 0, 65_216, id="pointwise-4-worlds-half-1"),
        pytest.param("pointwise", (4,), 1, 65_216, id="pointwise-4-worlds-half-2"),
    ],
)
def test_criterion_3_switching_rank_equivalences(part, worlds, half, expected):
    """Two-directional, exhaustive: every bounded-switching method settles on
    a set expressible within one more open than its switch count, every such
    set is settled by a read-off method, and a set is decidable within
    tolerance at every member iff some evidence there supports it."""
    checked = sum([CRITERION_3_PARTS[part](b, n) for b, n in _small_bases(worlds, half)])
    assert checked == expected
    _passed(f"criterion 3: switching/rank equivalences, {checked} {part} over {worlds} worlds")


def test_criterion_4_kuratowski():
    """The four interior laws for the true-reason operator, exact equality on
    200 random frame/proposition pairs."""
    rng = random.Random(4)
    for _ in range(200):
        frame = random_frame(rng, max_worlds=6)
        ctx = OperatorContext(frame)
        p1 = rng.randint(0, frame.universe)
        p2 = rng.randint(0, frame.universe)
        for a in frame.agents:
            s = lambda x: ctx.true_reason(a.name, x)
            assert s(frame.universe) == frame.universe
            assert s(p1) & ~p1 == 0
            assert s(s(p1)) == s(p1)
            assert s(p1) & s(p2) == s(p1 & p2)
    _passed("criterion 4: Kuratowski interior laws on 200 random frame/set pairs")


def test_criterion_5_tolerance_invariance_and_interior():
    """Common knowledge is unchanged under any all-positive tolerance
    re-assignment, and matches the interior in the meet of the per-agent
    true-reason topologies."""
    rng = random.Random(5)
    for _ in range(50):
        frame = random_frame(rng, max_worlds=6)
        target = rng.randint(0, frame.universe)
        names = [a.name for a in frame.agents]
        assignments = itertools.product((1, 2, 3), repeat=len(names))
        results = {
            OperatorContext(frame.with_tolerances(dict(zip(names, tol)))).common(target)
            for tol in assignments
        }
        assert len(results) == 1, frame

    for _ in range(30):
        frame = random_frame(rng, max_worlds=8, max_agents=3)
        ctx = OperatorContext(frame)
        target = rng.randint(0, frame.universe)
        assert ctx.common(target) == common_via_interior(ctx, target)
    _passed(
        "criterion 5: common knowledge tolerance-invariant on 50 frames x 3^N "
        "assignments; interior cross-check on 30 frames up to 8 worlds"
    )


def _narrative_match(basis_a, basis_b):
    target = 0b101
    frame = Frame(
        ["w1", "w2", "w3"],
        [AgentSpec("alice", basis_a, 1), AgentSpec("bob", basis_b, 1)],
    )
    ctx = OperatorContext(frame)
    believable = [
        w for w in submasks(frame.universe) if ctx.believes_via("bob", w, target)
    ]
    if believable != [target]:
        return False
    if ctx.believes_via("alice", target, target) != 0b100:
        return False
    if ctx.generates(target, target) != 0:
        return False
    widened = OperatorContext(frame.with_tolerances({"alice": 2}))
    if widened.generates(target, target) != frame.universe:
        return False
    return all(
        OperatorContext(
            frame.with_tolerances({"alice": na, "bob": nb})
        ).common(target)
        == target
        for na in (1, 2, 3)
        for nb in (1, 2, 3)
    )


def test_criterion_6_two_agent_narrative_reconstruction():
    """Search all two-agent 3-world frames for one where, at tolerance 1, the
    only witness the second agent can believe for p={w1,w3} is p itself, the
    first agent believes p via it exactly at w3, the witness generates
    nothing, yet at tolerance 2 it generates everywhere, while common
    knowledge of p stays p under every positive tolerance assignment. The
    first hit is frozen as a fixture."""
    bases = all_valid_bases(3)
    hits = [
        (ba, bb)
        for ba in bases
        for bb in bases
        if _narrative_match(ba, bb)
    ]
    assert hits, "no frame reproduces the narrative"

    with open(os.path.join(FIXTURES, "alice_bob.json")) as fh:
        frozen, _ = load_frame(json.load(fh))
    expected = (frozen.agent("alice").basis, frozen.agent("bob").basis)
    assert tuple(sorted(hits[0][0])) == tuple(sorted(expected[0]))
    assert tuple(sorted(hits[0][1])) == tuple(sorted(expected[1]))
    _passed(
        f"criterion 6: narrative search found {len(hits)} frame(s); "
        "first hit matches the frozen fixture"
    )


def _feasible_success_sets(frame, target):
    out = set()
    for v in submasks(target):
        if v and all(
            open_rank(frame.topology(a.name), v).rank <= a.tolerance + 1
            for a in frame.agents
        ):
            out.add(v)
    return out


def test_criterion_7_coordinated_attack():
    """Protocol existence round-trip and the generated-knowledge fixed-point
    characterization agree exhaustively on small frames; witness-existential
    common knowledge stays below common knowledge on 200 random frames and
    meets it (with a protocol attaining it) once tolerances reach the
    feasibility threshold, on 50 random frames."""
    bases = [b for b in all_valid_bases(3)] + all_valid_bases(4, max_elements=5)[::13]
    tolerances = [(1, 1), (0, 2), (2, 1), (3, 0)]
    frames = []
    for idx, basis in enumerate(bases):
        n = max(e.bit_length() for e in basis)
        partner = bases[(idx + 7) % len(bases)]
        if max(e.bit_length() for e in partner) != n:
            partner = basis
        ta, tb = tolerances[idx % len(tolerances)]
        frames.append(
            Frame(
                [f"w{i}" for i in range(n)],
                [AgentSpec("a", basis, ta), AgentSpec("b", partner, tb)],
            )
        )

    round_trips = 0
    for frame in frames:
        ctx = OperatorContext(frame)
        targets = (
            list(submasks(frame.universe))
            if len(frame.worlds) <= 3
            else [frame.universe, 0b1011, 0b0110, 0b0101, 0b1100, 0b0001]
        )
        for target in targets:
            feasible = _feasible_success_sets(frame, target)
            fixed = {
                v
                for v in submasks(frame.universe)
                if v and v == v & ctx.generates(v, target)
            }
            assert feasible == fixed, (frame, bin(target))
            for v in feasible:
                protocol = synthesize(frame, target, v)
                report = verify_protocol(frame, protocol, target)
                assert report.solves and report.success_set == v
                round_trips += 1

    rng = random.Random(7)
    for _ in range(200):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        target = rng.randint(0, frame.universe)
        assert ctx.lewis_common(target) & ~ctx.common(target) == 0

    met = 0
    for _ in range(50):
        frame = random_frame(rng, max_worlds=5)
        target = rng.randint(0, frame.universe)
        ctx = OperatorContext(frame)
        raised = frame.with_tolerances(
            {
                a.name: max(a.tolerance, ctx.min_tolerance(a.name, target))
                for a in frame.agents
            }
        )
        raised_ctx = OperatorContext(raised)
        common = raised_ctx.common(target)
        assert raised_ctx.lewis_common(target) == common
        if common:
            protocol = synthesize(raised, target)
            assert verify_protocol(raised, protocol, target).success_set == common
            met += 1
    assert met >= 10
    _passed(
        f"criterion 7: {round_trips} synthesis round-trips, fixed points match "
        f"feasible success sets; L<=C on 200 frames; L==C attained on {met} raised frames"
    )


def test_criterion_8_simulation():
    """Honest limit outputs equal the strategy's limit verdicts on 500 random
    runs, and the majority aggregator attests exactly on the success set under
    every fault roster smaller than half the agents, for 3 and 5 agents."""
    rng = random.Random(8)
    runs = 0
    while runs < 500:
        frame = random_frame(rng, max_worlds=5)
        target = rng.randint(0, frame.universe)
        try:
            protocol = synthesize(frame, target)
        except ProtocolError:
            continue
        for _ in range(10):
            world = rng.randrange(len(frame.worlds))
            streams = {
                a.name: generate_stream(frame, a.name, world, rng.random())
                for a in frame.agents
            }
            report = simulate(
                frame, protocol, world, streams, [], target, seed=rng.random()
            )
            for spec in frame.agents:
                sigma_yes = limit_yes_set(protocol[spec.name])
                expected = ATTEST if (sigma_yes >> world) & 1 else DEFER
                assert report.limits[spec.name] == expected
            runs += 1

    for n_agents in (3, 5):
        frame = Frame(
            ["x", "y", "z"],
            [AgentSpec(f"a{k}", (0b111, 0b110, 0b100), 2) for k in range(n_agents)],
        )
        target = 0b101
        protocol = synthesize(frame, target)
        success = verify_protocol(frame, protocol, target).success_set
        names = [a.name for a in frame.agents]
        rosters = [
            roster
            for size in range((n_agents + 1) // 2)
            for roster in itertools.combinations(names, size)
        ]
        for roster in rosters:
            for world in range(len(frame.worlds)):
                for seed in range(3):
                    streams = {
                        a.name: generate_stream(frame, a.name, world, f"{seed}:{a.name}")
                        for a in frame.agents
                    }
                    report = simulate(
                        frame, protocol, world, streams, roster, target, seed=seed
                    )
                    expected = ATTEST if (success >> world) & 1 else DEFER
                    assert report.aggregator_limit == expected, (roster, world, seed)
    _passed(
        "criterion 8: honest limits == limit verdicts on 500 runs; aggregator "
        "correct under all minority fault rosters for 3 and 5 agents"
    )
