"""The epistemic operators: pointwise examples, Kuratowski laws, fixed-point
characterizations, and tolerance invariance."""

import random

import pytest

from limitknow.frame import AgentSpec, Frame, FrameError, submasks
from limitknow.hierarchy import open_rank
from limitknow import cli, operators
from limitknow.attest import synthesize, verify_protocol
from limitknow.logic import MODALITIES
from limitknow.operators import OperatorContext
from randgen import common_via_interior, random_frame

CHAIN = ("chain", (0b111, 0b110, 0b100))


def chain_ctx(tolerance, agents=("a",)):
    frame = Frame(
        ["x", "y", "z"],
        [AgentSpec(a, CHAIN[1], tolerance) for a in agents],
    )
    return OperatorContext(frame)


def test_reason_preserves_universe():
    rng = random.Random(0)
    for _ in range(20):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        for a in frame.agents:
            assert ctx.reason(a.name, frame.universe) == frame.universe


def test_reason_chain_fixture():
    assert chain_ctx(2).reason("a", 0b101) == 0b111
    assert chain_ctx(1).reason("a", 0b101) == 0b100


def test_reason_result_is_union_of_evidence():
    rng = random.Random(1)
    for _ in range(20):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        for a in frame.agents:
            s = rng.randint(0, frame.universe)
            out = ctx.reason(a.name, s)
            assert frame.topology(a.name).is_open(out)


def test_reason_is_idempotent():
    rng = random.Random(13)
    for _ in range(40):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        for a in frame.agents:
            s = rng.randint(0, frame.universe)
            r = ctx.reason(a.name, s)
            assert ctx.reason(a.name, r) == r


def test_indicates_trivial_cases():
    ctx = chain_ctx(1)
    universe = ctx.universe
    for w_set in submasks(universe):
        assert ctx.indicates("a", w_set, universe) == universe
        for target in submasks(universe):
            if w_set & ~target == 0:
                assert ctx.indicates("a", w_set, target) == universe


def test_indicates_and_believes_chain_fixture():
    ctx = chain_ctx(1)
    assert ctx.indicates("a", 0b101, 0b100) == 0b111
    assert ctx.believes_via("a", 0b101, 0b100) == 0b100


def test_unknown_agent_is_an_error():
    with pytest.raises(FrameError):
        chain_ctx(1).reason("nobody", 0b1)


def test_every_operator_rejects_an_operand_outside_the_universe():
    # Each set operand of each ``ops`` operator, the others in the universe.
    ctx = chain_ctx(1)
    for op, method in cli._OPS.items():
        fields = MODALITIES["C" if op == "L" else op].__match_args__
        sets = [f for f in fields if f != "agent"]
        for bad in sets:
            for outside in (-1, 0b1000):
                operands = ["a"] if "agent" in fields else []
                operands += [outside if f == bad else 0b110 for f in sets]
                with pytest.raises(FrameError, match="members outside this universe"):
                    getattr(ctx, method)(*operands)


def test_synthesis_and_verification_reject_a_set_outside_the_universe():
    # The proposition or success target, the other one in the universe.
    frame = chain_ctx(1, agents=("a", "b")).frame
    protocol = synthesize(frame, 0b110, 0b100)
    assert verify_protocol(frame, protocol, 0b110).solves
    for outside in (-1, 0b1000):
        for call in (
            lambda: synthesize(frame, outside),
            lambda: synthesize(frame, outside, 0b100),
            lambda: synthesize(frame, 0b111, outside),
            lambda: verify_protocol(frame, protocol, outside),
        ):
            with pytest.raises(FrameError, match="members outside this universe"):
                call()


def test_true_reason_examples():
    assert chain_ctx(0).true_reason("a", 0b111) == 0b111
    assert chain_ctx(0).true_reason("a", 0b101) == 0b100  # interior
    assert chain_ctx(1).true_reason("a", 0b101) == 0b101  # {x} and {z} work


def test_true_reason_matches_feasible_subset_union():
    # Union of all subsets of the target decidable within tolerance+1 opens.
    rng = random.Random(2)
    for _ in range(20):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        for a in frame.agents:
            topo = frame.topology(a.name)
            target = rng.randint(0, frame.universe)
            expected = 0
            for v in submasks(target):
                if open_rank(topo, v).rank <= a.tolerance + 1:
                    expected |= v
            assert ctx.true_reason(a.name, target) == expected


def test_kuratowski_laws():
    rng = random.Random(3)
    for _ in range(40):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        for a in frame.agents:
            p1 = rng.randint(0, frame.universe)
            p2 = rng.randint(0, frame.universe)
            s = ctx.true_reason
            assert s(a.name, frame.universe) == frame.universe
            assert s(a.name, p1) & ~p1 == 0
            assert s(a.name, s(a.name, p1)) == s(a.name, p1)
            assert s(a.name, p1) & s(a.name, p2) == s(a.name, p1 & p2)


def test_true_reason_is_monotone():
    rng = random.Random(4)
    for _ in range(30):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        small = rng.randint(0, frame.universe)
        big = small | rng.randint(0, frame.universe)
        for a in frame.agents:
            assert ctx.true_reason(a.name, small) & ~ctx.true_reason(a.name, big) == 0


def test_generates_trivial_and_empty_witness():
    ctx = chain_ctx(1, agents=("a", "b"))
    universe = ctx.universe
    assert ctx.generates(universe, universe) == universe
    assert ctx.generates(0, 0b011) == 0  # nothing supports an empty witness


def test_generates_chain_fixture():
    ctx = chain_ctx(1, agents=("a", "b"))
    assert ctx.everyone_believes_via(0b101, 0b101) == 0b100
    assert ctx.generates(0b101, 0b101) == 0b100


def test_generates_agrees_with_direct_iteration():
    rng = random.Random(5)
    for _ in range(25):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        witness = rng.randint(0, frame.universe)
        target = rng.randint(0, frame.universe)
        # direct iteration of X -> everyone-believes(X), intersected over k
        acc = frame.universe
        x = target
        for _ in range(len(frame.worlds) + 2):
            x = ctx.everyone_believes_via(witness, x)
            acc &= x
        assert ctx.generates(witness, target) == acc


def test_generated_step_map_is_monotone():
    rng = random.Random(6)
    for _ in range(25):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        witness = rng.randint(0, frame.universe)
        target = rng.randint(0, frame.universe)
        small = rng.randint(0, frame.universe)
        big = small | rng.randint(0, frame.universe)

        def step(x):
            out = frame.universe
            for a in frame.agents:
                out &= ctx.believes_via(a.name, witness, target) & ctx.believes_via(
                    a.name, witness, x
                )
            return out

        assert step(small) & ~step(big) == 0


def test_common_examples():
    assert chain_ctx(1).common(0b111) == 0b111
    assert chain_ctx(1).common(0b101) == 0b101
    assert chain_ctx(0).common(0b101) == 0b100


def test_common_is_greatest_fixed_point():
    rng = random.Random(7)
    for _ in range(25):
        frame = random_frame(rng, max_worlds=4)
        ctx = OperatorContext(frame)
        target = rng.randint(0, frame.universe)
        c = ctx.common(target)

        def step(x):
            out = target
            for a in frame.agents:
                out &= ctx.true_reason(a.name, x)
            return out

        assert step(c) == c
        for x in submasks(frame.universe):
            if step(x) == x:
                assert x & ~c == 0


def test_common_matches_interior_cross_check():
    rng = random.Random(8)
    for _ in range(20):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        target = rng.randint(0, frame.universe)
        assert ctx.common(target) == common_via_interior(ctx, target)


def test_common_is_tolerance_invariant_for_inductive_agents():
    rng = random.Random(9)
    for _ in range(20):
        frame = random_frame(rng, max_worlds=5)
        target = rng.randint(0, frame.universe)
        base = frame.with_tolerances({a.name: 1 for a in frame.agents})
        reference = OperatorContext(base).common(target)
        for _ in range(5):
            tol = {a.name: rng.randint(1, 3) for a in frame.agents}
            assert OperatorContext(frame.with_tolerances(tol)).common(target) == reference


def test_lewis_common_examples():
    ctx = chain_ctx(1, agents=("a", "b"))
    assert ctx.lewis_common(ctx.universe) == ctx.universe
    assert ctx.min_tolerance("a", ctx.universe) == 0

    # C(p) = {x,z} but no single success set of rank <= 2 covers it
    assert ctx.common(0b101) == 0b101
    assert ctx.lewis_common(0b101) == 0b101
    assert open_rank(ctx.frame.topology("a"), 0b101).rank == 3
    assert ctx.min_tolerance("a", 0b101) == 2
    assert ctx.min_tolerance("b", 0b101) == 2


def test_lewis_common_is_below_common():
    rng = random.Random(10)
    for _ in range(60):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        target = rng.randint(0, frame.universe)
        assert ctx.lewis_common(target) & ~ctx.common(target) == 0


def test_lewis_common_cap(monkeypatch):
    monkeypatch.setattr(operators, "WITNESS_CAP", 0)
    rng = random.Random(11)
    frame = random_frame(rng, max_worlds=4)
    ctx = OperatorContext(frame)
    target = frame.universe
    # cap below the common set size only matters when the fast path misses;
    # the full universe is always feasible, so this must still succeed
    assert ctx.lewis_common(target) == ctx.common(target)


def test_witness_meet_generates_is_a_fixed_point():
    rng = random.Random(12)
    for _ in range(30):
        frame = random_frame(rng, max_worlds=4)
        ctx = OperatorContext(frame)
        witness = rng.randint(0, frame.universe)
        target = rng.randint(0, frame.universe)
        v = witness & ctx.generates(witness, target)
        assert v == v & ctx.generates(v, target)
