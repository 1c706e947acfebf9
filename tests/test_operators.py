"""The epistemic operators: pointwise examples, Kuratowski laws, fixed-point
characterizations, and tolerance invariance."""

import inspect
import itertools
import random
from enum import IntEnum

import pytest

from limitknow.frame import AgentSpec, Frame, FrameError, generate_topology, submasks, validate_basis
from limitknow.hierarchy import gives_reason, open_rank
from limitknow import cli, operators
from limitknow.attest import synthesize, verify_protocol
from limitknow.logic import MODALITIES
from limitknow.operators import OperatorContext
import randgen
from randgen import all_valid_bases, common_via_interior, random_frame

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


def cached_then(ctx, w_set):
    ctx.reason("a", 1)
    return ctx.reason("a", w_set)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda ctx: ctx.reason("a", True), id="reason-bool"),
        pytest.param(lambda ctx: ctx.reason("a", "1"), id="reason-string"),
        pytest.param(lambda ctx: ctx.common(True), id="common-bool"),
        pytest.param(lambda ctx: ctx.true_reason("a", 1.0), id="true-reason-float"),
        pytest.param(lambda ctx: gives_reason(ctx.frame, "a", True, 0b111), id="gives-reason-bool"),
        pytest.param(lambda ctx: open_rank(ctx.frame.topology("a"), 1.0), id="open-rank-float"),
        pytest.param(lambda ctx: ctx.frame.names(True), id="names-bool"),
        # True and 1.0 hash like 1, so a cached answer for 1 must not serve them.
        pytest.param(lambda ctx: cached_then(ctx, True), id="cached-reason-bool"),
        pytest.param(lambda ctx: cached_then(ctx, 1.0), id="cached-reason-float"),
    ],
)
def test_a_world_set_that_is_not_an_int_mask_is_a_frame_error(call):
    with pytest.raises(FrameError, match="world set must be an integer mask"):
        call(chain_ctx(1))


# The order in which each public OperatorContext method checks its
# arguments: the first bad one in this order decides the error.
CHECK_ORDER = {
    "two_open_family": ("agent",),
    "supporting_evidence": ("w_set", "agent"),
    "reason": ("w_set", "agent"),
    "indicates": ("agent", "target", "witness"),
    "believes_via": ("agent", "target", "witness"),
    "true_reason": ("agent", "target"),
    "generates": ("target", "witness"),
    "common": ("target",),
    "true_reason_topology": ("agent",),
    "lewis_common": ("target",),
    "witnesses": ("common",),
    "feasible": ("v",),
    "min_tolerance": ("agent", "target"),
}
BAD_SETS = [
    (True, "a world set must be an integer mask, not True"),
    (1.0, "a world set must be an integer mask, not 1.0"),
    (0b1000, "world set has members outside this universe"),
]


def test_the_check_order_table_names_every_public_method_and_parameter():
    public = {n for n, f in vars(OperatorContext).items() if callable(f) and not n.startswith("_")}
    assert set(CHECK_ORDER) == public
    for name, order in CHECK_ORDER.items():
        params = list(inspect.signature(getattr(OperatorContext, name)).parameters)[1:]
        assert sorted(order) == sorted(params), name


def bad_calls(name):
    """Every call of the method with at least two bad arguments (the one, for
    a method of one), each world set a different kind of bad one, with the
    error message that the first bad argument in ``CHECK_ORDER`` raises."""
    order = CHECK_ORDER[name]
    params = list(inspect.signature(getattr(OperatorContext, name)).parameters)[1:]
    for k in range(min(2, len(params)), len(params) + 1):
        for bad in itertools.combinations(params, k):
            sets = [p for p in bad if p != "agent"]
            for values in itertools.permutations(BAD_SETS, len(sets)):
                chosen = dict(zip(sets, values), agent=("zz", "unknown agent 'zz'"))
                args = [chosen[p][0] if p in bad else "a" if p == "agent" else 0b110 for p in params]
                yield args, chosen[next(p for p in order if p in bad)][1]


def warm(ctx):
    """Fill every cache with answers for the exact ints 1 and 0b110, which
    ``True`` and ``1.0`` equal."""
    for w_set in (1, 0b110):
        ctx.supporting_evidence("a", w_set)
        ctx.reason("a", w_set)
        ctx.indicates("a", w_set, w_set)
        ctx.believes_via("a", w_set, w_set)
        ctx.true_reason("a", w_set)
        ctx.generates(w_set, w_set)
        ctx.common(w_set)


@pytest.mark.parametrize("warmed", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(CHECK_ORDER))
def test_the_first_bad_argument_decides_the_error(name, warmed):
    # A record-first lookup would report supporting_evidence("zz", True) and
    # reason("zz", 8) as an unknown agent; they report the world set.
    calls = list(bad_calls(name))
    assert calls
    for args, message in calls:
        ctx = chain_ctx(1, agents=("a", "b"))
        if warmed:
            warm(ctx)
        with pytest.raises(FrameError) as info:
            list(getattr(ctx, name)(*args) or ())  # witnesses is a generator
        assert str(info.value) == message, (name, args)


class _Mask(IntEnum):
    ONE = 1
    PAST = 0b1000


@pytest.mark.parametrize(
    "call, agent",
    [
        pytest.param(lambda ctx, a, s: ctx.supporting_evidence(a, s), True, id="supporting_evidence"),
        pytest.param(lambda ctx, a, s: ctx.reason(a, s), True, id="reason"),
        pytest.param(lambda ctx, a, s: ctx.indicates(a, s, 0b110), True, id="indicates"),
        pytest.param(lambda ctx, a, s: ctx.believes_via(a, s, 0b110), True, id="believes_via"),
        pytest.param(lambda ctx, a, s: ctx.generates(s, 0b110), False, id="generates"),
    ],
)
def test_a_cached_exact_int_answers_for_no_other_value(call, agent):
    # The supporting-evidence cache is read before the check, for an exact
    # int only: True and 1.0 hash like 1.
    ctx = chain_ctx(1, agents=("a", "b"))
    answer = call(ctx, "a", 1)
    assert call(ctx, "a", _Mask.ONE) == answer  # an int subclass is a world set
    for value, message in BAD_SETS + [
        (_Mask.PAST, "world set has members outside this universe"),
        (-1, "world set has members outside this universe"),
    ]:
        with pytest.raises(FrameError) as info:
            call(ctx, "a", value)
        assert str(info.value) == message
    if agent:
        with pytest.raises(FrameError, match="unknown agent"):
            call(ctx, ["a"], 1)
    assert call(ctx, "a", 1) == answer


def test_a_negative_mask_is_a_frame_error():
    # A negative int has infinitely many set bits: no world set, universe or evidence.
    for call in (
        lambda: generate_topology((-1,)),
        lambda: validate_basis((0b1,), -1),
        lambda: Frame(["x"], [AgentSpec("a", (0b1, -2), 0)]),
    ):
        with pytest.raises(FrameError, match="negative mask"):
            call()


def test_a_basis_element_outside_the_frame_is_a_frame_error():
    # The violation names the element in binary: it has no world name past z.
    with pytest.raises(FrameError, match="element 0b1000 is not a subset of the universe"):
        Frame(["x", "y", "z"], [AgentSpec("a", (0b111, 0b1000), 0)])


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
    assert randgen.everyone_believes_via(ctx, 0b101, 0b101) == 0b100
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
            x = randgen.everyone_believes_via(ctx, witness, x)
            acc &= x
        assert ctx.generates(witness, target) == acc


def test_generates_and_common_match_their_round_loops():
    # One pass over a flat evidence list per round of G, and each agent's
    # true-reason topology fetched once for C, against full rounds of
    # everyone_believes_via and true_reason on a context of their own.
    rng = random.Random(30)
    for _ in range(300):
        frame = random_frame(rng, max_worlds=7, max_agents=3, max_tolerance=3)
        ctx, oracle = OperatorContext(frame), OperatorContext(frame)
        for _ in range(4):
            witness = rng.randint(0, frame.universe)
            target = rng.randint(0, frame.universe)
            assert ctx.generates(witness, target) == randgen.oracle_generates(oracle, witness, target)[0]
            assert ctx.common(target) == randgen.oracle_common(oracle, target)[0]


@pytest.mark.parametrize("tree", [False, True], ids=["staircase", "tree"])
@pytest.mark.parametrize("n", [9, 16, 33, 64, 129, 256])
def test_generates_and_common_match_their_round_loops_on_staircases(n, tree):
    # Past 128 worlds C of all-but-world-0 takes more than 64 rounds.
    u = (1 << n) - 1
    for tolerances in ((0, 0), (1, 1), (0, 1), (1, 2), (0, 3)):
        frame = randgen.staircase_frame(n, tolerances, tree)
        ctx, oracle = OperatorContext(frame), OperatorContext(frame)
        common, rounds = randgen.oracle_common(oracle, u & ~1)
        assert common and rounds > n // 2
        assert ctx.common(u & ~1) == common
        for witness in (u, u & ~(1 << (n - 2)), u & ~0b10):
            for target in (u & ~1, u & ~(1 << n // 2)):
                generated = randgen.oracle_generates(oracle, witness, target)[0]
                assert ctx.generates(witness, target) == generated
        if not tree:  # a tree's root turns bad with its first removed world
            assert randgen.oracle_generates(oracle, u, u & ~1)[1] > n // 2


def _pin_fixed_points(frame, targets, witnesses, interior=False):
    """``common`` and ``generates`` against the round loops on a separate
    context, and ``common`` against the exhaustive interior when asked."""
    ctx, oracle = OperatorContext(frame), OperatorContext(frame)
    for target in targets:
        assert ctx.common(target) == randgen.oracle_common(oracle, target)[0]
        if interior:
            assert ctx.common(target) == common_via_interior(oracle, target)
        for witness in witnesses:
            generated = randgen.oracle_generates(oracle, witness, target)[0]
            assert ctx.generates(witness, target) == generated


def _edge_sets(n):
    u = (1 << n) - 1
    targets = [0, u, u & ~1, u & ~(1 << n // 2), u >> 1, u & ~(1 << (n - 1))]
    witnesses = [0, u, u & ~1, u & ~(1 << (n - 2)), u & ~0b10, 1 << n // 2]
    return targets, witnesses


@pytest.mark.parametrize("tolerances", [(0, 0), (1, 1), (0, 1)])
def test_fixed_points_match_the_round_loops_and_interior_on_small_staircases(tolerances):
    for n, tree in ((9, False), (12, False), (12, True)):
        targets, witnesses = _edge_sets(n)
        frame = randgen.staircase_frame(n, tolerances, tree)
        _pin_fixed_points(frame, targets, witnesses, interior=True)


@pytest.mark.parametrize("tolerances", [(0, 0), (1, 1), (0, 1), (1, 0)])
def test_fixed_points_match_the_round_loops_on_opposed_chains(tolerances):
    for n, interior in ((10, True), (64, False), (200, False)):
        targets, witnesses = _edge_sets(n)
        frame = randgen.opposed_chains_frame(n, tolerances)
        _pin_fixed_points(frame, targets, witnesses, interior)


@pytest.mark.parametrize("make", [
    lambda n: randgen.staircase_frame(n, (0, 1), True),
    lambda n: randgen.opposed_chains_frame(n, (1, 0)),
], ids=["tree", "chains"])
def test_the_empty_and_full_sets_fix_common_and_generates(make):
    for n in (1, 2, 9, 64):
        frame = make(n)
        ctx, u = OperatorContext(frame), frame.universe
        assert (ctx.common(0), ctx.common(u)) == (0, u)
        assert ctx.generates(u, u) == u
        for s in (0, u, u >> 1, 1):
            assert ctx.generates(0, s) == ctx.generates(s, 0) == 0


def test_a_warm_context_answers_like_a_fresh_one():
    rng = random.Random(32)
    for frame in (randgen.staircase_frame(40, (0, 1), True),
                  randgen.opposed_chains_frame(40, (1, 0))):
        u, warm = frame.universe, OperatorContext(frame)
        for _ in range(200):
            # Mostly near-full sets, whose fixed points take many rounds.
            target = u & ~(1 << rng.randrange(40)) if rng.random() < 0.5 else rng.getrandbits(40)
            witness = u & ~rng.getrandbits(3) if rng.random() < 0.5 else rng.getrandbits(40)
            assert warm.common(target) == OperatorContext(frame).common(target)
            assert warm.generates(witness, target) == OperatorContext(frame).generates(witness, target)


def test_every_supporting_element_meets_the_set():
    # ``generates`` pairs every supporting element with its part of the
    # witness and filters no empty part; this keeps every part non-empty.
    rng = random.Random(320)
    for _ in range(300):
        frame = random_frame(rng, max_worlds=7)
        ctx = OperatorContext(frame)
        for s in [0, frame.universe] + [rng.randint(0, frame.universe) for _ in range(4)]:
            for a in frame.agents:
                assert all(e & s for e in ctx.supporting_evidence(a.name, s))


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


def test_true_reason_is_some_true_witness_believed_via():
    # S's closed form against its definition: the worlds where some true
    # witness W gives the agent reason to believe the target via W. B depends
    # on tolerance and the Skula interior does not, so this is the invariance
    # theorem checked from the definition, on every basis of up to 3 worlds.
    checks = 0
    for n in (1, 2, 3):
        for basis in all_valid_bases(n):
            base = Frame([f"w{i}" for i in range(n)], [AgentSpec("a", basis, 0)])
            for tolerance in range(5):
                ctx = OperatorContext(base.with_tolerances({"a": tolerance}))
                for target in submasks(base.universe):
                    expected = 0
                    for witness in submasks(base.universe):
                        expected |= witness & ctx.believes_via("a", witness, target)
                    assert ctx.true_reason("a", target) == expected
                    checks += 1
    assert checks == 2950


def _common_and_generates_over_tolerances(frames):
    """Per (frame, witness, target): whether G changes across the tolerance
    vectors {1,2,3}^2; C must not change for any target."""
    vectors = list(itertools.product((1, 2, 3), repeat=2))
    changes = []
    for frame in frames:
        ctxs = [OperatorContext(frame.with_tolerances(dict(zip("ab", v)))) for v in vectors]
        for target in submasks(frame.universe):
            assert len({ctx.common(target) for ctx in ctxs}) == 1
            for witness in submasks(frame.universe):
                changes.append(len({ctx.generates(witness, target) for ctx in ctxs}) > 1)
    return changes


def _two_agent_frame(n, basis_a, basis_b):
    names = [f"w{i}" for i in range(n)]
    return Frame(names, [AgentSpec("a", basis_a, 1), AgentSpec("b", basis_b, 1)])


def test_common_is_invariant_and_generates_is_sensitive_on_two_agent_frames():
    # Tolerance vectors {1,2,3}^2 cover [1, height]^2 on up to 3 worlds.
    # Exhaustive up to 2 worlds: G never changes there.
    small = [
        _two_agent_frame(n, a, b)
        for n in (1, 2)
        for a, b in itertools.product(all_valid_bases(n), repeat=2)
    ]
    changes = _common_and_generates_over_tolerances(small)
    assert (len(small), len(changes), sum(changes)) == (26, 404, 0)

    # A seeded sample of the 5,041 two-agent 3-world frames: G changes for
    # some witness and target (2,052 of all 322,624 triples do).
    pairs = list(itertools.product(all_valid_bases(3), repeat=2))
    sample = [_two_agent_frame(3, a, b) for a, b in random.Random(13).sample(pairs, 100)]
    changes = _common_and_generates_over_tolerances(sample)
    assert (len(changes), sum(changes)) == (6400, 74)


def test_tolerance_counts_only_up_to_the_height():
    # Finite ranks are at most the height, and reason and feasibility compare
    # ranks with t and t + 1, so tolerances from the height up give the same
    # operators; true reason tells only tolerance 0 apart.
    bases = values = 0
    for n in (1, 2, 3):
        for basis in all_valid_bases(n):
            base = Frame([f"w{i}" for i in range(n)], [AgentSpec("a", basis, 0)])
            height = randgen.height(base.topology("a"))
            sets = list(submasks(base.universe))
            answers = []
            for tolerance in range(height, height + 4):
                ctx = OperatorContext(base.with_tolerances({"a": tolerance}))
                answers.append(
                    [ctx.reason("a", p) for p in sets]
                    + [ctx.true_reason("a", p) for p in sets]
                    + [ctx.common(p) for p in sets]
                    + [ctx.feasible(p) for p in sets]
                    + [ctx.indicates("a", w, p) for w in sets for p in sets]
                    + [ctx.generates(w, p) for w in sets for p in sets]
                )
            assert all(a == answers[0] for a in answers)
            bases += 1
            values += sum(map(len, answers))
    assert (bases, values) == (77, 46464)


def _sound_rule_instances(frames):
    """Check each inference rule on every assignment of world sets, with the
    premises as set inclusions; count the instances whose premises hold.

    R: R(U) = U.  I: I(W, U) = U.  G: X <= EB(W, X) and X <= EB(W, P) give
    X <= G(W, P).  C: X <= S_a(X) for every agent a and X <= P give X <= C(P).
    """
    counts = {"R": 0, "I": 0, "G": 0, "C": 0}
    for frame in frames:
        ctx = OperatorContext(frame)
        sets = list(submasks(frame.universe))
        for a in frame.agents:
            assert ctx.reason(a.name, frame.universe) == frame.universe
            counts["R"] += 1
            for w in sets:
                assert ctx.indicates(a.name, w, frame.universe) == frame.universe
                counts["I"] += 1
        for w in sets:
            for x in sets:
                if x & ~randgen.everyone_believes_via(ctx, w, x):
                    continue
                for p in sets:
                    if x & ~randgen.everyone_believes_via(ctx, w, p) == 0:
                        assert x & ~ctx.generates(w, p) == 0
                        counts["G"] += 1
        for x in sets:
            if any(x & ~ctx.true_reason(a.name, x) for a in frame.agents):
                continue
            for p in sets:
                if x & ~p == 0:
                    assert x & ~ctx.common(p) == 0
                    counts["C"] += 1
    return counts


def test_every_inference_rule_is_sound_on_every_assignment():
    single = [
        Frame([f"w{i}" for i in range(n)], [AgentSpec("a", basis, tolerance)])
        for n in (1, 2, 3)
        for basis in all_valid_bases(n)
        for tolerance in range(4)
    ]
    counts = _sound_rule_instances(single)
    assert (len(single), counts) == (308, {"R": 308, "I": 2360, "G": 27416, "C": 6850})

    vectors = list(itertools.product(range(3), repeat=2))
    small = [
        _two_agent_frame(n, a, b).with_tolerances(dict(zip("ab", v)))
        for n in (1, 2)
        for a, b in itertools.product(all_valid_bases(n), repeat=2)
        for v in vectors
    ]
    counts = _sound_rule_instances(small)
    assert (len(small), counts) == (234, {"R": 468, "I": 1836, "G": 4406, "C": 1636})

    rng = random.Random(15)
    pairs = list(itertools.product(all_valid_bases(3), repeat=2))
    sample = [
        _two_agent_frame(3, a, b).with_tolerances(dict(zip("ab", rng.choice(vectors))))
        for a, b in rng.sample(pairs, 200)
    ]
    counts = _sound_rule_instances(sample)
    assert counts == {"R": 400, "I": 3200, "G": 15864, "C": 4058}


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


def test_common_knowledge_has_a_finite_rank_for_every_agent():
    # C(p) is open in each agent's true-reason topology: a union of
    # differences of opens, of finite rank even where the topology is not T0.
    rng = random.Random(39)
    not_t0 = 0
    for _ in range(40):
        base = random_frame(rng, max_worlds=5)
        not_t0 += len(set(base.topology(base.agents[0].name).neighborhoods)) < len(base.worlds)
        for tolerance in range(3):
            ctx = OperatorContext(base.with_tolerances({a.name: tolerance for a in base.agents}))
            for p in submasks(base.universe):
                for a in base.agents:
                    rank = open_rank(base.topology(a.name), ctx.common(p))
                    assert not rank.is_infinite
                    assert ctx.min_tolerance(a.name, p) == max(rank.rank - 1, 0)
    assert not_t0 >= 10


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
