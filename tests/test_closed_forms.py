"""The neighborhood closed forms against their brute-force definitions: true
reason, common knowledge, reason simpliciter, basis validation and limit
verdicts, plus the large frames that only the closed forms can handle."""

import itertools
import random
from functools import reduce
from operator import and_, or_

import pytest

from limitknow import frame as frame_module
from limitknow.attest import ProtocolError, choose_success_set, synthesize, verify_protocol
from limitknow.frame import (
    AgentSpec,
    BasisReport,
    BasisViolation,
    Frame,
    Topology,
    bits,
    generate_topology,
    submasks,
)
from limitknow.hierarchy import (
    INFINITE,
    Verdict,
    _levels,
    closed_rank,
    gives_reason,
    limit_verdicts,
    max_switches,
    open_rank,
)
from limitknow.operators import OperatorContext
from randgen import (
    all_methods,
    all_valid_bases,
    common_via_interior,
    oracle_all_ranks,
    oracle_feasible_sets,
    oracle_lewis_common,
    oracle_limit_verdicts,
    oracle_synth_success,
    random_frame,
)


def chain_frame(n, tolerance=1):
    """Two opposed chain agents over n worlds: a learns suffixes, b prefixes."""
    universe = (1 << n) - 1
    ascending = tuple(universe & ~((1 << k) - 1) for k in range(n))
    descending = tuple((1 << (k + 1)) - 1 for k in range(n))
    return Frame(
        [f"w{i}" for i in range(n)],
        [AgentSpec("a", ascending, tolerance), AgentSpec("b", descending, tolerance)],
    )


# ---------------------------------------------------------------------------
# true reason and common knowledge


def test_true_reason_matches_two_open_union():
    rng = random.Random(31)
    for _ in range(60):
        frame = random_frame(rng, max_worlds=6)
        ctx = OperatorContext(frame)
        for a in frame.agents:
            if a.tolerance == 0:
                continue
            family = ctx.two_open_family(a.name)
            for target in submasks(frame.universe):
                expected = 0
                for d in family:
                    if d & ~target == 0:
                        expected |= d
                assert ctx.true_reason(a.name, target) == expected


def test_true_reason_matches_feasible_subset_union():
    # Some true reason = some subset of the target the agent can decide
    # within tolerance (rank at most tolerance + 1), at every tolerance.
    rng = random.Random(32)
    for _ in range(40):
        frame = random_frame(rng, max_worlds=5)
        ctx = OperatorContext(frame)
        for a in frame.agents:
            ranks = oracle_all_ranks(frame.topology(a.name))
            feasible = [v for v, r in ranks.items() if r <= a.tolerance + 1]
            for target in submasks(frame.universe):
                expected = 0
                for v in feasible:
                    if v & ~target == 0:
                        expected |= v
                assert ctx.true_reason(a.name, target) == expected


def test_true_reason_neighborhoods_are_the_t0_classes():
    # The Skula neighborhood of each world, read by Topology.rooted, against
    # the brute-force T0 class {v : N(v) = N(w)}: at every world position of
    # every valid basis of up to 4 worlds. On the same bases, rooted of each
    # world set e, open or not, is the brute-force {w : N(w) = e}.
    positions = 0
    for n in (1, 2, 3, 4):
        for basis in all_valid_bases(n):
            frame = Frame([f"w{i}" for i in range(n)], [AgentSpec("a", basis, 1)])
            topology = frame.topology("a")
            least = topology.neighborhoods
            classes = OperatorContext(frame).true_reason_topology("a").neighborhoods
            for w in range(n):
                assert classes[w] == sum([1 << v for v in range(n) if least[v] == least[w]])
                positions += 1
            sets = range(1 << n)
            assert topology.rooted(sets) == [
                sum([1 << w for w in range(n) if least[w] == e]) for e in sets
            ]
    assert positions == 23204


def test_common_matches_meet_interior():
    rng = random.Random(33)
    for _ in range(60):
        frame = random_frame(rng, max_worlds=7)
        ctx = OperatorContext(frame)
        for _ in range(4):
            target = rng.randint(0, frame.universe)
            assert ctx.common(target) == common_via_interior(ctx, target)


# ---------------------------------------------------------------------------
# reason simpliciter


def test_witness_searches_match_feasible_subset_oracles():
    """L and target-free synthesis against searches over every subset of the
    target, for every target of random frames; the library searches only the
    common-knowledge set, past its own fast path."""
    rng = random.Random(29)
    searched = 0
    for _ in range(300):
        frame = random_frame(rng, max_worlds=6)
        ctx = OperatorContext(frame)
        feasible = oracle_feasible_sets(frame)
        for target in submasks(frame.universe):
            assert ctx.lewis_common(target) == oracle_lewis_common(feasible, target)
            try:
                chosen = choose_success_set(frame, target)
            except ProtocolError:
                chosen = None
            else:  # the protocol built for the chosen set succeeds exactly there
                protocol = synthesize(frame, target)
                assert verify_protocol(frame, protocol, target).success_set == chosen
            assert chosen == oracle_synth_success(feasible, target)
            common = ctx.common(target)
            searched += bool(common) and not ctx.feasible(common)
    assert searched >= 40


def subspace_gives_reason(frame, agent, w_set, evidence):
    """The definition: within tolerance, some k at which the trace is
    k-closed but not k-open in the subspace over the evidence."""
    sub = frame.subspace(agent, evidence)
    part = w_set & evidence
    return any(
        closed_rank(sub, part).rank <= k < open_rank(sub, part).rank
        for k in range(frame.agent(agent).tolerance + 1)
    )


def test_gives_reason_matches_subspace_loop():
    rng = random.Random(34)
    for _ in range(40):
        frame = random_frame(rng, max_worlds=6)
        for a in frame.agents:
            for e in a.basis:
                for w_set in submasks(frame.universe):
                    assert gives_reason(frame, a.name, w_set, e) == subspace_gives_reason(
                        frame, a.name, w_set, e
                    )


# ---------------------------------------------------------------------------
# tolerance tests from alternation levels


def test_levels_count_the_open_ranks_inside_every_element():
    # Every valid basis of up to 3 worlds and every 4-world basis of at most
    # 6 elements, every set and element, at a depth one past the greatest
    # finite rank; non-T0 bases give infinite ranks, which count as the depth.
    # The levels stop at the depth or at the first level where a side is empty.
    wrong, infinite = [], 0
    for basis in all_valid_bases(3) + all_valid_bases(4, max_elements=6):
        topo = generate_topology(basis)
        ranks = {s: open_rank(topo, s).rank for s in submasks(topo.universe)}
        depth = max(r for r in ranks.values() if r != INFINITE) + 1
        infinite += INFINITE in ranks.values()
        ranks = {s: min(r, depth) for s, r in ranks.items()}
        for s in ranks:
            ins, outs = _levels(topo, s, depth)
            stops = len(ins) == depth or not (ins[-1] and outs[-1])
            if len(ins) != len(outs) or len(ins) > depth or not stops:
                wrong.append((basis, s))
            for e in basis:
                got = (len([i for i in ins if i & e]), len([o for o in outs if o & e]))
                if got != (ranks[s & e], ranks[e & ~s]):
                    wrong.append((basis, s, e))
    assert wrong == [] and infinite > 100


def test_supporting_evidence_is_the_evidence_gives_reason_accepts():
    rng = random.Random(37)
    for _ in range(40):
        base = random_frame(rng, max_worlds=6)
        for tolerance in range(4):
            frame = base.with_tolerances({a.name: tolerance for a in base.agents})
            ctx = OperatorContext(frame)
            for a in frame.agents:
                for w_set in submasks(frame.universe):
                    assert ctx.supporting_evidence(a.name, w_set) == tuple(
                        e for e in a.basis if gives_reason(frame, a.name, w_set, e)
                    )


def test_feasible_is_rank_within_tolerance_plus_one():
    rng = random.Random(38)
    for _ in range(60):
        frame = random_frame(rng, max_worlds=6)
        ranks = [(oracle_all_ranks(frame.topology(a.name)), a.tolerance) for a in frame.agents]
        ctx = OperatorContext(frame)
        for v in submasks(frame.universe):
            expected = all(r.get(v, INFINITE) <= t + 1 for r, t in ranks)
            assert ctx.feasible(v) == expected


def test_tolerance_tests_stop_at_the_bound(monkeypatch):
    # Reason at tolerance t reads at most t + 1 alternation levels of the
    # set: 2t meeting passes, fewer once a level empties, and no hull, so a
    # tolerance-0 agent takes neither. Feasibility reads t + 1 levels per
    # agent and the inner side of one more.
    calls = {"hull": 0, "meeting": 0}
    for name in calls:

        def counting(self, *args, name=name, original=getattr(Topology, name)):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(Topology, name, counting)
    for n, tolerance in ((32, 0), (256, 3)):
        frame = chain_frame(n, tolerance)
        ctx = OperatorContext(frame)
        alternating = int("01" * (n // 2), 2)  # rank n for a, n - 1 for b
        for p in (frame.universe & ~0b111, 0b111, alternating):
            for a in frame.agents:
                before = calls["meeting"]
                supported = ctx.reason(a.name, p)
                assert calls["meeting"] - before <= 2 * tolerance
                if p == alternating:  # its levels do not empty within the bound
                    assert calls["meeting"] - before == 2 * tolerance
                if tolerance == 0:  # evidence supports a set it lies inside
                    assert supported == reduce(or_, [e for e in a.basis if e & ~p == 0], 0)
        before = calls["meeting"]
        assert not ctx.feasible(alternating)
        assert calls["meeting"] - before <= (2 * tolerance + 1) * len(frame.agents)
    assert calls["hull"] == 0


def test_levels_stop_at_the_first_empty_level(monkeypatch):
    # A constant method has no switch: its No side is empty from the first
    # level on, so counting its switches needs no further level.
    calls = []

    def counting(self, *args, original=Topology.meeting):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Topology, "meeting", counting)
    basis = chain_frame(64, 0).agent("a").basis
    assert max_switches({e: Verdict.YES for e in basis}, Verdict.YES) == 0
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# basis validation


def pairwise_validate(elements, universe):
    """The definition: every pair of elements at a world has an element at
    that world inside their intersection; each world's least evidence is the
    intersection of every element at it (0 at an uncovered world or a
    position outside the universe)."""
    found = []
    seen = set()
    for e in elements:
        if e == 0:
            found.append(BasisViolation("empty-element", element=e))
        if e & ~universe:
            found.append(BasisViolation("outside-universe", element=e))
        if e in seen:
            found.append(BasisViolation("duplicate-element", element=e))
        seen.add(e)
    least = [0] * universe.bit_length()
    for w in bits(universe):
        at_w = [e for e in elements if (e >> w) & 1]
        if not at_w:
            found.append(BasisViolation("uncovered-world", world=w))
            continue
        least[w] = reduce(and_, at_w)
        for i, e1 in enumerate(at_w):
            for e2 in at_w[i + 1 :]:
                meet = e1 & e2
                if not any((e3 >> w) & 1 and e3 & ~meet == 0 for e3 in at_w):
                    found.append(
                        BasisViolation("not-directed", element=e1, other=e2, world=w)
                    )
    return BasisReport(tuple(found), tuple(least))


def test_validate_basis_matches_pairwise_on_every_small_family():
    # The ascending pass answers exactly the valid families; the rest fall
    # back to the scan that lists the violations.
    universe = 0b111
    masks = range(0, 16)  # includes the empty set and a bit outside
    valid = 0
    for size in range(0, 5):
        for family in itertools.product(masks, repeat=size):
            expected = pairwise_validate(family, universe)
            assert frame_module.validate_basis(family, universe) == expected
            assert (frame_module._least_evidence(family, universe) is not None) == expected.ok
            valid += expected.ok
    assert valid == 679  # the 54 valid bases of 3 worlds with at most 4 elements, in every order


@pytest.mark.parametrize(
    "family, universe",
    [((0b01, 0b10, 0b11, 0b11), 0b11), ((1, 2, 4, 3, 5, 6, 3), 0b111)],
    ids=["chain", "every-pair"],
)
def test_a_duplicate_element_is_reported_though_it_passes_the_covering_test(family, universe):
    # The later copy lies inside an element already checked: itself.
    report = frame_module.validate_basis(family, universe)
    assert report.violations == (BasisViolation("duplicate-element", element=0b11),)


def test_positions_off_a_universe_with_holes_have_no_least_evidence():
    assert frame_module.validate_basis((0b101, 0b100), 0b101).neighborhoods == (0b101, 0, 0b100)
    assert generate_topology((0b100,)).neighborhoods == (0, 0, 0b100)


def permuted(family, perm):
    return tuple([sum([1 << perm[w] for w in bits(e)]) for e in family])


def halving_tree(n, leaf):
    """Nested partitions of n worlds: halve intervals down to blocks of at
    most ``leaf``."""
    out = []

    def split(lo, hi):
        out.append(((1 << hi) - 1) & ~((1 << lo) - 1))
        if hi - lo > leaf:
            split(lo, (lo + hi) // 2)
            split((lo + hi) // 2, hi)

    split(0, n)
    return tuple(out)


def big_families(n):
    """Valid bases over n worlds whose checks nest deeply: the two opposed
    chains (suffixes and prefixes), both under a world permutation, and a
    halving tree down to single worlds, plain and permuted."""
    rng = random.Random(n)
    frame = chain_frame(n)
    perm = rng.sample(range(n), n)
    suffix, prefix = frame.agent("a").basis, frame.agent("b").basis
    tree = halving_tree(n, 1)
    return {
        "suffix": suffix,
        "prefix": prefix,
        "permuted-suffix": permuted(suffix, perm),
        "permuted-prefix": permuted(prefix, perm),
        "tree": tree,
        "permuted-tree": permuted(tree, perm),
    }


@pytest.mark.parametrize("n", [64, 128, 256])
def test_validate_basis_matches_the_scan_on_deep_families(n, monkeypatch):
    # The scan is what validate_basis runs on a refused basis; it matches
    # pairwise_validate above, which is too slow past 64 worlds.
    universe = (1 << n) - 1
    rng = random.Random(n + 1)
    for name, family in big_families(n).items():
        family = rng.sample(family, len(family))
        report = frame_module.validate_basis(family, universe)
        with monkeypatch.context() as m:
            m.setattr(frame_module, "_least_evidence", lambda *args: None)
            assert report == frame_module.validate_basis(family, universe), name
        assert report.ok, name
        if n == 64:
            assert report == pairwise_validate(family, universe), name


def test_the_ascending_pass_refuses_every_broken_deep_family():
    n = 32
    universe = (1 << n) - 1
    rng = random.Random(31)
    for name, family in big_families(n).items():
        a, b = rng.sample(range(n), 2)
        wider = tuple([e for e in family if e & (e - 1)])  # no single world
        broken = {
            # Not directed at a or at b, since no element is one world there;
            # or, where each one's least element holds the other, a duplicate.
            "crossing": wider + (1 << a | 1 << b,),
            "duplicate": family + (family[n // 2],),
            "outside": family + (1 << n,),
            "uncovered": tuple([e & ~0b100000 for e in family if e & ~0b100000]),
        }
        for how, bad in broken.items():
            bad = rng.sample(bad, len(bad))
            expected = pairwise_validate(bad, universe)
            assert frame_module.validate_basis(bad, universe) == expected, (name, how)
            assert not expected.ok, (name, how)
            assert frame_module._least_evidence(bad, universe) is None, (name, how)


def test_validate_basis_matches_pairwise_on_random_families():
    rng = random.Random(35)
    invalid = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        universe = (1 << n) - 1
        if rng.random() < 0.5:
            family = list(random_frame(rng, max_worlds=n).agents[0].basis)
            universe = (1 << max(e.bit_length() for e in family)) - 1
            family.append(rng.randint(1, universe))  # often breaks directedness
        else:
            family = [rng.randint(0, 2 * universe + 1) for _ in range(rng.randint(1, 8))]
        rng.shuffle(family)
        report = frame_module.validate_basis(family, universe)
        assert report == pairwise_validate(family, universe)
        invalid += not report.ok
    assert invalid > 100


# ---------------------------------------------------------------------------
# limit verdicts


def test_limit_verdicts_match_settling_definition_on_every_small_basis():
    # all_valid_bases lists elements in increasing order, where the first
    # element at a world is already the least; the reversed order is not
    methods = 0
    for n in range(1, 4):
        for basis in all_valid_bases(n):
            for method in all_methods(basis):
                for order in (basis, basis[::-1]):
                    ordered = {e: method[e] for e in order}
                    assert limit_verdicts(ordered) == oracle_limit_verdicts(method, order)
                methods += 1
    assert methods == 1358  # every method on all 77 valid bases


@pytest.mark.parametrize(
    "basis",
    [(0b011, 0b110), (0b0, 0b1), (-1,)],
    # world 1 lies in both elements, whose meet {1} is not evidence; then
    # bases a frame rejects for other reasons
    ids=["not-directed", "empty-element", "negative-element"],
)
def test_limit_verdicts_reject_evidence_without_a_least_element(basis):
    method = {e: Verdict.YES if e & 1 else Verdict.NO for e in basis}
    with pytest.raises(frame_module.FrameError):
        limit_verdicts(method)


# ---------------------------------------------------------------------------
# frames too large to enumerate


def test_inductive_operators_run_past_enumeration_size():
    # 24 worlds, where enumerating opens was refused (limit 20)
    frame = chain_frame(24)
    ctx = OperatorContext(frame)
    p = frame.universe & ~0b111
    assert ctx.true_reason("a", p) == p
    assert ctx.common(p) == p


def test_reason_on_a_large_chain_builds_no_subspaces(monkeypatch):
    def refuse(*args):
        raise AssertionError("Frame.subspace called")

    monkeypatch.setattr(Frame, "subspace", refuse)
    frame = chain_frame(256)
    ctx = OperatorContext(frame)
    p = frame.universe & ~0b111
    # a: evidence inside p supports it, the rest has closed rank 2 > 1
    assert ctx.reason("a", p) == p
    # b: every prefix reaching into p leaves {w0,w1,w2}, an open, outside
    assert ctx.reason("b", p) == frame.universe
    assert ctx.true_reason("a", p) == ctx.common(p) == p


def test_with_tolerances_does_not_validate_again(monkeypatch):
    frame = chain_frame(8)
    calls = []
    original = frame_module.validate_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frame_module, "validate_basis", counting)
    bumped = frame.with_tolerances({"a": 3})
    assert calls == []
    assert bumped.agent("a").tolerance == 3 and bumped.agent("b").tolerance == 1
    assert bumped.topology("a") is frame.topology("a")
    assert frame.agent("a").tolerance == 1
    with pytest.raises(frame_module.FrameError):
        frame.with_tolerances({"b": -1})
