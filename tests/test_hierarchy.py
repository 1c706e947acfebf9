"""Nested differences, ranks against brute-force oracles, limit verdicts,
switch counting, and the chain/method correspondence."""

import random

import pytest

from limitknow import frame as frame_module
from limitknow.attest import synthesize, verify_protocol
from limitknow.frame import AgentSpec, Frame, FrameError, generate_topology, submasks
from limitknow.hierarchy import (
    INFINITE,
    Verdict,
    _switches,
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
from randgen import (
    all_methods,
    all_valid_bases,
    chain_frame,
    oracle_all_ranks,
    oracle_min_switches,
    oracle_switches,
    random_basis,
    sierpinski_frame,
)

YES, NO = Verdict.YES, Verdict.NO


# ---------------------------------------------------------------------------
# nested differences


def test_nested_difference_examples():
    assert nested_difference([0b111]) == 0b111
    assert nested_difference([0b111, 0b100]) == 0b011
    assert nested_difference([0b111, 0b110, 0b100]) == 0b101
    assert nested_difference([]) == 0


def test_nested_difference_rejects_non_descending():
    with pytest.raises(FrameError):
        nested_difference([0b100, 0b110])


def test_nested_difference_matches_layer_formula():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 6)
        universe = (1 << n) - 1
        length = rng.randint(1, 5)
        chain = []
        cur = universe
        for _ in range(length):
            cur &= rng.randint(0, universe)
            chain.append(cur)
        padded = chain + [0]
        layers = 0
        for k in range(0, len(chain), 2):
            layers |= padded[k] & ~padded[k + 1]
        assert nested_difference(chain) == layers


def test_method_from_chain_validates_the_chain():
    basis = (0b111, 0b110, 0b100)
    assert method_from_chain((0b111, 0b110), basis) == {0b111: YES, 0b110: NO, 0b100: NO}
    assert method_from_chain([0b111, 0b110], basis) == method_from_chain((0b111, 0b110), basis)
    with pytest.raises(FrameError, match="not open"):
        method_from_chain((0b111, 0b010), basis)  # {y} is not open
    with pytest.raises(FrameError, match="not descending"):
        method_from_chain((0b110, 0b111), basis)  # ascending


def test_method_from_chain_validates_its_basis():
    # {x,y} and {y,z} meet in {y}, which no element refines: not directed at y
    with pytest.raises(FrameError, match="invalid basis: no common refinement at world 1"):
        method_from_chain((0b111,), (0b011, 0b110, 0b111))


def test_chain_openness_is_openness_in_the_generated_topology():
    # method_from_chain's union test against Topology.is_open, for every set
    # over every valid basis of up to 3 worlds and of 4 worlds with at most 6
    # elements.
    bases = [b for n in (1, 2, 3) for b in all_valid_bases(n)] + all_valid_bases(4, 6)
    pairs = 0
    for basis in bases:
        topo = generate_topology(basis)
        for s in submasks(topo.universe):
            try:
                method_from_chain((s,), basis)
                accepted = True
            except FrameError:
                accepted = False
            assert accepted == topo.is_open(s)
            pairs += 1
    assert pairs == 33198


# ---------------------------------------------------------------------------
# ranks


def test_open_rank_examples():
    topo = generate_topology([0b111, 0b110, 0b100])
    r = open_rank(topo, 0b010)  # {y}
    assert r.rank == 2 and r.witness == (0b110, 0b100)
    assert open_rank(topo, 0).rank == 0
    r = open_rank(topo, 0b101)  # {x,z}
    assert r.rank == 3 and r.witness == (0b111, 0b110, 0b100)

    indiscrete = generate_topology([0b11])
    assert open_rank(indiscrete, 0b01).rank == INFINITE
    assert open_rank(indiscrete, 0b01).witness is None


def test_rank_witness_evaluates_to_the_set():
    rng = random.Random(2)
    for _ in range(40):
        topo = generate_topology(random_basis(rng, rng.randint(1, 5)))
        for s in submasks(topo.universe):
            r = open_rank(topo, s)
            if not r.is_infinite:
                assert len(r.witness) == r.rank
                assert all(topo.is_open(o) for o in r.witness)
                assert nested_difference(r.witness) == s


def test_greedy_rank_equals_oracle():
    rng = random.Random(9)
    for _ in range(25):
        topo = generate_topology(random_basis(rng, rng.randint(1, 5)))
        oracle = oracle_all_ranks(topo)
        for s in submasks(topo.universe):
            assert open_rank(topo, s).rank == oracle.get(s, INFINITE)


def test_closed_rank_is_open_rank_of_complement():
    rng = random.Random(4)
    for _ in range(25):
        topo = generate_topology(random_basis(rng, rng.randint(1, 5)))
        for s in submasks(topo.universe):
            assert closed_rank(topo, s).rank == open_rank(topo, topo.universe & ~s).rank


def test_hierarchy_ladder_inclusions():
    # k-open implies (k+1)-open and (k+1)-closed.
    rng = random.Random(6)
    for _ in range(25):
        topo = generate_topology(random_basis(rng, rng.randint(1, 5)))
        for s in submasks(topo.universe):
            r = open_rank(topo, s).rank
            if r == INFINITE:
                continue
            assert open_rank(topo, s).rank <= r + 1
            assert closed_rank(topo, s).rank <= r + 1


def test_two_open_intersection_is_two_open():
    rng = random.Random(8)
    for _ in range(20):
        topo = generate_topology(random_basis(rng, rng.randint(1, 5)))
        opens = topo.opens
        two_opens = sorted({a & ~b for a in opens for b in opens})
        for _ in range(40):
            w1, w2 = rng.choice(two_opens), rng.choice(two_opens)
            assert open_rank(topo, w1 & w2).rank <= 2


def test_unions_of_deep_opens_decompose_into_two_open_layers():
    rng = random.Random(10)
    for _ in range(20):
        topo = generate_topology(random_basis(rng, rng.randint(1, 5)))
        for s in submasks(topo.universe):
            r = open_rank(topo, s)
            if r.is_infinite or r.rank == 0:
                continue
            padded = r.witness + (0,)
            layers = [padded[k] & ~padded[k + 1] for k in range(0, r.rank, 2)]
            acc = 0
            for layer in layers:
                assert open_rank(topo, layer).rank <= 2
                acc |= layer
            assert acc == s


# ---------------------------------------------------------------------------
# the evidence-relative predicates


def test_gives_reason_when_evidence_entails_the_set():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 5)
        frame = Frame(
            [f"w{i}" for i in range(n)],
            [AgentSpec("a", random_basis(rng, n), rng.randint(0, 3))],
        )
        for e in frame.agent("a").basis:
            w_set = e | rng.randint(0, frame.universe)
            assert gives_reason(frame, "a", w_set, e)


def test_gives_reason_chain_fixture():
    frame = chain_frame(agents=("a",))
    w = 0b101  # {x,z}
    assert not gives_reason(frame, "a", w, 0b111)  # tolerance 1
    deeper = Frame(frame.worlds, [AgentSpec("a", frame.agent("a").basis, 2)])
    assert gives_reason(deeper, "a", w, 0b111)  # subspace closed rank is 2


def test_gives_reason_sierpinski():
    assert not gives_reason(sierpinski_frame(0), "a", 0b10, 0b11)
    assert gives_reason(sierpinski_frame(1), "a", 0b10, 0b11)


def test_gives_reason_rejects_non_evidence():
    with pytest.raises(FrameError):
        gives_reason(chain_frame(agents=("a",)), "a", 0b1, 0b001)
    with pytest.raises(FrameError, match="not a basis element of agent 'a'"):
        gives_reason(sierpinski_frame(), "a", 1, 3.0)  # equal to the element 3


def test_clopen_trace_supports_neither_side():
    # Evidence {w0,w3} whose subspace is discrete: the trace {w0} of the
    # queried set is 1-clopen there, so the evidence could settle on belief
    # or disbelief equally and must support neither. Were it counted as
    # support, having-reason would fail to be idempotent on this frame.
    frame = Frame(
        ["w0", "w1", "w2", "w3", "w4"],
        [
            AgentSpec(
                "a",
                (0b00001, 0b00100, 0b01000, 0b01001, 0b01110, 0b10101),
                1,
            )
        ],
    )
    evidence = 0b01001  # {w0, w3}
    believed = 0b10101  # {w0, w2, w4}, which is open
    assert not gives_reason(frame, "a", believed, evidence)
    assert not gives_reason(frame, "a", frame.universe & ~believed, evidence)


def test_gives_reason_and_against_are_exclusive():
    rng = random.Random(18)
    for _ in range(25):
        n = rng.randint(1, 5)
        frame = Frame(
            [f"w{i}" for i in range(n)],
            [AgentSpec("a", random_basis(rng, n), rng.randint(0, 3))],
        )
        for e in frame.agent("a").basis:
            for w_set in submasks(frame.universe):
                assert not (
                    gives_reason(frame, "a", w_set, e)
                    and gives_reason(frame, "a", frame.universe & ~w_set, e)
                )


def test_gives_reason_equals_rank_shortcut():
    # The definitional loop agrees with the closed-rank threshold form:
    # support iff closed rank <= tolerance and closed rank < open rank,
    # both in the subspace over the evidence.
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 5)
        tol = rng.randint(0, 3)
        frame = Frame(
            [f"w{i}" for i in range(n)],
            [AgentSpec("a", random_basis(rng, n), tol)],
        )
        for e in frame.agent("a").basis:
            sub = frame.subspace("a", e)
            for w_set in submasks(frame.universe):
                part = w_set & e
                cr = closed_rank(sub, part).rank
                expected = cr <= tol and cr < open_rank(sub, part).rank
                assert gives_reason(frame, "a", w_set, e) == expected


# ---------------------------------------------------------------------------
# limit verdicts


def test_limit_verdicts_sierpinski():
    method = {0b11: NO, 0b01: YES}
    sigma = limit_verdicts(method)
    assert sigma == {0: YES, 1: NO}


def test_limit_verdicts_constant_and_indiscrete():
    basis = (0b111, 0b110, 0b100)
    constant = {e: YES for e in basis}
    assert limit_yes_set(constant) == 0b111
    indiscrete = {0b11: NO}
    assert limit_yes_set(indiscrete) == 0


# ---------------------------------------------------------------------------
# switch counting


def test_max_switches_examples():
    basis = (0b01, 0b11)
    method = {0b11: NO, 0b01: YES}
    assert max_switches(method, NO) == 1
    constant = {0b01: YES, 0b11: YES}
    assert max_switches(constant, YES) == 0
    assert any(constant[e] is YES for e in basis)
    assert max_switches(constant, NO) == 0
    assert not any(constant[e] is NO for e in basis)

    alternating = {0b111: YES, 0b110: NO, 0b100: YES}
    assert max_switches(alternating, YES) == 2
    assert max_switches(alternating, NO) == 1


def test_max_switches_matches_exhaustive_chain_search():
    # Every method of every valid 3-world basis, from both start verdicts.
    cases = 0
    for basis in all_valid_bases(3):
        for method in all_methods(basis):
            for start in (YES, NO):
                got = max_switches(method, start)
                start_occurs = any(method[e] is start for e in basis)
                best = -1
                # depth-first over alternating descending sequences
                stack = [(e, 0) for e in basis if method[e] is start]
                while stack:
                    e, length = stack.pop()
                    best = max(best, length)
                    for e2 in basis:
                        if e2 & ~e == 0 and method[e2] is not method[e]:
                            stack.append((e2, length + 1))
                if best < 0:
                    assert got == 0 and not start_occurs
                else:
                    assert got == best and start_occurs
                cases += 1
    assert cases == 2668


def test_switches_match_the_pairwise_count_on_every_small_basis():
    # The count over world positions (plus one per element that is no world's
    # N(w)) against the pairwise containment table over basis elements: every
    # method of every valid basis of up to 3 worlds and every 4-world basis of
    # at most 5 elements, from both starts; most bases have such elements.
    # The worlds returned with it are the limit-Yes set at the Yes start and
    # its complement at the No start.
    bases = [b for n in (1, 2, 3) for b in all_valid_bases(n)] + all_valid_bases(4, 5)
    cases = with_extras = 0
    for basis in bases:
        topology = generate_topology(basis)
        extra = not set(basis) <= set(topology.neighborhoods)
        for method in all_methods(basis):
            yes = limit_yes_set(method)
            for start, worlds in ((YES, yes), (NO, topology.universe & ~yes)):
                assert _switches(topology, method, start) == (
                    worlds,
                    oracle_switches(basis, method, start),
                )
                cases += 1
                with_extras += extra
    assert (cases, with_extras) == (57976, 48560)


def test_max_switches_on_a_long_alternating_chain():
    # 256 nested elements whose verdicts alternate from Yes at the top
    n = 256
    chain = [((1 << n) - 1) & ~((1 << k) - 1) for k in range(n)]
    method = {e: YES if k % 2 == 0 else NO for k, e in enumerate(chain)}
    assert max_switches(method, YES) == 255
    assert max_switches(method, NO) == 254


def test_verify_protocol_counts_switches_on_opposed_chains():
    # Two 512-world chain agents, one of suffixes and one of prefixes, with
    # the protocol synthesized for two separated blocks of worlds.
    n = 512
    full = (1 << n) - 1
    suffixes = tuple([full & ~((1 << k) - 1) for k in range(n)])
    prefixes = tuple([(1 << (k + 1)) - 1 for k in range(n)])
    frame = Frame(
        [f"w{i}" for i in range(n)],
        [AgentSpec("a", suffixes, 3), AgentSpec("b", prefixes, 3)],
    )
    target = ((1 << 128) - 1) | ((1 << 384) - (1 << 256))
    protocol = synthesize(frame, target, target)
    report = verify_protocol(frame, protocol, target)
    assert report.solves
    for spec in frame.agents:
        expected = oracle_switches(spec.basis, protocol[spec.name], YES)
        assert report.switch_bounds[spec.name].switches == expected
    assert [c.switches for c in report.switch_bounds.values()] == [3, 2]


def test_min_switches_examples():
    frame = chain_frame(agents=("a",))
    assert min_switches(frame, "a", 0b111) == 0
    assert min_switches(frame, "a", 0b101) == 2
    assert min_switches(sierpinski_frame(), "a", 0b01) == 1


def test_min_switches_requires_starting_point():
    frame = Frame(["u", "v"], [AgentSpec("a", (0b01, 0b10), 1)])
    with pytest.raises(FrameError):
        min_switches(frame, "a", 0b01)


def test_min_switches_matches_method_enumeration():
    rng = random.Random(15)
    for _ in range(12):
        n = rng.randint(1, 4)
        basis = random_basis(rng, n)
        universe = (1 << n) - 1
        if universe not in basis:
            basis = tuple(sorted(set(basis) | {universe}))
        if len(basis) > 6:
            continue
        frame = Frame([f"w{i}" for i in range(n)], [AgentSpec("a", basis, 3)])
        for w_set in submasks(universe):
            assert min_switches(frame, "a", w_set) == oracle_min_switches(
                frame, "a", w_set
            )


# ---------------------------------------------------------------------------
# chains <-> methods


def test_method_from_chain_examples():
    basis = (0b111, 0b110, 0b100)

    whole = method_from_chain((0b111,), basis)
    assert all(v is YES for v in whole.values())

    two = method_from_chain((0b110, 0b100), basis)
    assert two == {0b111: NO, 0b110: YES, 0b100: NO}
    assert limit_yes_set(two) == 0b010

    three = method_from_chain((0b111, 0b110, 0b100), basis)
    assert three == {0b111: YES, 0b110: NO, 0b100: YES}
    assert limit_yes_set(three) == 0b101


def test_chain_from_method_examples():
    basis = (0b111, 0b110, 0b100)
    constant = {e: YES for e in basis}
    assert chain_from_method(constant, 0) == (0b111,)

    method = {0b11: YES, 0b01: NO}
    chain = chain_from_method(method, 1)
    assert chain == (0b11, 0b01)
    assert nested_difference(chain) == 0b10 == limit_yes_set(method)


def test_chain_from_method_rejects_bound_violation():
    alternating = {0b111: YES, 0b110: NO, 0b100: YES}
    with pytest.raises(FrameError):
        chain_from_method(alternating, 1)


def test_chain_from_method_validates_its_basis_once(monkeypatch):
    # the limit-Yes set is read off the topology the call already built
    calls = []
    original = frame_module.validate_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frame_module, "validate_basis", counting)
    method = {0b111: NO, 0b110: YES, 0b100: NO}
    assert nested_difference(chain_from_method(method, 2)) == 0b010
    assert len(calls) == 1


def test_verify_protocol_and_max_switches_validate_no_basis_twice(monkeypatch):
    # verify_protocol and synthesize read the frame's validated bases;
    # max_switches validates the method's basis once.
    frame = chain_frame(agents=("a",))
    method = {0b111: NO, 0b110: YES, 0b100: NO}
    calls = []
    original = frame_module.validate_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frame_module, "validate_basis", counting)
    assert verify_protocol(frame, {"a": method}, 0b010).switch_bounds["a"].switches == 1
    assert len(calls) == 0
    assert synthesize(frame, 0b010, 0b010) == {"a": method}
    assert len(calls) == 0
    assert max_switches(method, YES) == 1
    assert len(calls) == 1


def test_chain_method_round_trips():
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randint(1, 5)
        basis = random_basis(rng, n)
        topo = generate_topology(basis)

        # random descending chains -> method -> same limit set
        length = rng.randint(1, 4)
        opens = topo.opens
        sets = []
        cur = topo.universe
        for _ in range(length):
            below = [o for o in opens if o & ~cur == 0]
            cur = rng.choice(below)
            sets.append(cur)
        method = method_from_chain(sets, basis)
        assert limit_yes_set(method) == nested_difference(sets)
        assert max_switches(method, YES) <= max(len(sets) - 1, 0)

        # random methods -> chain at their own switch bound -> same set
        if len(basis) <= 8:
            method = {e: rng.choice((YES, NO)) for e in basis}
            bound = max_switches(method, YES)
            chain = chain_from_method(method, bound)
            assert nested_difference(chain) == limit_yes_set(method)
            assert len(chain) == bound + 1


def test_chain_from_method_contract_on_every_small_basis():
    # Every method of every valid basis of up to 3 worlds, at its own switch
    # bound, above it, and one below it.
    methods = 0
    for n_worlds in (1, 2, 3):
        for basis in all_valid_bases(n_worlds):
            for method in all_methods(basis):
                bound = max_switches(method, YES)
                limit = limit_yes_set(method)
                for n in range(bound, bound + 3):
                    chain = chain_from_method(method, n)
                    assert len(chain) == n + 1
                    assert nested_difference(chain) == limit
                with pytest.raises(FrameError, match=f"exceeds {bound - 1} switches"):
                    chain_from_method(method, bound - 1)
                methods += 1
    assert methods == 1358


def test_switch_bound_matches_rank_bound():
    # A method with at most n switches after Yes settles on an (n+1)-open set,
    # and every set of finite rank r is settled by some method read off its
    # witness chain with at most r-1 switches after Yes.
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 4)
        basis = random_basis(rng, n)
        if len(basis) > 7:
            continue
        topo = generate_topology(basis)
        for method in all_methods(basis):
            bound = max_switches(method, YES)
            assert open_rank(topo, limit_yes_set(method)).rank <= bound + 1
        for s in submasks(topo.universe):
            r = open_rank(topo, s)
            if r.is_infinite:
                continue
            method = method_from_chain(r.witness, basis)
            assert limit_yes_set(method) == s
            assert max_switches(method, YES) <= max(r.rank - 1, 0)
