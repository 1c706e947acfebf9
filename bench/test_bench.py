"""Tests of the benchmark itself: every oracle against brute-force
enumeration on frames of at most 6 worlds, and a smoke run of each workload
at tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

FAMILIES = [("chain", 0), ("tree", 1), ("tree", 2), ("product", 0), ("random", 0)]


def random_frame(rng, n=None):
    n = n or rng.randint(2, 6)
    agents = []
    for k in range(rng.randint(1, 3)):
        kind, leaf = rng.choice(FAMILIES)
        if kind == "chain":
            fam = ("chain", n)
        elif kind == "tree":
            fam = ("tree", n, leaf)
        elif kind == "product" and n in (4, 6):
            fam = ("product", 2, n // 2)
        else:
            fam = ("random", n, 1, 1 << n)
        agents.append((f"a{k}", gen.build_basis(rng, n, fam), rng.randint(0, 3)))
    return oracle.Frame([f"w{i}" for i in range(n)], agents)


def frames(count, seed):
    rng = random.Random(seed)
    return [(random_frame(rng), rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# brute force


@functools.lru_cache(maxsize=None)
def brute_opens(agent):
    """A set is open iff it is the union of the basis elements inside it."""
    out = []
    for s in range(agent.universe + 1):
        u = 0
        for e in agent.basis:
            if e & ~s == 0:
                u |= e
        if u == s:
            out.append(s)
    return out


def brute_true_reason(agent, s):
    """Union of the opens (tolerance 0) or of the differences of two opens
    (tolerance >= 1) that lie inside ``s``."""
    out = 0
    for d in _family(agent):
        if d & ~s == 0:
            out |= d
    return out


@functools.lru_cache(maxsize=None)
def _family(agent):
    opens = brute_opens(agent)
    return tuple(opens if agent.tolerance == 0 else {o & ~o2 for o in opens for o2 in opens})


def brute_common(frame, s):
    """Greatest fixed point of X -> s & every agent's true reason for X."""
    x = s
    while True:
        nxt = s
        for a in frame.agents.values():
            nxt &= brute_true_reason(a, x)
        if nxt == x:
            return x
        x = nxt


def brute_rank(agent, s):
    """Shortest descending chain of opens whose nested difference is s,
    grown by putting a larger open in front: value(o, chain) = o - value."""
    opens = brute_opens(agent)
    if s == 0:
        return 0
    level = {(o, o) for o in opens}
    for k in range(1, agent.universe.bit_count() + 2):
        if any(v == s for _, v in level):
            return k
        level = {(o, o & ~v) for head, v in level for o in opens if head & ~o == 0}
    return oracle.INFINITE


def brute_switches(basis, verdicts):
    """Most verdict changes along any strictly descending evidence sequence
    that starts at a yes, found by walking every such sequence."""

    def walk(e, changes):
        best = changes
        for e2 in basis:
            if e2 != e and e2 & ~e == 0:
                best = max(best, walk(e2, changes + (verdicts[e2] != verdicts[e])))
        return best

    return max((walk(e, 0) for e in basis if verdicts[e] == "yes"), default=-1)


# ---------------------------------------------------------------------------
# oracle cross-checks


def test_neighborhood_openness_matches_unions_of_evidence():
    for frame, _ in frames(40, 1):
        for a in frame.agents.values():
            opens = set(brute_opens(a))
            assert {s for s in range(frame.universe + 1) if a.is_open(s)} == opens
            for s in range(frame.universe + 1):
                assert oracle.interior(a.nbhd, s) == max((o for o in opens if o & ~s == 0), key=lambda o: o.bit_count())


def test_true_reason_matches_two_open_family():
    for frame, _ in frames(60, 2):
        for a in frame.agents.values():
            for s in range(frame.universe + 1):
                assert a.true_reason(s) == brute_true_reason(a, s)


def test_common_matches_fixed_point():
    for frame, _ in frames(60, 3):
        for s in range(frame.universe + 1):
            assert frame.common(s) == brute_common(frame, s)


def test_rank_matches_exhaustive_chains_and_witnesses_replay():
    for frame, _ in frames(25, 4):
        for a in frame.agents.values():
            for s in range(frame.universe + 1):
                rank = oracle.open_rank(a, s)
                assert rank == brute_rank(a, s)
                if rank != oracle.INFINITE:
                    chain, cur = [], s
                    while cur:
                        chain.append(a.hull(cur))
                        cur = chain[-1] & ~cur
                    assert oracle.chain_problem(a, chain, s) is None


def test_chain_replay_rejects_bad_witnesses():
    a = oracle.Agent("a", [0b111, 0b110, 0b100], 1, 0b111)
    assert oracle.chain_problem(a, [0b111, 0b100], 0b011) is None
    assert oracle.chain_problem(a, [0b100, 0b111], 0b011) == "chain does not descend"
    assert oracle.chain_problem(a, [0b111, 0b010], 0b101) == "chain member is not open"
    assert oracle.chain_problem(a, [0b111, 0b110], 0b011) == "nested difference is not the set"


def test_switch_count_matches_all_sequences():
    rng = random.Random(5)
    for frame, _ in frames(30, 5):
        for a in frame.agents.values():
            verdicts = {e: rng.choice(("yes", "defer")) for e in a.basis}
            assert oracle.max_switches_from_yes(a.basis, verdicts) == brute_switches(a.basis, verdicts)


def chain_protocol(frame, success):
    """The protocol read off greedy witness chains: evidence attests when the
    deepest chain member containing it sits at an even position."""
    table = {}
    for name, a in frame.agents.items():
        chain, cur = [], success
        while cur:
            chain.append(a.hull(cur))
            cur = chain[-1] & ~cur
        verdicts = {}
        for e in a.basis:
            deepest = max((k for k, o in enumerate(chain) if e & ~o == 0), default=-1)
            verdicts[e] = "yes" if deepest >= 0 and deepest % 2 == 0 else "defer"
        table[name] = verdicts
    return table


def test_protocol_replay_accepts_chain_protocols_and_rejects_tampering():
    checked = 0
    for frame, rng in frames(80, 6):
        success = gen.feasible_subset(rng, frame, frame.universe)
        if not all(oracle.open_rank(a, success) <= a.tolerance + 1 for a in frame.agents.values()):
            continue
        table = chain_protocol(frame, success)
        assert oracle.protocol_problem(frame, table, success, success, success) is None
        name, a = next(iter(frame.agents.items()))
        least = a.nbhd[next(oracle.bits(success))]
        table[name][least] = "defer"
        assert oracle.protocol_problem(frame, table, success, success) is not None
        checked += 1
    assert checked > 20


def test_formula_evaluation_uses_the_oracles():
    frame, rng = frames(1, 7)[0]
    val = {p: rng.randint(0, frame.universe) for p in "pqr"}
    a = next(iter(frame.agents))
    f = ("imp", ("C", ("p", "p")), ("S", a, ("and", ("p", "q"), ("not", ("p", "r")))))
    want = (frame.universe & ~brute_common(frame, val["p"])) | brute_true_reason(
        frame.agents[a], val["q"] & ~val["r"])
    assert oracle.evaluate(frame, val, f) == want
    assert oracle.show(f) == f"(C p) -> (S[{a}] (q & (~r)))"


# ---------------------------------------------------------------------------
# generated inputs and whole runs


def test_generated_schema_instances_are_valid():
    for workload in ("cli-small", "cli-large"):
        ops, frames_by_path = gen.make_cli(workload, 3, _scratch(workload))
        for op in ops:
            check = op["check"]
            if check["kind"] == "valid_oracle":
                frame, val = frames_by_path[op["argv"][2]]
                assert oracle.evaluate(frame, val, check["formula"]) == frame.universe


def test_pass_shape_does_not_depend_on_the_seed():
    for workload in ("cli-small", "cli-large"):
        shapes = set()
        for seed in (1, 2):
            ops, _ = gen.make_cli(workload, seed, _scratch(workload))
            shapes.add(tuple((op["argv"][0], op["check"]["kind"]) for op in ops))
        assert len(shapes) == 1


def _scratch(name):
    path = os.path.join(HERE, "out", f"test-{name}")
    os.makedirs(path, exist_ok=True)
    return path


def _declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload):
    bench = _declared()
    untraced = run.run(workload, 0, 0, 0, tiny=True)
    assert untraced["correct"]
    assert set(untraced["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    traced = run.run(workload, 0, 0, 1, tiny=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    if workload == "cli-large":
        assert traced["failed"] * untraced["attempted"] == untraced["failed"] * traced["attempted"] > 0
    else:
        assert untraced["failed"] == traced["failed"] == 0


def test_declared_per_layer_metrics_are_the_traced_ones():
    assert [m["name"] for m in _declared()["per_layer"]] == tracing.REPORTED


def test_scale_uses_the_reference_samples_around_each_operation():
    nominal = worker.REF_NOMINAL_S
    samples = [(0, nominal), (2, 3 * nominal), (2, nominal), (3, nominal)]
    # Operations 0 and 1 lie between the first two samples, operation 2
    # between the last two.
    assert worker.scale([1.0, 2.0, 4.0], samples) == pytest.approx([0.5, 1.0, 4.0])
