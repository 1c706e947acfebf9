"""Difference-hierarchy machinery over finite topologies.

Covers nested differences of descending open chains, open/closed ranks with
witness chains, decision methods with bounded verdict switching, limit
verdicts, and the evidence-relative belief predicates used by the operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import StrEnum
from typing import Mapping, Sequence

from .frame import Frame, FrameError, Topology, _is_int, _masks, generate_topology

INFINITE = float("inf")


class Verdict(StrEnum):
    """A decision method's answer, spelled as a protocol prints it."""

    YES = "yes"
    NO = "defer"


# ---------------------------------------------------------------------------
# nested differences and chains


def nested_difference(sets: Sequence[int]) -> int:
    """Evaluate S0 \\ (S1 \\ (... Sn)...) for a descending sequence.

    The empty sequence evaluates to the empty set.
    """
    sets = _masks(sets, "chain member")
    for a, b in zip(sets, sets[1:]):
        if b & ~a:
            raise FrameError("chain is not descending")
    acc = 0
    for s in reversed(sets):
        acc = s & ~acc
    return acc


@dataclass(frozen=True)
class DescendingOpenChain:
    """A descending sequence of open sets of one topology."""

    topology: Topology
    sets: tuple[int, ...]

    def __post_init__(self):
        # a tuple of its own: the caller's list could change after the check
        object.__setattr__(self, "sets", _masks(self.sets, "chain member"))
        nested_difference(self.sets)  # raises unless descending
        for s in self.sets:
            if not self.topology.is_open(s):
                raise FrameError("chain member is not open in the topology")

    def evaluate(self) -> int:
        return nested_difference(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


# ---------------------------------------------------------------------------
# ranks


@dataclass(frozen=True)
class RankResult:
    """A witness chain of exactly k opens whose nested difference is the set,
    k being the least such that the set is k-open; ``None`` when no finite
    chain exists. ``rank`` is the witness's length, INFINITE without one.

    ``closed_rank`` reports the complement's open rank, so there the witness
    chain evaluates to the complement of the queried set.
    """

    witness: tuple[int, ...] | None

    @property
    def rank(self) -> int | float:
        return INFINITE if self.witness is None else len(self.witness)

    @property
    def is_infinite(self) -> bool:
        return self.witness is None


def open_rank(topology: Topology, s: int) -> RankResult:
    """Least number of descending opens whose nested difference is ``s``.

    Greedy hull-derivative: repeatedly take the open hull and subtract; the
    recorded hulls are themselves the canonical witness chain. The hull
    sequence is non-increasing, so a repeated hull before the derivative
    empties means no finite chain exists.
    """
    topology.check_subset(s)
    witness: list[int] = []
    cur = s
    while cur:
        hull = topology.hull(cur)
        if witness and hull == witness[-1]:
            return RankResult(None)
        witness.append(hull)
        cur = hull & ~cur
    return RankResult(tuple(witness))


def closed_rank(topology: Topology, s: int) -> RankResult:
    """Least k such that ``s`` is k-closed (its complement is k-open)."""
    topology.check_subset(s)
    return open_rank(topology, topology.universe & ~s)


def _levels(topology: Topology, s: int, depth: int) -> tuple[list[int], list[int]]:
    """The first ``depth`` alternation levels of ``s`` and of its complement,
    stopping after the first where either side is empty (all later ones are).

    ``ins[k]`` holds the worlds of ``s`` that start a chain of k + 1 worlds,
    each in the last one's neighborhood, whose membership alternates;
    ``outs[k]`` likewise for the complement. Each level lies inside the one
    before, so a pass scans only the last. For an open ``e``, ``open_rank(s
    & e)`` and ``open_rank(e & ~s)`` count the ``ins`` and the ``outs`` that
    meet ``e``, up to ``depth``; an infinite rank never empties its levels.
    """
    topology.check_subset(s)
    ins, outs = [s], [topology.universe & ~s]
    while len(ins) < depth and ins[-1] and outs[-1]:
        i, o = ins[-1], outs[-1]
        ins.append(topology.meeting(i, o))
        outs.append(topology.meeting(o, i))
    return ins, outs


# ---------------------------------------------------------------------------
# evidence-relative belief predicates


def gives_reason(frame: Frame, agent: str, w_set: int, evidence: int) -> bool:
    """Does this piece of evidence give the agent reason simpliciter to
    believe ``w_set``?

    Holds iff for some k up to the agent's tolerance, the part of ``w_set``
    inside the evidence is k-closed but not k-open in the subspace over the
    evidence: within budget, the evidence settles the agent on believing
    strictly rather than disbelieving. The strictness matters when the part
    is clopen proper at depth k (the subspace is disconnected there); such
    evidence supports believing and disbelieving equally, counts as neither,
    and keeping it out is what makes having-reason idempotent.

    Some such k exists iff the closed rank c is within tolerance and the open
    rank exceeds c (take k = c). Both ranks are taken in the agent's own
    topology: the evidence is open, so the subspace over it has the same
    minimal neighborhoods at its worlds, hence the same hulls and ranks for
    its subsets. Neither rank matters past the tolerance, so both are read
    off the first tolerance + 1 alternation levels of ``w_set``.
    """
    spec = frame.agent(agent)
    if not _is_int(evidence) or evidence not in spec.basis:  # 3.0 == 3
        raise FrameError(f"not a basis element of agent {agent!r}")
    return bool(_supporting(frame.topology(agent), (evidence,), spec.tolerance, w_set))


def _supporting(
    topology: Topology, basis: Sequence[int], tolerance: int, w_set: int
) -> tuple[int, ...]:
    """The elements of ``basis`` that give reason to believe ``w_set``, by
    ``gives_reason``'s test: for some k up to the tolerance, outer level k
    misses the element (its closed rank is at most k) and inner level k meets
    it (its open rank exceeds k)."""
    ins, outs = _levels(topology, w_set, tolerance + 1)
    return tuple([e for e in basis if any(i & e and not o & e for i, o in zip(ins, outs))])


# ---------------------------------------------------------------------------
# decision methods


def _basis(method: Mapping[int, Verdict]) -> tuple[int, ...]:
    """A decision method's basis: the keys of its verdict map."""
    if not isinstance(method, Mapping):
        raise FrameError(f"a decision method must map evidence to verdicts, not {method!r:.40}")
    return _masks(method, "basis element")


def limit_verdicts(method: Mapping[int, Verdict]) -> dict[int, Verdict]:
    """The verdict each world's evidence stream converges to.

    A world settles on the verdict of its least evidence ``N(w)``, the
    intersection of the evidence containing it: every stream there ends at
    ``N(w)``. The validator computes ``N(w)``, so a basis it rejects is a
    ``FrameError``.
    """
    neighborhoods = generate_topology(_basis(method)).neighborhoods
    return {w: method[least] for w, least in enumerate(neighborhoods) if least}


def limit_yes_set(method: Mapping[int, Verdict]) -> int:
    """Worlds whose limit verdict is Yes, as a mask."""
    return _limit_yes(generate_topology(_basis(method)), method)


def _limit_yes(topology: Topology, method: Mapping[int, Verdict]) -> int:
    """The worlds whose least evidence ``N(w)`` the method answers Yes, read
    off a topology that the method's basis generates."""
    return sum([
        1 << w
        for w, least in enumerate(topology.neighborhoods)
        if least and method[least] == Verdict.YES
    ])


def max_switches(method: Mapping[int, Verdict], start: Verdict) -> int:
    """Largest t for which a t-switching sequence with the given start verdict
    exists: a descending evidence sequence whose verdicts alternate starting
    from ``start``. Returned as an int, 0 when no evidence answers ``start``.
    Read off the alternation levels of the elements answering ``start``, an
    element's neighborhood being the elements inside it (alternation forces
    strict descent)."""
    basis = _basis(method)
    inside = [sum([1 << i for i, e2 in enumerate(basis) if e2 & ~e == 0]) for e in basis]
    starts = sum([1 << i for i, e in enumerate(basis) if method[e] == start])
    ins, _ = _levels(Topology((1 << len(basis)) - 1, tuple(inside)), starts, len(basis))
    return max(len([s for s in ins if s]) - 1, 0)


def min_switches(frame: Frame, agent: str, w_set: int) -> int | float:
    """Fewest verdict alternations with which the agent can limit decide
    ``w_set``, over both start verdicts; INFINITE when no bound exists.

    Requires the agent's basis to have a starting point (the whole universe
    as evidence). Equals the lesser of the open and closed ranks of the set:
    deciding in n switches starting from Yes forces the set to be n-closed,
    starting from No forces it n-open, and each rank is attained.
    """
    spec = frame.agent(agent)
    if frame.universe not in spec.basis:
        raise FrameError(f"agent {agent!r} has no starting point in its basis")
    topo = frame.topology(agent)
    return min(open_rank(topo, w_set).rank, closed_rank(topo, w_set).rank)


# ---------------------------------------------------------------------------
# chains <-> methods (the two halves of the switching/rank correspondence)


def method_from_chain(chain: DescendingOpenChain, basis: Sequence[int]) -> dict[int, Verdict]:
    """Read a decision method on ``basis`` off a witness chain: evidence
    answers Yes when the deepest chain member containing it sits at an even
    position, No at an odd position or when no member contains it (depth -1
    counts as odd).

    The result has at most len(chain)-1 switches after saying Yes and its
    limit-Yes set is the chain's nested difference.
    """
    if not isinstance(chain, DescendingOpenChain):
        raise FrameError(f"a witness chain must be a DescendingOpenChain, not {chain!r:.40}")
    verdicts: dict[int, Verdict] = {}
    for e in _masks(basis, "basis element"):
        deepest = -1
        for k, o in enumerate(chain.sets):
            if e & ~o == 0:
                deepest = k
        verdicts[e] = Verdict.YES if deepest % 2 == 0 and deepest >= 0 else Verdict.NO
    return verdicts


def chain_from_method(method: Mapping[int, Verdict], n: int) -> DescendingOpenChain:
    """A witness chain of n+1 opens for a method with at most n switches
    after saying Yes: the greedy ``open_rank`` witness of the method's
    limit-Yes set, padded with empty opens. Its nested difference is that
    set, and the witness has at most n+1 opens (the set's rank) because the
    method switches at most n times after saying Yes.
    """
    if not _is_int(n):  # a negative n fails the switch check below
        raise FrameError(f"switch bound must be an integer, not {n!r:.40}")
    topology = generate_topology(_basis(method))
    if max_switches(method, Verdict.YES) > n:
        raise FrameError(f"method exceeds {n} switches after saying Yes")
    witness = open_rank(topology, _limit_yes(topology, method)).witness
    return DescendingOpenChain(topology, witness + (0,) * (n + 1 - len(witness)))
