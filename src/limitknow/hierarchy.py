"""Difference-hierarchy machinery over finite topologies.

Covers nested differences of descending open chains, open/closed ranks with
witness chains, decision methods with bounded verdict switching, limit
verdicts, and the evidence-relative belief predicates used by the operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .frame import Frame, FrameError, Topology, _is_int, generate_topology

INFINITE = float("inf")


class Verdict(Enum):
    YES = "yes"
    NO = "no"

    def flipped(self) -> "Verdict":
        return Verdict.NO if self is Verdict.YES else Verdict.YES


# ---------------------------------------------------------------------------
# nested differences and chains


def nested_difference(sets: Sequence[int]) -> int:
    """Evaluate S0 \\ (S1 \\ (... Sn)...) for a descending sequence.

    The empty sequence evaluates to the empty set.
    """
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
    """Least k such that a set is k-open, with a witness chain of exactly k
    opens whose nested difference is the set; rank INFINITE carries no witness.

    ``closed_rank`` reports the complement's open rank, so there the witness
    chain evaluates to the complement of the queried set.
    """

    rank: int | float
    witness: tuple[int, ...] | None

    @property
    def is_infinite(self) -> bool:
        return self.rank == INFINITE


def open_rank(topology: Topology, s: int) -> RankResult:
    """Least number of descending opens whose nested difference is ``s``.

    Greedy hull-derivative: repeatedly take the open hull and subtract; the
    recorded hulls are themselves the canonical witness chain. The hull
    sequence is non-increasing, so a repeated hull before the derivative
    empties means no finite chain exists.
    """
    return _rank_within(topology, s, INFINITE)


def _rank_within(topology: Topology, s: int, bound: int | float) -> RankResult | None:
    """``open_rank(topology, s)`` when that rank is at most ``bound``, else
    None. The loop stops after ``bound`` hulls: a non-empty derivative left
    then needs another one."""
    topology.check_subset(s)
    witness: list[int] = []
    cur = s
    while cur:
        if len(witness) >= bound:
            return None
        hull = topology.hull(cur)
        if witness and hull == witness[-1]:
            return RankResult(INFINITE, None) if bound == INFINITE else None
        witness.append(hull)
        cur = hull & ~cur
    return RankResult(len(witness), tuple(witness))


def closed_rank(topology: Topology, s: int) -> RankResult:
    """Least k such that ``s`` is k-closed (its complement is k-open)."""
    topology.check_subset(s)
    return open_rank(topology, topology.universe & ~s)


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
    its subsets. Neither rank matters past the tolerance, so each rank test
    stops after at most that many hulls.
    """
    spec = frame.agent(agent)
    if evidence not in spec.basis:
        raise FrameError(f"not a basis element of agent {agent!r}")
    topo = frame.topology(agent)
    topo.check_subset(w_set)
    return _supports(topo, spec.tolerance, w_set, evidence)


def _supports(topology: Topology, tolerance: int, w_set: int, evidence: int) -> bool:
    """``gives_reason`` for a checked operand and basis element."""
    closed = _rank_within(topology, evidence & ~w_set, tolerance)
    return closed is not None and _rank_within(topology, w_set & evidence, closed.rank) is None


# ---------------------------------------------------------------------------
# decision methods


@dataclass(frozen=True)
class DecisionMethod:
    """A total Yes/No verdict map on an agent's basis elements."""

    verdicts: Mapping[int, Verdict]


def check_method(method: DecisionMethod, basis: Sequence[int]) -> None:
    if set(method.verdicts) != set(basis):
        raise FrameError("method domain must equal the basis exactly")


def limit_verdicts(method: DecisionMethod, basis: Sequence[int]) -> dict[int, Verdict]:
    """The verdict each world's evidence stream converges to.

    A world settles on the verdict of its least evidence ``N(w)``, the
    intersection of the evidence containing it: every stream there ends at
    ``N(w)``. The validator computes ``N(w)``, so a basis it rejects is a
    ``FrameError``.
    """
    check_method(method, basis)
    neighborhoods = generate_topology(basis).neighborhoods
    return {w: method.verdicts[least] for w, least in enumerate(neighborhoods) if least}


def limit_yes_set(method: DecisionMethod, basis: Sequence[int]) -> int:
    """Worlds whose limit verdict is Yes, as a mask."""
    out = 0
    for w, v in limit_verdicts(method, basis).items():
        if v is Verdict.YES:
            out |= 1 << w
    return out


def max_switches(method: DecisionMethod, basis: Sequence[int], start: Verdict) -> int:
    """Largest t for which a t-switching sequence with the given start verdict
    exists: a descending evidence sequence whose verdicts alternate starting
    from ``start``. Returned as an int, 0 when no evidence answers ``start``.
    Computed by longest-path dynamic programming over the strict-containment
    order (alternation forces strict descent).
    """
    check_method(method, basis)
    order = sorted(basis, key=lambda e: (e.bit_count(), e))
    best: dict[int, int] = {}
    for e in order:
        want = method.verdicts[e].flipped()
        longest = 0
        for e2 in order:
            if e2 == e or e2 & ~e:
                continue
            if method.verdicts[e2] is want:
                longest = max(longest, 1 + best[e2])
        best[e] = longest
    return max([best[e] for e in basis if method.verdicts[e] is start], default=0)


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


def method_from_chain(chain: DescendingOpenChain, basis: Sequence[int]) -> DecisionMethod:
    """Read a decision method off a witness chain: evidence answers Yes when
    the deepest chain member containing it sits at an even position, No at an
    odd position or when no member contains it (depth -1 counts as odd).

    The result has at most len(chain)-1 switches after saying Yes and its
    limit-Yes set is the chain's nested difference.
    """
    verdicts: dict[int, Verdict] = {}
    for e in basis:
        deepest = -1
        for k, o in enumerate(chain.sets):
            if e & ~o == 0:
                deepest = k
        verdicts[e] = Verdict.YES if deepest % 2 == 0 and deepest >= 0 else Verdict.NO
    return DecisionMethod(verdicts)


def chain_from_method(
    method: DecisionMethod, basis: Sequence[int], n: int
) -> DescendingOpenChain:
    """A witness chain of n+1 opens for a method with at most n switches
    after saying Yes: the greedy ``open_rank`` witness of the method's
    limit-Yes set, padded with empty opens. Its nested difference is that
    set, and the witness has at most n+1 opens (the set's rank) because the
    method switches at most n times after saying Yes.
    """
    if not _is_int(n):  # a negative n fails the switch check below
        raise FrameError(f"switch bound must be an integer, not {n!r:.40}")
    topology = generate_topology(basis)
    if max_switches(method, basis, Verdict.YES) > n:
        raise FrameError(f"method exceeds {n} switches after saying Yes")
    witness = open_rank(topology, limit_yes_set(method, basis)).witness
    return DescendingOpenChain(topology, witness + (0,) * (n + 1 - len(witness)))
