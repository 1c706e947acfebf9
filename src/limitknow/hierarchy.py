"""Difference-hierarchy machinery over finite topologies.

Covers nested differences of descending open chains (plain tuples of masks),
open/closed ranks with witness chains, decision methods with bounded verdict
switching, limit verdicts, and the evidence-relative belief predicates used by
the operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import StrEnum
from itertools import compress
from typing import Mapping, Sequence

from .frame import Frame, FrameError, Topology, _is_int, _masks, bits, generate_topology

INFINITE = float("inf")


class Verdict(StrEnum):
    """A decision method's answer, spelled as a protocol prints it."""

    YES = "yes"
    NO = "defer"


# ---------------------------------------------------------------------------
# nested differences


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
    it (its open rank exceeds k). One flag per element, set level by level."""
    hit = [False] * len(basis)
    for i, o in zip(*_levels(topology, w_set, tolerance + 1)):
        hit = [h or (e & i and not e & o) for h, e in zip(hit, basis)]
    return tuple([*compress(basis, hit)])


# ---------------------------------------------------------------------------
# decision methods


def _method(method: Mapping[int, Verdict]) -> Topology:
    """The topology a decision method's basis, the domain of its verdict map,
    generates. A method that is no mapping, a verdict other than ``Verdict.YES``
    or ``Verdict.NO`` and an invalid basis are each a ``FrameError``."""
    if not isinstance(method, Mapping):
        raise FrameError(f"a decision method must map evidence to verdicts, not {method!r:.40}")
    if any(v not in (Verdict.YES, Verdict.NO) for v in method.values()):
        raise FrameError("a decision method's verdicts must be Verdict.YES or Verdict.NO")
    return generate_topology(method)


def limit_verdicts(method: Mapping[int, Verdict]) -> dict[int, Verdict]:
    """The verdict each world's evidence stream converges to.

    A world settles on the verdict of its least evidence ``N(w)``, the
    intersection of the evidence containing it: every stream there ends at
    ``N(w)``. The validator computes ``N(w)``, so a basis it rejects is a
    ``FrameError``.
    """
    topology = _method(method)
    yes = _limit_yes(topology, method)
    return {w: Verdict.YES if yes >> w & 1 else Verdict.NO for w in bits(topology.universe)}


def limit_yes_set(method: Mapping[int, Verdict]) -> int:
    """Worlds whose limit verdict is Yes, as a mask."""
    return _limit_yes(_method(method), method)


def _limit_yes(topology: Topology, method: Mapping[int, Verdict]) -> int:
    """The worlds whose least evidence ``N(w)`` the method answers Yes, given
    the topology its basis generates: per Yes element, the worlds
    ``Topology.rooted`` there."""
    return sum(topology.rooted([e for e, v in method.items() if v == Verdict.YES]))


def max_switches(method: Mapping[int, Verdict], start: Verdict) -> int:
    """Largest t for which a t-switching sequence with the given start verdict
    exists: a descending evidence sequence whose verdicts alternate starting
    from ``start``. Returned as an int, 0 when no evidence answers ``start``.
    A start that is no verdict and a basis ``limit_verdicts`` rejects are
    each a ``FrameError``."""
    if start not in (Verdict.YES, Verdict.NO):
        raise FrameError(f"a start verdict must be Verdict.YES or Verdict.NO, not {start!r:.40}")
    return _switches(_method(method), method, start)[1]


def _switches(
    topology: Topology, method: Mapping[int, Verdict], start: Verdict
) -> tuple[int, int]:
    """The worlds whose least evidence ``N(w)`` the method answers ``start``, and
    ``max_switches`` of the method, given the topology its basis generates. The count
    is read off the alternation levels of the positions answering ``start``. A world
    stands for its least evidence ``N(w)``, an element that is no ``N(w)`` gets a
    position after the worlds, and a position's neighborhood is its element's worlds
    plus such positions inside it (alternation forces strict descent)."""
    n = len(topology.neighborhoods)
    # an element's positions: the worlds whose N(w) it is, or else its own, n + its index
    spots = [r or 1 << n + i for i, r in enumerate(topology.rooted(method))]
    extras = [(e, s) for e, s in zip(method, spots) if s >> n]
    elements = topology.neighborhoods + tuple([e if s >> n else 0 for e, s in zip(method, spots)])
    nbhds = tuple([e | sum([s for x, s in extras if x & ~e == 0]) for e in elements])
    starts = sum([s for s, v in zip(spots, method.values()) if v == start])
    universe = topology.universe | sum([s for _, s in extras])
    ins, _ = _levels(Topology(universe, nbhds), starts, len(method))
    return starts & topology.universe, len([s for s in ins[1:] if s])


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


def method_from_chain(chain: Sequence[int], basis: Sequence[int]) -> dict[int, Verdict]:
    """Read a decision method on ``basis`` off a witness chain, a descending
    sequence of opens: evidence answers Yes when the number of chain members
    containing it is odd, No when it is even (zero included).

    The result has at most len(chain)-1 switches after saying Yes and its
    limit-Yes set is the chain's nested difference. An invalid basis, a chain
    that does not descend, and a chain member that is not open in the
    topology the basis generates are each a ``FrameError``.
    """
    chain, basis = _masks(chain, "chain member"), _masks(basis, "basis element")
    nested_difference(chain)  # raises unless descending
    topology = generate_topology(basis)
    if any(topology.interior(o & topology.universe) != o for o in chain):
        raise FrameError("chain member is not open in the basis's topology")
    return _chain_verdicts(chain, basis)


def _chain_verdicts(chain: Sequence[int], basis: Sequence[int]) -> dict[int, Verdict]:
    """``method_from_chain`` of a chain already known to descend through opens."""
    depths = [len([o for o in chain if e & ~o == 0]) for e in basis]
    return {e: Verdict.YES if d % 2 else Verdict.NO for e, d in zip(basis, depths)}


def chain_from_method(method: Mapping[int, Verdict], n: int) -> tuple[int, ...]:
    """A witness chain of n+1 opens for a method with at most n switches
    after saying Yes: the greedy ``open_rank`` witness of the method's
    limit-Yes set, padded with empty opens. Its nested difference is that
    set, and the witness has at most n+1 opens (the set's rank) because the
    method switches at most n times after saying Yes.
    """
    if not _is_int(n):  # a negative n fails the switch check below
        raise FrameError(f"switch bound must be an integer, not {n!r:.40}")
    topology = _method(method)
    yes, switches = _switches(topology, method, Verdict.YES)
    if switches > n:
        raise FrameError(f"method exceeds {n} switches after saying Yes")
    witness = open_rank(topology, yes).witness
    return witness + (0,) * (n + 1 - len(witness))
