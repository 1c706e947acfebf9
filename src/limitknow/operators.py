"""Set-valued epistemic operators over a frame.

Each operator maps world sets to world sets: reason simpliciter, indication,
belief via a witness, true reason, witness-generated common inductive
knowledge (a greatest fixed point), common inductive knowledge (interior in
the meet of the per-agent true-reason topologies), and its witness-existential
variant. Everything but the witness-existential variant works from minimal
neighborhoods and never enumerates open sets. All operators are pure; the
context caches only frame-derived data and the evidence supporting each
queried witness set, so concurrent readers are safe.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterator

from .frame import AgentSpec, Frame, FrameError, ResourceLimitError, Topology, submasks
from .hierarchy import _levels, _supporting, open_rank

WITNESS_CAP = 16  # worlds; a witness search enumerates 2^worlds subsets


class _Agent:
    """One agent's frame data, true-reason topology and supporting evidence."""

    __slots__ = ("topology", "basis", "tolerance", "true_topology", "supporting")

    def __init__(self, frame: Frame, spec: AgentSpec):
        self.topology, self.basis = frame.topology(spec.name), spec.basis
        self.tolerance, self.true_topology, self.supporting = spec.tolerance, None, {}

    def support(self, w_set: int) -> tuple[int, tuple[int, ...]]:
        """The union of the elements supporting the set, and those elements."""
        # Only an exact int is looked up before the check (True and 1.0 hash
        # like 1); one found was checked when it was stored.
        if type(w_set) is int and (rec := self.supporting.get(w_set)) is not None:
            return rec
        self.topology.check_subset(w_set)
        elements = _supporting(self.topology, self.basis, self.tolerance, w_set)
        rec = self.supporting[w_set] = (reduce(or_, elements, 0), elements)
        return rec


class OperatorContext:
    """Operator evaluation over one frame, with per-agent caches.

    Caches hold each agent's true-reason neighborhoods, one record per
    queried witness set of the evidence that supports it and its union, and
    ``common``'s ``joint`` table.
    Rebuilding a context from the same frame yields identical caches.
    """

    def __init__(self, frame: Frame):
        self.frame = frame
        self.universe = frame.universe
        self._agents = {a.name: _Agent(frame, a) for a in frame.agents}  # in frame order
        self._joint: list[tuple[int, int]] | None = None  # common's (J(w), {w}) pairs

    def _agent(self, name: str) -> _Agent:
        try:
            return self._agents[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise FrameError(f"unknown agent {name!r}") from None

    # -- cached frame data -------------------------------------------------

    def two_open_family(self, agent: str) -> tuple[int, ...]:
        """All differences of nested opens in the agent's topology, by brute
        force over ``Topology.opens``; a test oracle that no operator calls."""
        opens = self.frame.topology(agent).opens
        return tuple(sorted({o & ~o2 for o in opens for o2 in opens}))

    def supporting_evidence(self, agent: str, w_set: int) -> tuple[int, ...]:
        """Basis elements that give the agent reason simpliciter to believe
        the set, each by ``gives_reason``'s test."""
        return self._agent(agent).support(w_set)[1]

    # -- the operators -------------------------------------------------------

    def reason(self, agent: str, w_set: int) -> int:
        """Worlds where the agent has reason simpliciter to believe the set:
        some evidence there supports it. Always a union of basis elements."""
        return self._agent(agent).support(w_set)[0]

    def indicates(self, agent: str, witness: int, target: int) -> int:
        """Worlds where the witness indicates the target to the agent: every
        supporting evidence confines the witness inside the target."""
        return self.universe & ~self._leaving(agent, witness, target)[1]

    def believes_via(self, agent: str, witness: int, target: int) -> int:
        """Worlds where the agent has the witness as reason to believe the
        target: ``reason`` and ``indicates`` from one supporting record."""
        union, bad = self._leaving(agent, witness, target)
        return union & ~bad

    def _leaving(self, agent: str, witness: int, target: int) -> tuple[int, int]:
        """The union of the witness's supporting evidence, and the OR of the
        elements of it whose part of the witness leaves the target."""
        union, evidence = self._agent(agent).support(witness)
        self.frame.check_subset(target)
        stray, bad = witness & ~target, 0
        for e in evidence:
            if e & stray:
                bad |= e
        return union, bad

    def true_reason(self, agent: str, target: int) -> int:
        """Worlds where the agent has some true reason to believe the target.

        A deductive agent (tolerance 0) gets the plain interior; an inductive
        agent gets the union of all two-step-open subsets of the target,
        which is the interior in ``true_reason_topology``.
        """
        return self.true_reason_topology(agent).interior(target)

    def generates(self, witness: int, target: int) -> int:
        """Worlds where the witness generates common inductive knowledge of
        the target: the intersection of all iterated everyone-believes steps.

        Everyone believes, with the witness as reason, on the meet of the
        agents' reason unions but the elements whose part of the witness
        leaves the target and X; ``_greatest`` iterates that step. Every
        supporting element meets the witness, since it meets a level and
        every level lies inside the witness.
        """
        reasons, pairs = self.universe, []
        for rec in self._agents.values():
            union, evidence = rec.support(witness)
            reasons &= union
            pairs += [(witness & e, e) for e in evidence]
        self.frame.check_subset(target)
        return self._greatest(reasons, target, pairs)

    def common(self, target: int) -> int:
        """Worlds where the target is common inductive knowledge: the greatest
        X inside the target on which every agent has true reason for X. A world
        leaves X exactly when some agent's true-reason neighborhood of it
        does, so ``_greatest`` runs over one pair per world: the OR ``J(w)``
        of those neighborhoods and the world itself, built on the first
        call."""
        self.frame.check_subset(target)
        if self._joint is None:
            least = [self.true_reason_topology(a.name).neighborhoods for a in self.frame.agents]
            joint = reduce(lambda j, n: [*map(or_, j, n)], least)
            self._joint = [*zip(joint, map((1).__lshift__, range(len(joint))))]
        return self._greatest(target, target, self._joint)

    def _greatest(self, base: int, target: int, pairs: list[tuple[int, int]]) -> int:
        """The greatest fixed point of X -> ``base`` minus every owner whose
        part meets the complement of ``target & X``, for (part, owner) pairs.

        The map is monotone and its image lies inside ``base``, so iterating
        it down from ``base`` stays above every fixed point and stops at the
        greatest; an empty X stops it at once, since the iteration only
        descends. The complement is formed once per round, as a non-negative
        mask.
        """
        x, nxt = None, base
        while nxt and nxt != x:
            x, out, bad = nxt, self.universe & ~(target & nxt), 0
            for part, owner in pairs:
                if part & out:
                    bad |= owner
            nxt = base & ~bad
        return nxt

    def true_reason_topology(self, agent: str) -> Topology:
        """The topology whose interior operator is ``true_reason``: the
        agent's own topology for tolerance 0, else the one generated by the
        differences of opens (the Skula topology). Its minimal neighborhood
        of w is the T0 class ``{v : N(v) = N(w)}``, the worlds that
        ``Topology.rooted`` reads at ``N(w)``: built once per agent."""
        rec = self._agent(agent)
        if rec.true_topology is None:
            base = rec.topology
            if rec.tolerance:
                base = Topology(base.universe, tuple(base.rooted(base.neighborhoods)))
            rec.true_topology = base
        return rec.true_topology

    def lewis_common(self, target: int) -> int:
        """Worlds where some true witness generates common inductive knowledge
        of the target: the union of all subsets of the target that are
        feasibly decidable for every agent (rank within tolerance + 1).

        Feasible sets lie inside ``common(target)``, so the union is that of
        its ``witnesses``.
        """
        out = 0
        for v in self.witnesses(self.common(target)):
            out |= v
        return out

    def witnesses(self, common: int) -> Iterator[int]:
        """The non-empty feasible subsets of a common-knowledge set, largest
        first by ``(size, mask)``, each skipped that lies inside the union of
        those yielded before. A feasible set yields only itself. Otherwise
        every subset is tried, and past ``WITNESS_CAP`` worlds that is a
        ``ResourceLimitError`` before any subset is enumerated."""
        if self.feasible(common):
            if common:
                yield common
            return
        n = common.bit_count()
        if n > WITNESS_CAP:
            raise ResourceLimitError(
                f"witness enumeration over {n} worlds exceeds cap {WITNESS_CAP}"
            )
        covered = 0
        for v in sorted(submasks(common), key=lambda v: (v.bit_count(), v), reverse=True):
            if v & ~covered and self.feasible(v):
                yield v
                covered |= v

    def feasible(self, v: int) -> bool:
        """Can every agent decide the set within tolerance: is its open rank at
        most tolerance + 1, its inner level tolerance + 1 empty or missing?"""
        self.frame.check_subset(v)
        for rec in self._agents.values():
            ins, outs = _levels(rec.topology, v, rec.tolerance + 1)
            if len(ins) > rec.tolerance and rec.topology._meeting(ins[-1], outs[-1]):
                return False
        return True

    def min_tolerance(self, agent: str, target: int) -> int:
        """Least tolerance at which the common-knowledge set of the target is
        feasibly decidable for the agent. That set is open in the agent's
        true-reason topology, a union of differences of opens, so its rank is
        finite."""
        return max(open_rank(self._agent(agent).topology, self.common(target)).rank - 1, 0)
