"""Attestation protocols for the inductive coordinated-attack problem.

Agents map each piece of evidence to "attest" or "defer"; a protocol solves
coordinated attack for a target proposition when no agent's limit output ever
falsely attests (validity), all agents converge to the same output everywhere
(agreement), and at least one world has everyone attesting (nontriviality).
This module verifies protocols, synthesizes them from witness chains, and
simulates them over finite evidence streams with optional faulty agents and a
majority-vote aggregator.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .frame import Frame, ResourceLimitError, _is_int, _is_names, load_frame_file, read_json
from .hierarchy import (
    DecisionMethod,
    DescendingOpenChain,
    Verdict,
    max_switches,
    method_from_chain,
    open_rank,
)
from .logic import Model, world_set
from .operators import OperatorContext


class ProtocolError(ValueError):
    """An infeasible synthesis target or malformed protocol/scenario."""


ATTEST = "yes"
DEFER = "defer"

MAX_STEPS = 10_000  # a simulation's step cap; it builds one verdict per step and agent


@dataclass(frozen=True)
class AttestationStrategy:
    """A total attest/defer map on one agent's basis elements."""

    owner: str
    verdicts: Mapping[int, str]  # evidence mask -> ATTEST | DEFER

    def induced_method(self) -> DecisionMethod:
        return DecisionMethod(
            {e: Verdict.YES if v == ATTEST else Verdict.NO for e, v in self.verdicts.items()}
        )


@dataclass(frozen=True)
class AttestationProtocol:
    """One strategy per agent of a frame, in frame order."""

    strategies: tuple[AttestationStrategy, ...]

    def strategy(self, agent: str) -> AttestationStrategy:
        for s in self.strategies:
            if s.owner == agent:
                return s
        raise ProtocolError(f"protocol has no strategy for agent {agent!r}")


def _check_protocol_shape(frame: Frame, protocol: AttestationProtocol) -> None:
    names = [s.owner for s in protocol.strategies]
    expected = [a.name for a in frame.agents]
    if sorted(names) != sorted(expected):
        raise ProtocolError(
            f"protocol agents {names} do not match frame agents {expected}"
        )
    for s in protocol.strategies:
        basis = frame.agent(s.owner).basis
        if set(s.verdicts) != set(basis):
            raise ProtocolError(
                f"strategy for {s.owner!r} is not total on the agent's basis"
            )
        if any(v not in (ATTEST, DEFER) for v in s.verdicts.values()):
            raise ProtocolError(f"strategy for {s.owner!r} has unknown verdicts")


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class SwitchBoundCheck:
    switches: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.switches <= self.bound


@dataclass(frozen=True)
class VerifyReport:
    validity: bool
    agreement: bool
    nontriviality: bool
    switch_bounds: Mapping[str, SwitchBoundCheck]
    limit_yes: Mapping[str, int]  # per-agent limit-attest set
    success_set: int

    @property
    def solves(self) -> bool:
        return (
            self.validity
            and self.agreement
            and self.nontriviality
            and all(c.ok for c in self.switch_bounds.values())
        )


def verify_protocol(
    frame: Frame, protocol: AttestationProtocol, target: int
) -> VerifyReport:
    """Check validity, agreement, nontriviality, and the per-agent switch
    bounds. Violations are report data, not errors; a target with members
    outside the frame is a ``FrameError``.

    Each agent's limit-attest set holds the worlds whose least evidence
    ``N(w)`` the strategy attests on, read off the agent's topology."""
    _check_protocol_shape(frame, protocol)
    frame.check_subset(target)
    limit_yes: dict[str, int] = {}
    bounds: dict[str, SwitchBoundCheck] = {}
    for spec in frame.agents:
        strategy = protocol.strategy(spec.name)
        verdicts = strategy.verdicts
        yes = 0
        for w, least in enumerate(frame.topology(spec.name).neighborhoods):
            if verdicts[least] == ATTEST:
                yes |= 1 << w
        limit_yes[spec.name] = yes
        method = strategy.induced_method()
        count = max_switches(method, spec.basis, Verdict.YES)
        bounds[spec.name] = SwitchBoundCheck(count, spec.tolerance)

    sets = list(limit_yes.values())
    success = frame.universe
    for s in sets:
        success &= s
    return VerifyReport(
        validity=all(s & ~target == 0 for s in sets),
        agreement=all(s == sets[0] for s in sets),
        nontriviality=success != 0,
        switch_bounds=bounds,
        limit_yes=limit_yes,
        success_set=success,
    )


# ---------------------------------------------------------------------------
# synthesis


def _strategy_for_success_set(frame: Frame, agent: str, success: int) -> AttestationStrategy:
    spec = frame.agent(agent)
    topo = frame.topology(agent)
    rank = open_rank(topo, success)
    if rank.rank > spec.tolerance + 1:
        raise ProtocolError(
            f"target is not decidable for agent {agent!r}: needs a chain of "
            f"{rank.rank} opens, tolerance allows {spec.tolerance + 1}"
        )
    method = method_from_chain(DescendingOpenChain(topo, rank.witness), spec.basis)
    return AttestationStrategy(
        agent,
        {
            e: ATTEST if v is Verdict.YES else DEFER
            for e, v in method.verdicts.items()
        },
    )


def choose_success_set(frame: Frame, target_prop: int, success_target: int | None = None) -> int:
    """The success set ``synthesize`` builds its protocol for, given the same
    arguments. An explicit success target must be a non-empty subset of the
    proposition. Without one, the common-knowledge set is chosen when
    feasible, otherwise its subsets are tried in decreasing size (a search
    capped like ``lewis_common``'s). Either set with members outside the
    frame is a ``FrameError``."""
    frame.check_subset(target_prop)
    if success_target is not None:
        frame.check_subset(success_target)
        if success_target == 0:
            raise ProtocolError("success target must be non-empty")
        if success_target & ~target_prop:
            raise ProtocolError("success target must be a subset of the proposition")
        return success_target
    ctx = OperatorContext(frame)
    common = ctx.common(target_prop)
    if common == 0:
        raise ProtocolError(
            "no non-empty feasible success set exists (common knowledge is empty)"
        )
    if ctx.feasible(common):
        return common
    for v in sorted(ctx.witness_candidates(common), key=lambda v: -v.bit_count()):
        if v and ctx.feasible(v):
            return v
    raise ProtocolError("no non-empty feasible success set exists at these tolerances")


def synthesize(
    frame: Frame, target_prop: int, success_target: int | None = None
) -> AttestationProtocol:
    """Build a protocol solving coordinated attack for ``target_prop`` on the
    success set that ``choose_success_set`` picks from the same arguments.
    Each strategy is read off a shortest witness chain for that set, so its
    limit-attest set is the chosen set and needs no verification. A set that
    some agent cannot decide within tolerance is a ``ProtocolError``."""
    success = choose_success_set(frame, target_prop, success_target)
    return AttestationProtocol(
        tuple([_strategy_for_success_set(frame, a.name, success) for a in frame.agents])
    )


# ---------------------------------------------------------------------------
# evidence streams and simulation


@dataclass(frozen=True)
class EvidenceStream:
    """A finite, strictly refining run of evidence an agent learns at a world,
    ending at the least evidence there (so limits are realized)."""

    agent: str
    world: int
    chain: tuple[int, ...]


def generate_stream(frame: Frame, agent: str, world: int | str, seed) -> EvidenceStream:
    """Random strictly descending walk through the agent's evidence at the
    world, from a random start down to the unique minimal element."""
    w = frame.position(world)
    at_w = sorted(frame.evidence_at(agent, w), key=lambda e: (e.bit_count(), e))
    least = frame.topology(agent).neighborhoods[w]
    rng = random.Random(f"{seed}")
    cur = rng.choice(at_w)
    chain = [cur]
    while cur != least:
        cur = rng.choice([e for e in at_w if e != cur and e & ~cur == 0])
        chain.append(cur)
    return EvidenceStream(agent, w, tuple(chain))


@dataclass(frozen=True)
class ShameEvent:
    agent: str
    world: str
    cause: str  # "false-yes" | "disagreement"


@dataclass(frozen=True)
class SimulationReport:
    world: str
    traces: Mapping[str, tuple[str, ...]]
    limits: Mapping[str, str]
    aggregator_trace: tuple[str, ...]
    aggregator_limit: str
    shame: tuple[ShameEvent, ...]
    faults: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            **vars(self),
            "traces": dict(self.traces),
            "limits": dict(self.limits),
            "shame": [dict(vars(e)) for e in self.shame],
        }


def simulate(
    frame: Frame,
    protocol: AttestationProtocol,
    world: int | str,
    streams: Mapping[str, EvidenceStream],
    faults: Sequence[str],
    target: int,
    seed,
    step_cap: int | None = None,
) -> SimulationReport:
    """Run every agent along its evidence stream at one world.

    Honest agents answer their strategy on each learned evidence; faulty
    agents emit seeded random verdicts. The aggregator attests at a step iff
    strictly more than half of that step's outputs attest; ties are defers
    (safety over liveness). Limits are the final outputs, which honest
    streams realize because they end at minimal evidence. A ``step_cap``
    fixes the horizon; it must cover the streams, and past ``MAX_STEPS`` it
    is a ``ResourceLimitError``.
    """
    _check_protocol_shape(frame, protocol)
    w = frame.position(world)
    world_name = frame.worlds[w]
    if isinstance(faults, str):
        raise ProtocolError("faults must be a sequence of agent names, not a string")
    fault_set = set(faults)
    agent_names = [a.name for a in frame.agents]
    if fault_set - set(agent_names):
        raise ProtocolError(f"unknown fault agents: {sorted(fault_set - set(agent_names))}")
    if set(streams) != set(agent_names):
        raise ProtocolError("streams must cover exactly the frame's agents")
    for name, stream in streams.items():
        if stream.agent != name or stream.world != w:
            raise ProtocolError(f"stream for {name!r} does not match agent and world")

    horizon = max(len(s.chain) for s in streams.values())
    if step_cap is not None:
        if step_cap > MAX_STEPS:
            raise ResourceLimitError(f"step cap {step_cap} exceeds {MAX_STEPS} steps")
        if step_cap < horizon:
            raise ProtocolError(
                f"step cap {step_cap} cannot realize streams of length {horizon}"
            )
        horizon = step_cap

    traces: dict[str, tuple[str, ...]] = {}
    for name in agent_names:
        if name in fault_set:
            rng = random.Random(f"{seed}:{name}")
            traces[name] = tuple([rng.choice((ATTEST, DEFER)) for _ in range(horizon)])
        else:
            strategy = protocol.strategy(name)
            chain = streams[name].chain
            traces[name] = tuple([
                strategy.verdicts[chain[min(t, len(chain) - 1)]] for t in range(horizon)
            ])

    majority = len(agent_names) / 2
    aggregator = tuple([
        ATTEST
        if sum(traces[n][t] == ATTEST for n in agent_names) > majority
        else DEFER
        for t in range(horizon)
    ])

    limits = {name: traces[name][-1] for name in agent_names}
    honest = [n for n in agent_names if n not in fault_set]
    shame: list[ShameEvent] = []
    for name in honest:
        if limits[name] == ATTEST:
            if not (target >> w) & 1:
                shame.append(ShameEvent(name, world_name, "false-yes"))
            if any(limits[o] != ATTEST for o in honest):
                shame.append(ShameEvent(name, world_name, "disagreement"))

    return SimulationReport(
        world=world_name,
        traces=traces,
        limits=limits,
        aggregator_trace=aggregator,
        aggregator_limit=aggregator[-1],
        shame=tuple(shame),
        faults=tuple(sorted(fault_set)),
    )


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Scenario:
    frame: Frame
    valuation: dict[str, int]
    target: int
    protocol: AttestationProtocol
    world: str
    faults: tuple[str, ...]
    seed: int
    step_cap: int | None


def load_scenario(path: str) -> Scenario:
    """Load a simulation scenario file::

        { "schema": 1,
          "frame": "model.json",
          "target": "x,z" | "@formula" | "formula" | ["x","z"],
          "protocol": {"type": "synthesized", "success_target": "x,z"?}
                    | {"type": "explicit",
                       "strategies": {"a": [{"evidence": ["x"], "verdict": "yes"}]}},
          "world": "x",
          "faults": ["b"],
          "seed": 7,
          "step_cap": 12? }

    The frame path is relative to the scenario file. ``target`` and
    ``success_target`` are read by ``logic.world_set``, as the CLI's flags are.
    """
    data = read_json(path, "scenario", ProtocolError)
    if not isinstance(data, dict):
        raise ProtocolError(f"scenario {path} must be a JSON object")
    faults, seed, step_cap = data.get("faults", []), data.get("seed", 0), data.get("step_cap")
    schema = data.get("schema", 1)
    try:
        frame_path, world, proto_spec = data["frame"], data["world"], data["protocol"]
        for ok, what in (
            (_is_int(schema) and schema == 1, "'schema' must be 1"),
            (isinstance(frame_path, str), "'frame' must be a path"),
            (isinstance(world, str), "'world' must be a world name"),
            (_is_names(faults), "'faults' must be a list of agent names"),
            (_is_int(seed), "'seed' must be an integer"),
            (step_cap is None or _is_int(step_cap), "'step_cap' must be an integer"),
            (isinstance(proto_spec, dict), "'protocol' must be an object"),
        ):
            if not ok:
                raise ProtocolError(f"malformed scenario: {what}")
        if not os.path.isabs(frame_path):
            frame_path = os.path.join(os.path.dirname(os.path.abspath(path)), frame_path)
        frame, valuation = load_frame_file(frame_path)
        model = Model(frame, valuation)
        target = world_set(model, data["target"])
        if proto_spec.get("type") == "synthesized":
            chosen = proto_spec.get("success_target")
            success = None if chosen is None else world_set(model, chosen)
            protocol = synthesize(frame, target, success)
        elif proto_spec.get("type") == "explicit":
            table = proto_spec["strategies"]
            rows_ok = isinstance(table, dict) and all(
                isinstance(rows, list)
                and all(isinstance(row, dict) and _is_names(row.get("evidence")) for row in rows)
                for rows in table.values()
            )
            if not rows_ok:
                raise ProtocolError("malformed scenario: 'strategies' rows need 'evidence' lists")
            strategies = []
            for agent, rows in table.items():
                verdicts: dict[int, str] = {}
                for row in rows:
                    e = frame.mask(row["evidence"])
                    if e in verdicts:
                        raise ProtocolError(
                            f"malformed scenario: strategy for {agent!r} lists "
                            f"evidence {list(frame.names(e))} twice"
                        )
                    verdicts[e] = row["verdict"]
                strategies.append(AttestationStrategy(agent, verdicts))
            protocol = AttestationProtocol(tuple(strategies))
            _check_protocol_shape(frame, protocol)
        else:
            raise ProtocolError("protocol type must be 'synthesized' or 'explicit'")
    except KeyError as exc:
        raise ProtocolError(f"malformed scenario: missing {exc}") from None

    frame.index(world)
    return Scenario(frame, valuation, target, protocol, world, tuple(faults), seed, step_cap)


def run_scenario(scenario: Scenario) -> SimulationReport:
    streams = {
        a.name: generate_stream(
            scenario.frame, a.name, scenario.world, f"{scenario.seed}:stream:{a.name}"
        )
        for a in scenario.frame.agents
    }
    return simulate(
        scenario.frame,
        scenario.protocol,
        scenario.world,
        streams,
        scenario.faults,
        scenario.target,
        scenario.seed,
        scenario.step_cap,
    )
