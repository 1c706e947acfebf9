"""Attestation protocols for the inductive coordinated-attack problem.

Agents map each piece of evidence to "attest" or "defer"; a protocol solves
coordinated attack for a target proposition when no agent's limit output ever
falsely attests (validity), all agents converge to the same output everywhere
(agreement), and at least one world has everyone attesting (nontriviality).
This module verifies protocols, synthesizes them from witness chains, and
simulates them over finite evidence streams with optional faulty agents and a
majority-vote aggregator.

A protocol maps each agent's name to its strategy table, a ``hierarchy``
decision method: a total map from its basis elements to ``ATTEST`` or ``DEFER``.
"""

from __future__ import annotations

import os
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .frame import Frame, ResourceLimitError, _is_int, _is_names, load_frame_file, read_json
from .hierarchy import Verdict, _chain_verdicts, _switches, open_rank
from .logic import Model, world_set
from .operators import OperatorContext


class ProtocolError(ValueError):
    """An infeasible synthesis target or malformed protocol/scenario."""


ATTEST = Verdict.YES
DEFER = Verdict.NO

MAX_STEPS = 10_000  # a simulation's step cap; it builds one verdict per step and agent


def _check_protocol_shape(frame: Frame, protocol: Mapping[str, Mapping[int, Verdict]]) -> None:
    if not isinstance(protocol, Mapping):
        raise ProtocolError("a protocol must map each agent name to its strategy table")
    names = list(protocol)
    expected = [a.name for a in frame.agents]
    if set(names) != set(expected):
        raise ProtocolError(f"protocol agents {names} do not match frame agents {expected}")
    for name, verdicts in protocol.items():
        if not isinstance(verdicts, Mapping):
            raise ProtocolError(f"strategy for {name!r} must map evidence to verdicts")
        # int keys first (3.0 and True sort as 3 and 1), then sorted, not as
        # sets: a chain's masks share few hash values
        keys_ok = all([_is_int(e) for e in verdicts])
        if not keys_ok or sorted(verdicts) != sorted(frame.agent(name).basis):
            raise ProtocolError(f"strategy for {name!r} is not total on the agent's basis")
        if any(v not in (ATTEST, DEFER) for v in verdicts.values()):
            raise ProtocolError(f"strategy for {name!r} has unknown verdicts")


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
    """Per-agent limit-attest sets and switch counts; the verdicts derive from them."""

    target: int
    switch_bounds: Mapping[str, SwitchBoundCheck]
    limit_yes: Mapping[str, int]  # per-agent limit-attest set

    @property
    def validity(self) -> bool:
        return all(s & ~self.target == 0 for s in self.limit_yes.values())

    @property
    def agreement(self) -> bool:
        return len(set(self.limit_yes.values())) == 1

    @property
    def success_set(self) -> int:
        return reduce(and_, self.limit_yes.values())

    @property
    def nontriviality(self) -> bool:
        return self.success_set != 0

    @property
    def solves(self) -> bool:
        return (
            self.validity
            and self.agreement
            and self.nontriviality
            and all(c.ok for c in self.switch_bounds.values())
        )


def verify_protocol(
    frame: Frame, protocol: Mapping[str, Mapping[int, Verdict]], target: int
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
        yes, switches = _switches(frame.topology(spec.name), protocol[spec.name], ATTEST)
        limit_yes[spec.name] = yes
        bounds[spec.name] = SwitchBoundCheck(switches, spec.tolerance)
    return VerifyReport(target, bounds, limit_yes)


# ---------------------------------------------------------------------------
# synthesis


def _strategy_for_success_set(frame: Frame, agent: str, success: int) -> dict[int, Verdict]:
    spec = frame.agent(agent)
    rank = open_rank(frame.topology(agent), success)
    if rank.rank > spec.tolerance + 1:
        raise ProtocolError(
            f"target is not decidable for agent {agent!r}: needs a chain of "
            f"{rank.rank} opens, tolerance allows {spec.tolerance + 1}"
        )
    return _chain_verdicts(rank.witness, spec.basis)


def choose_success_set(frame: Frame, target_prop: int, success_target: int | None = None) -> int:
    """The success set ``synthesize`` builds its protocol for, given the same
    arguments. An explicit success target must be a non-empty subset of the
    proposition. Without one, the first of ``OperatorContext.witnesses`` of
    the common-knowledge set is chosen: that set itself when feasible,
    otherwise its largest feasible subset. Either set with members outside
    the frame is a ``FrameError``."""
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
    for v in ctx.witnesses(common):
        return v
    raise ProtocolError("no non-empty feasible success set exists at these tolerances")


def synthesize(
    frame: Frame, target_prop: int, success_target: int | None = None
) -> dict[str, dict[int, Verdict]]:
    """Build a protocol solving coordinated attack for ``target_prop`` on the
    success set that ``choose_success_set`` picks from the same arguments:
    each agent's name, in frame order, mapped to its strategy table. Each
    table is read off a shortest witness chain for that set, so its
    limit-attest set is the chosen set and needs no verification. A set that
    some agent cannot decide within tolerance is a ``ProtocolError``."""
    success = choose_success_set(frame, target_prop, success_target)
    return {a.name: _strategy_for_success_set(frame, a.name, success) for a in frame.agents}


# ---------------------------------------------------------------------------
# evidence streams and simulation


def generate_stream(frame: Frame, agent: str, world: int | str, seed) -> tuple[int, ...]:
    """An evidence stream of the agent at the world: a random strictly
    descending walk through its evidence there, from a random start down to
    the unique minimal element, which has the fewest worlds."""
    at_w = sorted(frame.evidence_at(agent, world), key=lambda e: (e.bit_count(), e))
    least = at_w[0]
    rng = random.Random(f"{seed}")
    cur = rng.choice(at_w)
    chain = [cur]
    while cur != least:
        cur = rng.choice([e for e in at_w if e != cur and e & ~cur == 0])
        chain.append(cur)
    return tuple(chain)


@dataclass(frozen=True)
class ShameEvent:
    agent: str
    world: str
    cause: str  # "false-yes" | "disagreement"


@dataclass(frozen=True)
class SimulationReport:
    world: str
    traces: Mapping[str, tuple[Verdict, ...]]
    aggregator_trace: tuple[Verdict, ...]
    shame: tuple[ShameEvent, ...]
    faults: tuple[str, ...]

    @property
    def limits(self) -> dict[str, Verdict]:
        """Each agent's final output."""
        return {name: trace[-1] for name, trace in self.traces.items()}

    @property
    def aggregator_limit(self) -> Verdict:
        return self.aggregator_trace[-1]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            **vars(self),
            "traces": dict(self.traces),
            "limits": self.limits,
            "aggregator_limit": self.aggregator_limit,
            "shame": [dict(vars(e)) for e in self.shame],
        }


def simulate(
    frame: Frame,
    protocol: Mapping[str, Mapping[int, Verdict]],
    world: int | str,
    streams: Mapping[str, Sequence[int]],
    faults: Sequence[str],
    target: int,
    seed,
    step_cap: int | None = None,
) -> SimulationReport:
    """Run every agent along its evidence stream at one world.

    A stream, as ``generate_stream`` builds one, is a non-empty, strictly
    descending run of the agent's evidence at the world that ends at the
    least evidence there; any other is a ``ProtocolError``. Honest agents
    answer their strategy on each learned evidence; faulty agents emit seeded
    random verdicts. The aggregator attests at a step iff strictly more than
    half of the step's outputs attest, and ties are defers (safety over
    liveness): it outputs the lower median, DEFER ranking below ATTEST. Limits
    are the final outputs, which honest streams realize because they end at
    minimal evidence. A ``step_cap``, an int, fixes the horizon; it must cover the
    streams, and past ``MAX_STEPS`` it is a ``ResourceLimitError``. A target
    with members outside the frame is a ``FrameError``.
    """
    _check_protocol_shape(frame, protocol)
    frame.check_subset(target)
    w = frame.position(world)
    world_name = frame.worlds[w]
    if not (isinstance(faults, (list, tuple)) and all([isinstance(f, str) for f in faults])):
        raise ProtocolError(f"faults must be a sequence of agent names, not {faults!r:.40}")
    fault_set = set(faults)
    agent_names = [a.name for a in frame.agents]
    if fault_set - set(agent_names):
        raise ProtocolError(f"unknown fault agents: {sorted(fault_set - set(agent_names))}")
    if not isinstance(streams, Mapping) or set(streams) != set(agent_names):
        raise ProtocolError("streams must cover exactly the frame's agents")
    for name, chain in streams.items():
        at_w = frame.evidence_at(name, w)
        if not (
            isinstance(chain, Sequence)
            and chain
            and all([_is_int(e) and e in at_w for e in chain])
            and all([b != a and b & ~a == 0 for a, b in zip(chain, chain[1:])])
            and chain[-1] == frame.topology(name).hull(1 << w)  # N(w), the least evidence
        ):
            raise ProtocolError(f"stream for {name!r} is no evidence stream at {world_name!r}")

    horizon = max(len(chain) for chain in streams.values())
    if step_cap is not None:
        if not _is_int(step_cap):
            raise ProtocolError("'step_cap' must be an integer")
        if step_cap > MAX_STEPS:
            raise ResourceLimitError(f"step cap {step_cap} exceeds {MAX_STEPS} steps")
        if step_cap < horizon:
            raise ProtocolError(
                f"step cap {step_cap} cannot realize streams of length {horizon}"
            )
        horizon = step_cap

    traces: dict[str, tuple[Verdict, ...]] = {}
    for name in agent_names:
        if name in fault_set:
            rng = random.Random(f"{seed}:{name}")
            traces[name] = tuple([rng.choice((ATTEST, DEFER)) for _ in range(horizon)])
        else:  # an agent keeps its least evidence once its stream ends
            chain = list(streams[name])
            chain += chain[-1:] * (horizon - len(chain))
            traces[name] = tuple([protocol[name][e] for e in chain])

    # one verdict per agent and step; a strict majority attests
    aggregator = tuple([
        (DEFER, ATTEST)[2 * step.count(ATTEST) > len(step)] for step in zip(*traces.values())
    ])

    honest = [n for n in agent_names if n not in fault_set]
    attesting = [n for n in honest if traces[n][-1] == ATTEST]
    shame: list[ShameEvent] = []
    for name in attesting:
        if not (target >> w) & 1:
            shame.append(ShameEvent(name, world_name, "false-yes"))
        if len(attesting) < len(honest):
            shame.append(ShameEvent(name, world_name, "disagreement"))

    return SimulationReport(
        world=world_name,
        traces=traces,
        aggregator_trace=aggregator,
        shame=tuple(shame),
        faults=tuple(sorted(fault_set)),
    )


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Scenario:
    frame: Frame
    target: int
    protocol: Mapping[str, Mapping[int, Verdict]]
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
            here = os.path.dirname(os.path.abspath(os.fsdecode(path)))
            frame_path = os.path.join(here, frame_path)
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
            protocol = {}
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
                protocol[agent] = verdicts
            _check_protocol_shape(frame, protocol)
        else:
            raise ProtocolError("protocol type must be 'synthesized' or 'explicit'")
    except KeyError as exc:
        raise ProtocolError(f"malformed scenario: missing {exc}") from None

    frame.index(world)
    return Scenario(frame, target, protocol, world, tuple(faults), seed, step_cap)


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
