"""Walkthrough: solving inductive coordinated attack and aggregating honest
attestations by majority vote with a faulty agent in the mix.

Run: python demos/consensus_simulation.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from limitknow import (
    AgentSpec,
    Frame,
    OperatorContext,
    ProtocolError,
    choose_success_set,
    generate_stream,
    simulate,
    synthesize,
    verify_protocol,
)

# Three agents share an evidence chain over three worlds and must coordinate
# on attesting p = {x, z} without anyone ever converging on a false attest.
frame = Frame(
    ["x", "y", "z"],
    [AgentSpec(name, (0b111, 0b110, 0b100), tolerance=2) for name in ("a1", "a2", "a3")],
)
p = 0b101
names = frame.names
ctx = OperatorContext(frame)

print("p holds at:", names(p))
print("common inductive knowledge of p:", names(ctx.common(p)))
print("feasibility thresholds:", {a.name: ctx.min_tolerance(a.name, p) for a in frame.agents})
print()

protocol = synthesize(frame, p)
report = verify_protocol(frame, protocol, p)
print("synthesized protocol (attest/defer per evidence):")
for strategy in protocol.strategies:
    rows = ", ".join(f"{names(e)}->{v}" for e, v in sorted(strategy.verdicts.items()))
    print(f"  {strategy.owner}: {rows}")
print(
    f"validity={report.validity} agreement={report.agreement} "
    f"nontriviality={report.nontriviality} success set={names(report.success_set)}"
)
print()

# At tolerance 1 the full success set {x,z} needs a 3-step chain, which is out
# of reach; synthesis falls back to the largest feasible subset, which
# choose_success_set names without building or verifying a protocol.
tight = frame.with_tolerances({a.name: 1 for a in frame.agents})
try:
    synthesize(tight, p, 0b101)
except ProtocolError as exc:
    print("at tolerance 1, targeting {x,z} fails:", exc)
print("fallback success set:", names(choose_success_set(tight, p)))
print()

# Simulate at world z with one Byzantine agent emitting random verdicts.
for world in ("z", "y"):
    streams = {
        a.name: generate_stream(frame, a.name, world, f"7:{a.name}") for a in frame.agents
    }
    sim = simulate(frame, protocol, world, streams, faults=["a3"], target=p, seed=7)
    print(f"world {world}, a3 Byzantine:")
    for agent, trace in sim.traces.items():
        print(f"  {agent:>10}: {' '.join(v[0].upper() for v in trace)}")
    print(f"  {'aggregator':>10}: {' '.join(v[0].upper() for v in sim.aggregator_trace)}")
    print(f"  aggregator limit: {sim.aggregator_limit}   shame events: {list(sim.shame) or 'none'}")
    print()
