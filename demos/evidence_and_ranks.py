"""Walkthrough: evidence bases, the generated topology, and how many mind
changes it takes to settle a question in the limit.

Run: python demos/evidence_and_ranks.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from limitknow import (
    AgentSpec,
    DescendingOpenChain,
    Frame,
    Verdict,
    closed_rank,
    limit_verdicts,
    max_switches,
    method_from_chain,
    min_switches,
    open_rank,
)

# One agent watching three worlds. Evidence arrives cumulatively: first the
# trivial observation (everything possible), maybe later "not x", maybe later
# "definitely z".
frame = Frame(
    ["x", "y", "z"],
    [AgentSpec("observer", (0b111, 0b110, 0b100), tolerance=1)],
)
names = frame.names
topo = frame.topology("observer")

print("worlds:", ", ".join(frame.worlds))
print("evidence basis:", [names(e) for e in frame.agent("observer").basis])
print("open sets:", [names(o) for o in topo.opens])
print()

# How hard is each question? A question (a set of worlds) is settled in the
# limit with k-1 mind changes iff it is a nested difference of k opens.
for target in (0b100, 0b010, 0b101):
    o = open_rank(topo, target)
    c = closed_rank(topo, target)
    print(
        f"question {names(target)}: open rank {o.rank} "
        f"(witness {[names(w) for w in o.witness]}), closed rank {c.rank}, "
        f"fewest switches from a standing start: {min_switches(frame, 'observer', target)}"
    )
print()

# Read a decision method off the witness chain for {x,z} and watch it settle.
target = 0b101
chain = DescendingOpenChain(topo, open_rank(topo, target).witness)
method = method_from_chain(chain, frame.agent("observer").basis)
print(f"method for {names(target)} read off the chain:")
for evidence, verdict in method.items():
    print(f"  on seeing {names(evidence)}: {verdict.value}")
sigma = limit_verdicts(method)
print("limit verdict per world:", {frame.worlds[w]: v.value for w, v in sigma.items()})
print("mind changes after first saying yes:", max_switches(method, Verdict.YES))
print()

# A question nobody can settle: with only the trivial observation available,
# the agent flip-flops forever on "is it u?".
indiscrete = Frame(["u", "v"], [AgentSpec("observer", (0b11,), tolerance=3)])
stuck = open_rank(indiscrete.topology("observer"), 0b01)
print("with indiscrete evidence, open rank of {u}:", stuck.rank)

# And a constant method, a plain verdict map, still settles instantly.
basis = indiscrete.agent("observer").basis
constant = {e: Verdict.NO for e in basis}
print(
    "constant-no method settles on:",
    {indiscrete.worlds[w]: v.value for w, v in limit_verdicts(constant).items()},
)
