"""Expected answers computed apart from the program under test.

Nothing here imports ``limitknow``. World sets are ints used as bit vectors,
like the program's, but every answer is derived from the minimal
neighborhoods of a finite Alexandrov space:

* ``N(w)``: the least basis element containing ``w`` (the intersection of
  all elements containing it);
* true reason ``S`` of an inductive agent (tolerance >= 1) is the interior
  under ``N(w) & cl{w}``, where ``cl{w} = {v : w in N(v)}``; at tolerance 0
  it is the interior under ``N(w)``;
* common knowledge ``C`` is the interior under meet-neighborhoods, the least
  set containing ``w`` closed under every agent's true-reason neighborhoods;
* ranks are replayed greedily with hulls and checked by witness chains.

``test_bench.py`` cross-checks each closed form against brute-force
enumeration of opens, two-step-open families and fixed points.
"""

from __future__ import annotations

INFINITE = float("inf")


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Agent:
    """One agent's basis and tolerance, with its neighborhoods."""

    def __init__(self, name, basis, tolerance, universe):
        self.name = name
        self.basis = tuple(basis)
        self.tolerance = tolerance
        self.universe = universe
        self.nbhd = {}
        for w in bits(universe):
            acc = universe
            for e in self.basis:
                if (e >> w) & 1:
                    acc &= e
            self.nbhd[w] = acc
        cl = {w: 0 for w in bits(universe)}
        for v, n in self.nbhd.items():
            for w in bits(n):
                cl[w] |= 1 << v
        self.true_nbhd = (
            dict(self.nbhd)
            if tolerance == 0
            else {w: self.nbhd[w] & cl[w] for w in self.nbhd}
        )

    def is_open(self, s):
        return all(self.nbhd[w] & ~s == 0 for w in bits(s))

    def hull(self, s):
        out = 0
        for w in bits(s):
            out |= self.nbhd[w]
        return out

    def true_reason(self, s):
        return interior(self.true_nbhd, s)


class Frame:
    """World names plus agents, as written to a model file."""

    def __init__(self, worlds, agents):
        self.worlds = tuple(worlds)
        self.universe = (1 << len(self.worlds)) - 1
        self.agents = {
            name: Agent(name, basis, tol, self.universe) for name, basis, tol in agents
        }
        self._meet = None

    def names(self, mask):
        return [self.worlds[i] for i in bits(mask)]

    def mask(self, names):
        index = {w: i for i, w in enumerate(self.worlds)}
        out = 0
        for n in names:
            out |= 1 << index[n]
        return out

    def meet_nbhd(self):
        if self._meet is None:
            self._meet = {}
            for w in bits(self.universe):
                acc, frontier = 1 << w, 1 << w
                while frontier:
                    grown = 0
                    for v in bits(frontier):
                        for a in self.agents.values():
                            grown |= a.true_nbhd[v]
                    frontier = grown & ~acc
                    acc |= grown
                self._meet[w] = acc
        return self._meet

    def common(self, s):
        return interior(self.meet_nbhd(), s)


def interior(nbhd, s):
    """Worlds whose neighborhood lies inside ``s``; for an Alexandrov space
    this set is open, so it is the interior."""
    out = 0
    for w, n in nbhd.items():
        if (s >> w) & 1 and n & ~s == 0:
            out |= 1 << w
    return out


# ---------------------------------------------------------------------------
# ranks and chains


def open_rank(agent, s):
    """Least number of descending opens whose nested difference is ``s``,
    by repeated hulls; INFINITE when a hull repeats before the rest empties."""
    count, cur, prev = 0, s, -1
    while cur:
        h = agent.hull(cur)
        if h == prev:
            return INFINITE
        count, prev, cur = count + 1, h, h & ~cur
    return count


def nested_difference(sets):
    acc = 0
    for s in reversed(sets):
        acc = s & ~acc
    return acc


def chain_problem(agent, chain, s):
    """Why a witness chain fails to express ``s``, or None when it does."""
    for a, b in zip(chain, chain[1:]):
        if b & ~a:
            return "chain does not descend"
    for o in chain:
        if not agent.is_open(o):
            return "chain member is not open"
    if nested_difference(chain) != s:
        return "nested difference is not the set"
    return None


# ---------------------------------------------------------------------------
# protocols


def max_switches_from_yes(basis, verdicts):
    """Longest strictly descending evidence run whose verdicts alternate,
    starting at a yes, counted in switches; -1 when nothing says yes."""
    order = sorted(basis, key=lambda e: e.bit_count())
    longest = {}
    for e in order:
        best = 0
        for e2 in order:
            if e2 != e and e2 & ~e == 0 and verdicts[e2] != verdicts[e]:
                best = max(best, 1 + longest[e2])
        longest[e] = best
    starts = [longest[e] for e in basis if verdicts[e] == "yes"]
    return max(starts) if starts else -1


def protocol_problem(frame, table, prop, success, success_target=None):
    """Replay a synthesized protocol. ``table`` maps agent name to a mapping
    from evidence mask to verdict; the limit verdict at a world is the verdict
    at its least evidence. Returns why the protocol is wrong, or None."""
    if set(table) != set(frame.agents):
        return "protocol does not cover exactly the frame's agents"
    if success == 0:
        return "success set is empty"
    if success & ~prop:
        return "success set leaves the proposition"
    if success_target is not None and success != success_target:
        return "success set differs from the requested target"
    for name, agent in frame.agents.items():
        verdicts = table[name]
        if set(verdicts) != set(agent.basis):
            return f"strategy of {name} is not total on its basis"
        if set(verdicts.values()) - {"yes", "defer"}:
            return f"strategy of {name} has unknown verdicts"
        limit_yes = 0
        for w, n in agent.nbhd.items():
            if verdicts[n] == "yes":
                limit_yes |= 1 << w
        if limit_yes != success:
            return f"limit verdicts of {name} differ from the success set"
        if max_switches_from_yes(agent.basis, verdicts) > agent.tolerance:
            return f"strategy of {name} switches more than its tolerance"
    return None


def feasible(frame, s):
    """Every agent can limit decide ``s`` within its tolerance."""
    return all(open_rank(a, s) <= a.tolerance + 1 for a in frame.agents.values())


# ---------------------------------------------------------------------------
# formulas over S, C and the boolean connectives
#
# A formula is a nested tuple: ("p", name), ("top",), ("not", f),
# ("and"|"or"|"imp"|"iff", f, g), ("S", agent, f), ("C", f). Tuples for R, I,
# B and G exist for printing only; their extensions are checked through laws.


def evaluate(frame, valuation, f):
    kind = f[0]
    u = frame.universe
    if kind == "p":
        return valuation[f[1]]
    if kind == "top":
        return u
    if kind == "not":
        return u & ~evaluate(frame, valuation, f[1])
    if kind == "S":
        return frame.agents[f[1]].true_reason(evaluate(frame, valuation, f[2]))
    if kind == "C":
        return frame.common(evaluate(frame, valuation, f[1]))
    a, b = evaluate(frame, valuation, f[1]), evaluate(frame, valuation, f[2])
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "imp":
        return (u & ~a) | b
    if kind == "iff":
        return u & ~(a ^ b)
    raise ValueError(f"the oracle does not evaluate {kind}")


def show(f):
    """Concrete syntax, fully parenthesized below the top."""
    kind = f[0]
    if kind == "p":
        return f[1]
    if kind == "top":
        return "top"
    if kind == "not":
        return "~" + _arg(f[1])
    if kind in ("S", "R"):
        return f"{kind}[{f[1]}] " + _arg(f[2])
    if kind in ("I", "B"):
        return f"{kind}[{f[1]} @ {show(f[2])}] " + _arg(f[3])
    if kind == "G":
        return f"G[{show(f[1])}] " + _arg(f[2])
    if kind == "C":
        return "C " + _arg(f[1])
    op = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}[kind]
    return f"{_arg(f[1])} {op} {_arg(f[2])}"


def _arg(f):
    text = show(f)
    return text if f[0] in ("p", "top") else f"({text})"
