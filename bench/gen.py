"""Seeded inputs for each workload: model files, scenario files, the list of
operations one pass replays, and each operation's expected answer.

The structure of every model (world count, agents, basis family, tolerances)
is fixed per slot, so the work a pass does is nearly the same for every
seed. The seed picks world permutations, random bases within a fixed window
of open-set counts, valuations, formulas, targets and scenario worlds.
The program under test receives only the files written here.
"""

from __future__ import annotations

import json
import os
import random

import oracle
from oracle import bits

# ---------------------------------------------------------------------------
# basis families over positions 0..n-1; a permutation maps them to worlds


def chain(n):
    """Nested suffixes: the longest possible descending basis."""
    full = (1 << n) - 1
    return {full & ~((1 << k) - 1) for k in range(n)}


def tree(n, leaf):
    """Nested partitions: halve intervals down to blocks of at most ``leaf``."""
    out = set()

    def split(lo, hi):
        out.add(((1 << hi) - 1) & ~((1 << lo) - 1))
        if hi - lo > leaf:
            mid = (lo + hi) // 2
            split(lo, mid)
            split(mid, hi)

    split(0, n)
    return out


def product(rows, cols):
    """Two partitions of a grid (rows, columns) and all their meets."""
    cell = lambda i, j: 1 << (i * cols + j)
    row = [sum(cell(i, j) for j in range(cols)) for i in range(rows)]
    col = [sum(cell(i, j) for i in range(rows)) for j in range(cols)]
    out = {(1 << (rows * cols)) - 1} | set(row) | set(col)
    out |= {r & c for r in row for c in col}
    return out


def random_meet_closed(rng, n, lo, hi):
    """Random seed sets closed under meets plus the universe, redrawn until
    the topology has between ``lo`` and ``hi`` open sets (the count that sets
    the cost of enumerating inductive true reason)."""
    full = (1 << n) - 1
    while True:
        out = {full}
        for _ in range(rng.randint(3, 6)):
            out.add(rng.randint(1, full))
        frontier = set(out)
        while frontier:
            fresh = {a & b for a in frontier for b in out} - out - {0}
            out |= fresh
            frontier = fresh
        agent = oracle.Agent("x", out, 0, full)
        opens = sum(1 for s in range(full + 1) if agent.is_open(s))
        if lo <= opens <= hi:
            return out


def relabel(masks, perm):
    out = []
    for m in sorted(masks):
        t = 0
        for pos in bits(m):
            t |= 1 << perm[pos]
        out.append(t)
    return out


def build_basis(rng, n, family):
    kind, *args = family
    if kind == "random":
        return sorted(random_meet_closed(rng, *args))
    structure = {"chain": chain, "tree": tree, "product": product}[kind](*args)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(structure, perm)


# ---------------------------------------------------------------------------
# model slots: (label, worlds, [(agent, family, tolerance), ...][, "rare"])
#
# A "rare" slot holds the costliest model of its workload. Only three of its
# operations (S by its first agent, an S schema and an S formula) touch that
# agent's inductive true reason, so the costliest class stays about 2% of a
# pass and the p99 tail falls inside it rather than on slow machine phases.

CLI_SMALL = [
    ("chain10", 10, [("a", ("chain", 10), 1), ("b", ("chain", 10), 2)]),
    ("chaintree9", 9, [("a", ("chain", 9), 3), ("b", ("tree", 9, 2), 1), ("c", ("tree", 9, 3), 0)]),
    ("tree8", 8, [("a", ("tree", 8, 1), 1), ("b", ("tree", 8, 2), 0)]),
    ("tree10", 10, [("a", ("tree", 10, 2), 2), ("b", ("chain", 10), 1), ("c", ("tree", 10, 3), 1)]),
    ("product10", 10, [("a", ("product", 2, 5), 1), ("b", ("tree", 10, 5), 0)], "rare"),
    ("product9", 9, [("a", ("product", 3, 3), 2), ("b", ("chain", 9), 1), ("c", ("product", 3, 3), 0)]),
    ("random11", 11, [("a", ("random", 11, 240, 300), 1), ("b", ("random", 11, 80, 110), 2)]),
    ("random8", 8, [("a", ("random", 8, 40, 80), 0), ("b", ("random", 8, 40, 80), 1), ("c", ("chain", 8), 3)]),
]

CLI_LARGE = [
    ("chain24", 24, [("a", ("chain", 24), 1), ("b", ("tree", 24, 3), 0)]),
    ("chain32", 32, [("a", ("chain", 32), 0), ("b", ("chain", 32), 0)]),
    ("chain40", 40, [("a", ("chain", 40), 2), ("b", ("product", 5, 8), 0), ("c", ("tree", 40, 5), 1)]),
    ("chain28", 28, [("a", ("chain", 28), 0), ("b", ("tree", 28, 4), 0), ("c", ("product", 4, 7), 0)]),
]

LAWS_WARM = [
    ("chain7", 7, [("a", ("chain", 7), 1), ("b", ("chain", 7), 0)]),
    ("tree8", 8, [("a", ("tree", 8, 2), 1), ("b", ("chain", 8), 2), ("c", ("tree", 8, 1), 0)]),
    ("product8", 8, [("a", ("product", 2, 4), 1), ("b", ("tree", 8, 4), 3)]),
    ("random7", 7, [("a", ("random", 7, 20, 40), 1), ("b", ("random", 7, 20, 40), 0), ("c", ("chain", 7), 2)]),
    ("random6", 6, [("a", ("random", 6, 12, 30), 2), ("b", ("chain", 6), 1)]),
    ("product6", 6, [("a", ("product", 2, 3), 0), ("b", ("product", 3, 2), 1), ("c", ("chain", 6), 1)]),
]

# Each pass runs four 8-trial batteries per model and one deep 32-trial
# battery on the first model: the deep one is 1 operation in 25, so the
# p98 tail falls inside it rather than on scheduling noise.
LAWS_TRIALS = 8
LAWS_SEEDS_PER_MODEL = 4
DEEP_TRIALS = 32

# The enumeration-limit fault: inductive S, C and target-free synthesis over
# more than 20 worlds. Its inputs do not depend on the seed, so the same
# operations fail on every pass of every run.
FAULT_WORLDS = 24


def fault_model():
    n = FAULT_WORLDS
    worlds = [f"w{i}" for i in range(n)]
    agents = [
        ("a", sorted(chain(n)), 1),
        ("b", relabel(chain(n), list(reversed(range(n)))), 1),
    ]
    p = ((1 << n) - 1) & ~0b111  # all but w0, w1, w2
    return worlds, agents, {"p": p, "q": p, "r": p}


# ---------------------------------------------------------------------------
# writing inputs


def model_json(worlds, agents, valuation):
    def names(m):
        return [worlds[i] for i in bits(m)]

    return {
        "worlds": list(worlds),
        "agents": [
            {"name": a, "tolerance": tol, "basis": [names(e) for e in basis]}
            for a, basis, tol in agents
        ],
        "valuation": {p: names(m) for p, m in sorted(valuation.items())},
    }


def build_model(rng, slot):
    label, n, specs = slot[:3]
    worlds = [f"w{i}" for i in range(n)]
    agents = [(a, build_basis(rng, n, fam), tol) for a, fam, tol in specs]
    full = (1 << n) - 1
    valuation = {p: rng.randint(1, full - 1) for p in ("p", "q", "r")}
    return worlds, agents, valuation


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


# ---------------------------------------------------------------------------
# formulas


LEAF = ("p", "?")


def fill(f, rng):
    """Replace each leaf placeholder of a metavariable with a seeded
    proposition (before the metavariable is repeated inside a schema)."""
    if f == LEAF:
        return ("p", rng.choice("pqr"))
    return tuple(fill(x, rng) if isinstance(x, tuple) else x for x in f)


def _meta(shape, s_agents, allow_c):
    """A small metavariable: a proposition, its negation, or one S/C step."""
    choices = ["p", "not", "and"]
    if s_agents:
        choices.append("S")
    if allow_c:
        choices.append("C")
    kind = shape.choice(choices)
    if kind == "p":
        return LEAF
    if kind == "not":
        return ("not", LEAF)
    if kind == "and":
        return ("and", LEAF, LEAF)
    if kind == "S":
        return ("S", shape.choice(s_agents), LEAF)
    return ("C", LEAF)


def s_schema(shape, a, f, g):
    """An instance of one of the true-reason axioms S2-S4."""
    pick = shape.randrange(3)
    if pick == 0:
        return ("imp", ("S", a, f), f)
    if pick == 1:
        return ("iff", ("S", a, f), ("S", a, ("S", a, f)))
    return ("iff", ("and", ("S", a, f), ("S", a, g)), ("S", a, ("and", f, g)))


def c_schema(shape, a, f):
    """An instance of C1 (truth) or C2 (introspection of C)."""
    if shape.randrange(2) == 0:
        return ("imp", ("C", f), f)
    return ("imp", ("C", f), ("S", a, ("C", f)))


def r_schema(shape, a, f, g):
    """An instance of an axiom or rule over R, I, B and G."""
    pick = shape.randrange(7)
    if pick == 0:
        return ("iff", ("R", a, f), ("R", a, ("R", a, f)))
    if pick == 1:
        return ("I", a, f, f)
    if pick == 2:
        return ("iff", ("B", a, f, g), ("and", ("R", a, f), ("I", a, f, g)))
    if pick == 3:
        return ("imp", ("B", a, f, g), ("R", a, ("and", f, g)))
    if pick == 4:
        return ("imp", ("G", f, g), ("B", a, f, g))
    if pick == 5:
        return ("R", a, ("imp", f, f))  # rule R on a valid premise
    return ("I", a, f, ("or", g, ("not", g)))  # rule I on a valid premise


def eval_formula(shape, meta, s_agents, allow_c):
    """Two nested steps over S, C and the connectives, for the oracle."""
    body = (shape.choice(["and", "or", "imp"]), meta(), meta())
    if allow_c and shape.randrange(2) == 0:
        return ("C", body)
    if s_agents:
        return ("S", shape.choice(s_agents), body)
    return ("not", body)


# ---------------------------------------------------------------------------
# targets


def feasible_subset(rng, frame, within):
    """A non-empty subset of ``within`` every agent can decide within its
    tolerance, drawn from neighborhoods and their meets. ``within`` must
    itself be feasible (the universe always is)."""
    cands = set()
    for a in frame.agents.values():
        cands |= {n & within for n in a.nbhd.values()}
    cands |= {m & within for m in frame.meet_nbhd().values()}
    cands |= {x & y for x in list(cands) for y in list(cands)}
    good = sorted(c for c in cands if c and oracle.feasible(frame, c))
    return rng.choice(good) if good else within


def synth_prop(rng, frame):
    """A proposition whose common-knowledge set is non-empty and feasible,
    so target-free synthesis must choose exactly that set."""
    meet = frame.meet_nbhd()
    for _ in range(200):
        w = rng.randrange(len(frame.worlds))
        prop = meet[w] | (rng.randint(0, frame.universe) & rng.randint(0, frame.universe))
        c = frame.common(prop)
        if c and oracle.feasible(frame, c):
            return prop
    return None


def finite_rank_set(rng, agent, universe):
    for _ in range(200):
        s = rng.randint(1, universe)
        if oracle.open_rank(agent, s) != oracle.INFINITE:
            return s
    return agent.nbhd[0]


# ---------------------------------------------------------------------------
# cli workloads


def _names_arg(frame, mask):
    return ",".join(frame.names(mask))


def cli_ops(rng, frame, valuation, model_path, out_dir, slot, large):
    """The operations on one model, each with what its answer must satisfy.

    Which agents, schemas and formula shapes an operation uses is fixed per
    model slot (``shape``), so its cost does not move with the seed; the seed
    (``rng``) fills in propositions, sets and scenario worlds. On large
    models inductive S and C are left out: they are the enumeration-limit
    fault, kept separately on seed-independent inputs.
    """
    label = slot[0]
    shape = random.Random(label)
    agents = list(frame.agents.values())
    names = [a.name for a in agents]
    deductive = [a.name for a in agents if a.tolerance == 0]
    s_agents = deductive if large else names
    allow_c = len(deductive) == len(agents) or not large
    meta_agents = s_agents
    if "rare" in slot[3:]:
        s_agents, meta_agents, allow_c = names[:1], [], False
    a = names[0]
    m = lambda: fill(_meta(shape, meta_agents, allow_c), rng)
    ops = []

    def add(argv, check):
        ops.append({"argv": argv + ["--json"], "check": check})

    def formula_op(cmd, f, kind):
        add([cmd, "-m", model_path, "-f", oracle.show(f)], {"kind": kind, "formula": f})

    formula_op("check", r_schema(shape, shape.choice(names), m(), m()), "valid")
    if s_agents:
        formula_op("check", s_schema(shape, shape.choice(s_agents), m(), m()), "valid_oracle")
    if allow_c:
        formula_op("check", c_schema(shape, shape.choice(s_agents), m()), "valid_oracle")
    formula_op("eval", eval_formula(shape, m, s_agents, allow_c), "extension")

    ops_cmd = lambda op, extra: ["ops", "-m", model_path, "--op", op] + extra
    add(ops_cmd("R", ["-a", a, "-p", "@q"]), {"kind": "reason", "agent": a, "group": "Rq"})
    add(ops_cmd("R", ["-a", a, "-p", f"@R[{a}] q"]), {"kind": "same", "as": "Rq"})
    add(ops_cmd("I", ["-a", a, "-w", "@q", "-p", "@r"]), {"kind": "record", "group": "Iqr"})
    add(ops_cmd("B", ["-a", a, "-w", "@q", "-p", "@r"]), {"kind": "meet", "of": ["Rq", "Iqr"], "group": "Bqr"})
    add(ops_cmd("G", ["-w", "@q", "-p", "@r"]), {"kind": "subset", "of": "Bqr"})
    if s_agents:
        b = shape.choice(s_agents)
        add(ops_cmd("S", ["-a", b, "-p", "@p"]), {"kind": "true_reason", "agent": b, "set": valuation["p"]})
    if allow_c:
        add(ops_cmd("C", ["-p", "@p"]), {"kind": "common", "set": valuation["p"]})
        add(ops_cmd("L", ["-p", "@p"]), {"kind": "lewis", "set": valuation["p"]})

    ranked = agents[shape.randrange(len(agents))]
    s = finite_rank_set(rng, ranked, frame.universe)
    add(["rank", "-m", model_path, "-a", ranked.name, "-s", _names_arg(frame, s)],
        {"kind": "rank", "agent": ranked.name, "set": s})

    success = feasible_subset(rng, frame, frame.universe)
    prop = success | (rng.randint(0, frame.universe) & rng.randint(0, frame.universe))
    add(["synth", "-m", model_path, "-p", _names_arg(frame, prop), "--target", _names_arg(frame, success)],
        {"kind": "protocol", "prop": prop, "success": success})
    if allow_c:
        free = synth_prop(rng, frame)
        if free is None:
            add(["synth", "-m", model_path, "-p", _names_arg(frame, prop), "--target", _names_arg(frame, success)],
                {"kind": "protocol", "prop": prop, "success": success})
        else:
            add(["synth", "-m", model_path, "-p", _names_arg(frame, free)],
                {"kind": "protocol", "prop": free, "success": frame.common(free)})

    world = rng.randrange(len(frame.worlds))
    faults = [names[-1]] if len(names) >= 3 else []
    scenario = {
        "schema": 1,
        "frame": os.path.basename(model_path),
        "target": frame.names(prop),
        "protocol": {"type": "synthesized", "success_target": frame.names(success)},
        "world": frame.worlds[world],
        "faults": faults,
        "seed": rng.randrange(1000),
        "step_cap": 2 * max(len(a.basis) for a in agents),
    }
    scen_path = os.path.join(out_dir, f"{label}.scenario.json")
    _write(scen_path, scenario)
    add(["simulate", "-s", scen_path],
        {"kind": "simulation", "in_success": bool((success >> world) & 1),
         "faults": faults, "steps": scenario["step_cap"]})

    if allow_c:
        add(["laws", "-m", model_path, "--trials", "1", "--seed", str(shape.randrange(1000))],
            {"kind": "laws", "trials": 1})
    return ops


def fault_ops(model_path, frame, valuation):
    """S, C and target-free synth on the seed-independent fault model. Each
    exits 2 with the enumeration-limit error; a mended program must answer
    them as the oracle does."""
    limit = f"refusing to enumerate opens over {FAULT_WORLDS} worlds (limit 20)"
    p = valuation["p"]
    fault = {"fault": limit}
    return [
        {"argv": ["ops", "-m", model_path, "--op", "S", "-a", "a", "-p", "@p", "--json"],
         "check": {"kind": "true_reason", "agent": "a", "set": p, **fault}},
        {"argv": ["ops", "-m", model_path, "--op", "C", "-p", "@p", "--json"],
         "check": {"kind": "common", "set": p, **fault}},
        {"argv": ["synth", "-m", model_path, "-p", "@p", "--json"],
         "check": {"kind": "protocol", "prop": p, "success": frame.common(p), **fault}},
    ]


def make_cli(workload, seed, out_dir, tiny=False):
    """Write the models and scenarios of a cli workload and return the pass
    (a list of operations) plus the oracle frames by model path."""
    slots = CLI_LARGE if workload == "cli-large" else CLI_SMALL
    if tiny:
        slots = [(label, 5, [(a, _tiny_family(fam), tol) for a, fam, tol in specs])
                 for label, _, specs in (slot[:3] for slot in slots[:2])]
    rng = random.Random(f"{workload}:{seed}")
    frames, ops = {}, []
    for slot in slots:
        worlds, agents, valuation = build_model(rng, slot)
        path = os.path.join(out_dir, f"{slot[0]}.json")
        _write(path, model_json(worlds, agents, valuation))
        frame = oracle.Frame(worlds, agents)
        frames[path] = (frame, valuation)
        ops += cli_ops(rng, frame, valuation, path, out_dir, slot, workload == "cli-large")
    if workload == "cli-large":
        worlds, agents, valuation = fault_model()
        path = os.path.join(out_dir, "fault24.json")
        _write(path, model_json(worlds, agents, valuation))
        frame = oracle.Frame(worlds, agents)
        frames[path] = (frame, valuation)
        ops += fault_ops(path, frame, valuation)
    return ops, frames


def _tiny_family(fam):
    kind = fam[0]
    if kind == "chain":
        return ("chain", 5)
    if kind == "tree":
        return ("tree", 5, 1)
    if kind == "product":
        return ("chain", 5)
    return ("random", 5, 4, 32)


# ---------------------------------------------------------------------------
# laws-warm


def make_laws(seed, out_dir, tiny=False):
    """Write the laws-warm models; one operation is one law battery over one
    model with one battery seed. Battery seeds (which fix the formula
    shapes) belong to the slot; the seed varies the models."""
    rng = random.Random(f"laws-warm:{seed}")
    slots = LAWS_WARM[:2] if tiny else LAWS_WARM
    ops = []
    for slot in slots:
        worlds, agents, valuation = build_model(rng, slot)
        path = os.path.join(out_dir, f"{slot[0]}.json")
        _write(path, model_json(worlds, agents, valuation))
        for k in range(LAWS_SEEDS_PER_MODEL):
            ops.append({"model": path, "trials": LAWS_TRIALS, "seed": k})
    ops.append({"model": ops[0]["model"], "trials": DEEP_TRIALS, "seed": LAWS_SEEDS_PER_MODEL})
    for op in ops:
        op["check"] = {"kind": "laws", "trials": op["trials"]}
    return ops
