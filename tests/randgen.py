"""Shared test helpers: random valid frames, the 3-world chain frame, warm
operator contexts, random formulas that share subtrees, exhaustive basis
enumeration, JSON document edits, and independent brute-force oracles for
ranks, switching counts, limit verdicts, common knowledge and its round
loops, witness searches, formula evaluation and the law battery, the blocks
of joined T0 classes, staircase frames whose fixed points take many rounds,
and opposed chains."""

from __future__ import annotations

import itertools
import json
import random

from limitknow.frame import (
    AgentSpec,
    Frame,
    FrameError,
    Topology,
    bits,
    submasks,
    validate_basis,
)
from limitknow.hierarchy import (
    INFINITE,
    Verdict,
    _levels,
    limit_yes_set,
    max_switches,
)
from limitknow.laws import _INJECTED, LAWS, LawFailure, LawReport, LawResult
from limitknow.logic import (
    BOT,
    TOP,
    And,
    BelievesVia,
    Bot,
    Common,
    EvalError,
    Formula,
    Generates,
    Iff,
    Imp,
    Indicates,
    Model,
    Not,
    Or,
    Prop,
    Reason,
    Top,
    TrueReason,
    check,
    print_formula,
)
from limitknow.operators import OperatorContext


def oracle_bits(mask: int):
    """Set bit positions of ``mask``, lowest first, one shift per member."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def close_under_meets(elements: set[int]) -> set[int]:
    """Close a family under non-empty pairwise intersection; the result is
    locally directed at every world."""
    out = set(elements)
    frontier = set(elements)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in out:
                m = a & b
                if m and m not in out:
                    fresh.add(m)
        out |= fresh
        frontier = fresh
    return out


def random_basis(rng: random.Random, n_worlds: int, max_seeds: int = 4) -> tuple[int, ...]:
    """A random valid basis: random seed sets closed under meets, with the
    universe added when cover fails (or, usually, from the start)."""
    universe = (1 << n_worlds) - 1
    elements: set[int] = set()
    if rng.random() < 0.7:
        elements.add(universe)
    for _ in range(rng.randint(1, max_seeds)):
        elements.add(rng.randint(1, universe))
    elements = close_under_meets(elements)
    covered = 0
    for e in elements:
        covered |= e
    if covered != universe:
        elements.add(universe)
    basis = tuple(sorted(elements))
    assert validate_basis(basis, universe).ok
    return basis


def subspace_basis(basis: tuple[int, ...], evidence: int) -> tuple[int, ...]:
    """Restrict a basis to the elements contained in ``evidence``, which must
    itself be a basis element; the result is then a valid basis over
    ``evidence`` (cover follows from directedness)."""
    if evidence not in basis:
        raise FrameError("subspace root is not a basis element")
    return tuple(e for e in basis if e & ~evidence == 0)


def random_frame(
    rng: random.Random,
    max_worlds: int = 6,
    max_agents: int = 3,
    max_tolerance: int = 3,
    require_start: bool = False,
) -> Frame:
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    agents = []
    for k in range(rng.randint(1, max_agents)):
        basis = random_basis(rng, n)
        if require_start and (1 << n) - 1 not in basis:
            basis = tuple(sorted(set(basis) | {(1 << n) - 1}))
        agents.append(AgentSpec(f"a{k}", basis, rng.randint(0, max_tolerance)))
    return Frame(worlds, agents)


def sierpinski_frame(tolerance: int = 1) -> Frame:
    """Worlds u, v; agent ``a`` has the basis ``{u}``, ``{u, v}``."""
    return Frame(["u", "v"], [AgentSpec("a", (0b01, 0b11), tolerance)])


CHAIN = (0b111, 0b110, 0b100)  # {x,y,z}, {y,z}, {z}


def chain_frame(tolerance: int = 1, agents=("a", "b")) -> Frame:
    """Worlds x, y, z, and the basis ``CHAIN`` for each agent."""
    return Frame(["x", "y", "z"], [AgentSpec(a, CHAIN, tolerance) for a in agents])


def warm(ctx: OperatorContext) -> OperatorContext:
    """Fill every cache of agent a with answers for the exact ints 1 and
    0b110, which ``True`` and ``1.0`` equal."""
    for w_set in (1, 0b110):
        ctx.supporting_evidence("a", w_set)
        ctx.reason("a", w_set)
        ctx.indicates("a", w_set, w_set)
        ctx.believes_via("a", w_set, w_set)
        ctx.true_reason("a", w_set)
        ctx.generates(w_set, w_set)
        ctx.common(w_set)
    return ctx


_UNARY = (Not, Common)
_BINARY = (And, Or, Imp, Iff, Generates)
_MODAL = (Reason, TrueReason)
_MODAL_WITNESS = (Indicates, BelievesVia)


def random_shared_formula(
    rng: random.Random, props: list[str], agents: list[str], nodes: int = 12
) -> Formula:
    """A random formula built bottom-up from ``nodes`` constructors whose
    children are drawn from every node built so far, so subtrees are shared
    by several parents (the same objects, not equal copies)."""
    built: list[Formula] = [TOP, BOT] + [Prop(p) for p in props]
    pick = lambda: rng.choice(built)
    for _ in range(nodes):
        kind = rng.randrange(4)
        if kind == 0:
            node = rng.choice(_UNARY)(pick())
        elif kind == 1:
            node = rng.choice(_BINARY)(pick(), pick())
        elif kind == 2:
            node = rng.choice(_MODAL)(rng.choice(agents), pick())
        else:
            node = rng.choice(_MODAL_WITNESS)(rng.choice(agents), pick(), pick())
        built.append(node)
    return built[-1]


def all_valid_bases(n_worlds: int, max_elements: int | None = None) -> list[tuple[int, ...]]:
    """Every valid basis over n worlds (optionally capped in size)."""
    universe = (1 << n_worlds) - 1
    atoms = list(range(1, universe + 1))
    out = []
    for size in range(1, (max_elements or len(atoms)) + 1):
        for family in itertools.combinations(atoms, size):
            if validate_basis(family, universe).ok:
                out.append(tuple(family))
    return out


def height(topology: Topology) -> int:
    """The longest strict chain of distinct minimal neighborhoods."""
    longest = {}
    for n in sorted(set(topology.neighborhoods), key=int.bit_count):
        longest[n] = 1 + max([k for m, k in longest.items() if n & m == m], default=0)
    return max(longest.values())


def up_to_renaming(n_worlds: int, families) -> list[tuple[tuple[int, ...], ...]]:
    """One tuple of agent bases over n worlds from each class under renaming
    the worlds and reordering the agents, in the order ``families`` gives."""
    perms = list(itertools.permutations(range(n_worlds)))

    def renamed(basis, perm):
        return tuple(sorted([sum([1 << perm[i] for i in bits(e)]) for e in basis]))

    kept, seen = [], set()
    for bases in families:
        key = min(tuple(sorted([renamed(b, p) for b in bases])) for p in perms)
        if key not in seen:
            seen.add(key)
            kept.append(tuple(bases))
    return kept


def field_paths(document, prefix: tuple = ()):
    """The path of every value in a JSON document, the document itself first."""
    yield prefix
    if isinstance(document, (dict, list)):
        items = document.items() if isinstance(document, dict) else enumerate(document)
        for key, value in items:
            yield from field_paths(value, prefix + (key,))


def with_field(document, path: tuple, value):
    """A deep copy of a JSON document with the value at ``path`` replaced."""
    if not path:
        return value
    out = json.loads(json.dumps(document))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# ---------------------------------------------------------------------------
# independent oracles


def oracle_all_ranks(topology: Topology) -> dict[int, int]:
    """Minimum descending-open-chain length for every achievable nested
    difference, by level-by-level search over (chain head, chain value)
    pairs; sets absent from the result have no finite rank. Finite ranks
    need at most one strictly smaller open per world, so searching chain
    lengths up to the world count is complete."""
    ranks = {0: 0}
    opens = topology.opens
    level = {(o, o) for o in opens}
    for k in range(1, topology.universe.bit_count() + 1):
        for _, v in level:
            ranks.setdefault(v, k)
        level = {(o, o & ~v) for head, v in level for o in opens if head & ~o == 0}
    return ranks


def oracle_feasible_sets(frame: Frame) -> list[int]:
    """Every non-empty world set that each agent decides within tolerance
    (open rank at most tolerance + 1), with ranks from ``oracle_all_ranks``."""
    ranks = [(oracle_all_ranks(frame.topology(a.name)), a.tolerance) for a in frame.agents]
    return [
        v
        for v in submasks(frame.universe)
        if v and all(r.get(v, INFINITE) <= tolerance + 1 for r, tolerance in ranks)
    ]


def oracle_lewis_common(feasible: list[int], target: int) -> int:
    """L by definition: the union of the feasible subsets of the target, over
    all of them rather than those of the common-knowledge set."""
    out = 0
    for v in feasible:
        if v & ~target == 0:
            out |= v
    return out


def oracle_synth_success(feasible: list[int], target: int) -> int | None:
    """The success set target-free synthesis picks: the feasible subset of
    the target largest by (size, mask); None when there is none."""
    inside = [v for v in feasible if v & ~target == 0]
    return max(inside, key=lambda v: (v.bit_count(), v), default=None)


def all_methods(basis: tuple[int, ...]):
    """Every decision method on a basis, each a plain verdict map."""
    for verdicts in itertools.product((Verdict.YES, Verdict.NO), repeat=len(basis)):
        yield dict(zip(basis, verdicts))


def oracle_switches(basis: tuple[int, ...], method: dict[int, Verdict], start: Verdict) -> int:
    """``max_switches`` from a pairwise containment table over the basis
    elements: the alternation levels of the elements answering ``start`` in a
    topology over element indices, an element's neighborhood being the
    elements inside it (alternation forces strict descent)."""
    inside = [sum([1 << i for i, e2 in enumerate(basis) if e2 & ~e == 0]) for e in basis]
    starts = sum([1 << i for i, e in enumerate(basis) if method[e] == start])
    ins, _ = _levels(Topology((1 << len(basis)) - 1, tuple(inside)), starts, len(basis))
    return max(len([s for s in ins if s]) - 1, 0)


def oracle_min_switches(frame: Frame, agent: str, w_set: int) -> int | float:
    """Fewest switches over all decision methods that limit decide the set,
    where a method starting from a verdict witnesses its alternation count
    from that verdict."""
    spec = frame.agent(agent)
    universe = frame.universe
    best: int | float = INFINITE
    for method in all_methods(spec.basis):
        if limit_yes_set(method) != w_set:
            continue
        start = method[universe]
        best = min(best, max_switches(method, start))
    return best


def oracle_limit_verdicts(
    method: dict[int, Verdict], basis: tuple[int, ...]
) -> dict[int, Verdict]:
    """Settle by definition: a world settles on v when some evidence at it
    has every finer evidence at it mapped to v; worlds that settle on
    nothing are left out."""
    universe = 0
    for e in basis:
        universe |= e
    out = {}
    for w in bits(universe):
        at_w = [e for e in basis if (e >> w) & 1]
        for e in at_w:
            fixed = method[e]
            if all(method[e2] is fixed for e2 in at_w if e2 & ~e == 0):
                out[w] = fixed
                break
    return out


def topology_from_open_family(family, universe: int) -> Topology:
    """The topology generated by a family of sets closed under pairwise
    intersection at every point (so unions of members already form a
    topology), such as the open sets of an interior operator."""
    nbhd = [0] * universe.bit_length()
    for w in bits(universe):
        acc = universe
        for g in family:
            if (g >> w) & 1:
                acc &= g
        nbhd[w] = acc
    topo = Topology(universe, tuple(nbhd))
    for g in family:
        if not topo.is_open(g):
            raise FrameError("family is not point-refined; cannot generate topology")
    return topo


def common_via_interior(ctx: OperatorContext, target: int) -> int:
    """Common knowledge as the interior of the target in the meet of all
    agents' true-reason topologies, each enumerated from the agent's opens or
    its two-step-open family. Exponential; for small world counts."""
    families = []
    for a in ctx.frame.agents:
        topo = ctx.frame.topology(a.name)
        if a.tolerance > 0:
            topo = topology_from_open_family(ctx.two_open_family(a.name), ctx.universe)
        families.append(set(topo.opens))
    out = 0
    for o in set.intersection(*families):
        if o & ~target == 0:
            out |= o
    return out


def everyone_believes_via(ctx: OperatorContext, witness: int, target: int) -> int:
    """One step of everyone-believes with a shared witness: the meet of every
    agent's ``believes_via``."""
    out = ctx.universe
    for a in ctx.frame.agents:
        out &= ctx.believes_via(a.name, witness, target)
    return out


def oracle_generates(ctx: OperatorContext, witness: int, target: int) -> tuple[int, int]:
    """G as full rounds of ``everyone_believes_via``, which asks every agent
    in turn, from the whole space: ``(fixed point, rounds)``."""
    first = everyone_believes_via(ctx, witness, target)
    x, rounds = ctx.universe, 0
    while True:
        rounds += 1
        nxt = first & everyone_believes_via(ctx, witness, x)
        if nxt == x:
            return x, rounds
        x = nxt


def oracle_common(ctx: OperatorContext, target: int) -> tuple[int, int]:
    """C as full rounds of every agent's ``true_reason`` from the target:
    ``(fixed point, rounds)``."""
    x, rounds = target, 0
    while True:
        rounds += 1
        nxt = target
        for a in ctx.frame.agents:
            nxt &= ctx.true_reason(a.name, x)
        if nxt == x:
            return x, rounds
        x = nxt


def t0_blocks(frame: Frame) -> list[int]:
    """The components of the join of every agent's partition of the worlds
    into T0 classes ``K(w) = {v : N(v) = N(w)}``, as sorted masks."""
    worlds = list(bits(frame.universe))
    blocks = [1 << w for w in worlds]
    for a in frame.agents:
        least = frame.topology(a.name).neighborhoods
        for w in worlds:
            merged = sum(1 << v for v in worlds if least[v] == least[w])
            rest = []
            for b in blocks:
                if b & merged:
                    merged |= b
                else:
                    rest.append(b)
            blocks = rest + [merged]
    return sorted(blocks)


def staircase_frame(n: int, tolerances: tuple[int, int], tree: bool = False) -> Frame:
    """Two agents whose least evidence pairs the worlds with an offset of one
    (a: {0,1}, {2,3}, ...; b: {0}, {1,2}, ... over the first half of the
    worlds, then singletons), so removing world 0 from a set spreads one
    world per round of ``C`` and ``G`` through that half and stops. With
    ``tree``, each agent's leaves sit under a halving tree of unions."""
    universe = (1 << n) - 1
    a = [(3 << i) & universe for i in range(0, n, 2)]
    b = [1] + [3 << i for i in range(1, n // 2, 2)]
    b += [1 << w for w in range(sum(b).bit_length(), n)]
    bases = []
    for leaves in (a, b):
        basis = set(leaves)
        if tree:
            level = leaves
            while len(level) > 1:
                level = [level[i] | (level[i + 1] if i + 1 < len(level) else 0)
                         for i in range(0, len(level), 2)]
                basis.update(level)
        bases.append(tuple(sorted(basis)))
    return Frame(
        [f"w{i}" for i in range(n)],
        [AgentSpec(name, basis, tol) for name, basis, tol in zip("ab", bases, tolerances)],
    )


def opposed_chains_frame(n: int, tolerances: tuple[int, int]) -> Frame:
    """Two agents on nested chains that run opposite ways: a's evidence is
    every suffix of the worlds, b's every prefix."""
    universe = (1 << n) - 1
    suffixes = tuple(sorted(universe & ~((1 << k) - 1) for k in range(n)))
    prefixes = tuple((1 << k) - 1 for k in range(1, n + 1))
    return Frame(
        [f"w{i}" for i in range(n)],
        [AgentSpec(name, basis, tol)
         for name, basis, tol in zip("ab", (suffixes, prefixes), tolerances)],
    )


def oracle_evaluate(model: Model, f: Formula) -> int:
    """The extension of a formula by plain recursion over the tree, with no
    memo: every occurrence of a shared subtree is evaluated again. Children
    are evaluated left to right and a modality's agent is checked first."""
    ctx, universe = model.context, model.frame.universe
    agents = {a.name for a in model.frame.agents}
    go = lambda g: oracle_evaluate(model, g)

    def agent(name: str) -> str:
        if name not in agents:
            raise EvalError(f"unknown agent {name!r}")
        return name

    if isinstance(f, Prop):
        if f.name not in model.valuation:
            raise EvalError(f"unbound proposition {f.name!r}")
        return model.valuation[f.name]
    if isinstance(f, Top):
        return universe
    if isinstance(f, Bot):
        return 0
    if isinstance(f, Not):
        return universe & ~go(f.body)
    if isinstance(f, And):
        return go(f.left) & go(f.right)
    if isinstance(f, Or):
        return go(f.left) | go(f.right)
    if isinstance(f, Imp):
        return (universe & ~go(f.left)) | go(f.right)
    if isinstance(f, Iff):
        return universe & ~(go(f.left) ^ go(f.right))
    if isinstance(f, Reason):
        return ctx.reason(agent(f.agent), go(f.body))
    if isinstance(f, TrueReason):
        return ctx.true_reason(agent(f.agent), go(f.body))
    if isinstance(f, Indicates):
        return ctx.indicates(agent(f.agent), go(f.witness), go(f.body))
    if isinstance(f, BelievesVia):
        return ctx.believes_via(agent(f.agent), go(f.witness), go(f.body))
    if isinstance(f, Generates):
        return ctx.generates(go(f.witness), go(f.body))
    if isinstance(f, Common):
        return ctx.common(go(f.body))
    raise TypeError(f"not a formula: {f!r}")


def oracle_law_battery(model: Model, trials: int, seed: int) -> LawReport:
    """``law_battery`` through the public API: each law's trials draw in
    order from a fresh generator seeded with ``"{seed}:{law}"``, a world set
    as ``getrandbits`` of the world count, each trial's valuation becomes a
    validated ``Model`` of the frame, and ``check`` takes every premise, then
    the conclusion when they all hold."""
    pool = [Prop(p) for p in {**model.valuation, **dict.fromkeys(_INJECTED)}]
    agents = [a.name for a in model.frame.agents]
    results = []
    for name, law in LAWS.items():
        failures, informative = [], 0
        rng = random.Random(f"{seed}:{name}")
        for k in range(trials):
            drawn = {p: rng.getrandbits(len(model.frame.worlds)) for p in _INJECTED}
            premises, conclusion, valuation = law(
                model.context, {**model.valuation, **drawn}, rng, pool, agents, k
            )
            trial = Model(model.frame, valuation)
            if all(check(trial, p).valid for p in premises):
                informative += 1
                res = check(trial, conclusion)
                if not res.valid:
                    failures.append(LawFailure(print_formula(conclusion), res.counterexamples))
        results.append(LawResult(name, trials, informative, tuple(failures)))
    return LawReport(tuple(results))
