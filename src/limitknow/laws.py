"""Executable soundness battery for the proof system.

Every axiom schema and inference rule of the logic is checked on randomly
instantiated formulas over a given model. Schema metavariables range over
arbitrary extensions, so each trial injects fresh propositions valued at
random world sets alongside shallow random formulas, all evaluated on the
model's operator context with no model built per trial. Any failure signals
an implementation bug, never an open question: the system is sound.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .frame import _is_int
from .logic import (
    BOT,
    MODALITIES,
    TOP,
    And,
    BelievesVia,
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
    TrueReason,
    _Evaluator,
    print_formula,
)


@dataclass(frozen=True)
class LawFailure:
    instantiation: str
    counterexamples: tuple[str, ...]


@dataclass(frozen=True)
class LawResult:
    name: str
    trials: int
    informative: int  # trials whose premises held (always == trials for schemas)
    failures: tuple[LawFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class LawReport:
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def total_failures(self) -> int:
        return sum(len(r.failures) for r in self.results)


# ---------------------------------------------------------------------------
# schema tables

# A schema takes the agent, then one formula per metavariable it reads.
Schema = Callable[..., Formula]

# A subformula that a schema repeats is built once and reused, so that the
# trial evaluator's memo computes it once; printing is structural, so the
# rendered instance is the same as with two equal copies.
AXIOMS: dict[str, Schema] = {
    "ax_R": lambda i, p: Iff((rp := Reason(i, p)), Reason(i, rp)),
    "ax_I1": lambda i, p: Indicates(i, p, p),
    "ax_I2": lambda i, p, q: Imp(Indicates(i, p, (ind := Indicates(i, p, q))), ind),
    "ax_I3": lambda i, p, q: Imp(Indicates(i, Reason(i, p), q), Indicates(i, p, q)),
    "ax_I4": lambda i, p, q: Imp(Indicates(i, p, q), Indicates(i, p, Reason(i, And(p, q)))),
    "ax_I5": lambda i, p, q, r: Imp(
        And(Indicates(i, p, q), Indicates(i, And(p, q), r)), Indicates(i, p, r)
    ),
    "ax_I6": lambda i, p, q, r: Imp(
        And(Indicates(i, p, q), Indicates(i, p, Imp(q, r))), Indicates(i, p, r)
    ),
    "ax_B1": lambda i, p, q: Iff(BelievesVia(i, p, q), And(Reason(i, p), Indicates(i, p, q))),
    "ax_B2": lambda i, p, q: Imp(BelievesVia(i, p, q), Reason(i, And(p, q))),
    "ax_S1": lambda i, p, q: Imp(And(p, BelievesVia(i, p, q)), TrueReason(i, q)),
    "ax_S2": lambda i, p: Imp(TrueReason(i, p), p),
    "ax_S3": lambda i, p: Iff((s := TrueReason(i, p)), TrueReason(i, s)),
    "ax_S4": lambda i, p, q: Iff(And(TrueReason(i, p), TrueReason(i, q)), TrueReason(i, And(p, q))),
    "ax_G1": lambda i, p, q: Imp(Generates(p, q), BelievesVia(i, p, q)),
    "ax_G2": lambda i, p, q: Imp((g := Generates(p, q)), BelievesVia(i, p, g)),
    "ax_C1": lambda i, p: Imp(Common(p), p),
    "ax_C2": lambda i, p: Imp((c := Common(p)), TrueReason(i, c)),
}

# Pre-theoretic consequences checked alongside the axioms: belief via a fixed
# witness is closed under modus ponens and conjunction, so is indication, and
# belief from a true witness reflects and is truthful.
DERIVED: dict[str, Schema] = {
    "derived_b_mp": lambda i, p, q, r: Imp(
        And(BelievesVia(i, p, q), BelievesVia(i, p, Imp(q, r))), BelievesVia(i, p, r)
    ),
    "derived_b_conj": lambda i, p, q, r: Imp(
        And(BelievesVia(i, p, q), BelievesVia(i, p, r)), BelievesVia(i, p, And(q, r))
    ),
    "derived_i_conj": lambda i, p, q, r: Imp(
        And(Indicates(i, p, q), Indicates(i, p, r)), Indicates(i, p, And(q, r))
    ),
    "derived_b_reflection": lambda i, p, q: Imp(BelievesVia(i, p, (b := BelievesVia(i, p, q))), b),
    "derived_b_truth": lambda i, p, q: Imp(And(p, BelievesVia(i, p, q)), q),
}

# ---------------------------------------------------------------------------
# random instantiation

_KINDS = (Not, And, Or, Imp, Iff, Reason, TrueReason, Indicates, BelievesVia, Generates, Common)
# Given as running sums so that no draw sums the weights again. A kind is
# drawn as ``Random.choices(_KINDS, cum_weights=_CUM_WEIGHTS)`` draws it: one
# ``random()`` scaled by the float total, bisected over all but the last sum.
_CUM_WEIGHTS = tuple(accumulate((10, 12, 12, 10, 6, 8, 8, 6, 6, 3, 3)))
_TOTAL_WEIGHT = float(_CUM_WEIGHTS[-1])
_LAST_KIND = len(_KINDS) - 1
_MODAL = set(MODALITIES.values())
_INJECTED = ("_m0", "_m1", "_m2", "_m3")


def _random_formula(
    rng: random.Random, pool: Sequence[Formula], agents: Sequence[str], depth: int
) -> Formula:
    # The roll is drawn even at depth 0, and every modal kind draws an agent,
    # G and C included: each draw shifts the rest of the law's stream.
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        leaf = rng.randrange(len(pool) + 2)
        if leaf == len(pool):
            return TOP
        if leaf == len(pool) + 1:
            return BOT
        return pool[leaf]
    kind = _KINDS[bisect(_CUM_WEIGHTS, rng.random() * _TOTAL_WEIGHT, 0, _LAST_KIND)]
    sub = (rng, pool, agents, depth - 1)  # the arguments of each child draw
    agent = rng.choice(agents) if kind in _MODAL else None
    args = []  # the node's fields in order: the agent, then a child per formula
    for field in kind.__match_args__:
        args.append(agent if field == "agent" else _random_formula(*sub))
    return kind(*args)


def _trial_setup(valuation: dict[str, int], worlds: int, rng: random.Random) -> dict[str, int]:
    """A copy of the model's valuation with the injected propositions
    ``_m0``-``_m3`` bound to uniform random subsets of the ``worlds`` worlds
    (so a name the model already binds keeps its position)."""
    out = valuation.copy()
    for p in _INJECTED:
        out[p] = rng.getrandbits(worlds)
    return out


def _metavariable(
    rng: random.Random, pool: Sequence[Formula], agents: Sequence[str]
) -> Formula:
    if rng.random() < 0.5:
        return rng.choice(pool)
    return _random_formula(rng, pool, agents, depth=3)


def _conj_over_agents(agents: Sequence[str], make: Callable[[str], Formula]) -> Formula:
    out = make(agents[0])
    for a in agents[1:]:
        out = And(out, make(a))
    return out


# ---------------------------------------------------------------------------
# laws
#
# A law turns one trial (the model's operator context, the trial valuation,
# the law's generator, the pool of atoms, the agent names, the trial index)
# into premises, a conclusion and the valuation to check them on. A schema is
# a law with no premises. Rules build one variant in three with provably
# valid premises (a valid formula for the premise-only rules, a semantically
# constructed fixed point for the rules with side conditions) so every rule
# is exercised non-vacuously; the rest are random and usually vacuous.

Instance = tuple[list[Formula], Formula, dict[str, int]]
Law = Callable[..., Instance]  # called with the six arguments above, in order


def _schema_law(build: Schema) -> Law:
    """A law drawing an agent, then one metavariable per parameter of the
    schema after the agent."""
    draws = build.__code__.co_argcount - 1

    def law(ctx, valuation, rng, pool, agents, k):
        i = rng.choice(agents)
        return [], build(i, *[_metavariable(rng, pool, agents) for _ in range(draws)]), valuation

    return law


def _premise_candidate(rng, pool, agents, variant: int) -> Formula:
    if variant == 0:
        return TOP
    if variant == 1:
        g = _metavariable(rng, pool, agents)
        return Imp(g, g)  # a guaranteed-valid premise
    return _metavariable(rng, pool, agents)


def _rule_R(ctx, valuation, rng, pool, agents, k) -> Instance:
    f = _premise_candidate(rng, pool, agents, k % 3)
    i = rng.choice(agents)
    return [f], Reason(i, f), valuation


def _rule_I(ctx, valuation, rng, pool, agents, k) -> Instance:
    f2 = _premise_candidate(rng, pool, agents, k % 3)
    i = rng.choice(agents)
    return [f2], Indicates(i, _metavariable(rng, pool, agents), f2), valuation


def _rule_G(ctx, valuation, rng, pool, agents, k) -> Instance:
    mv = lambda: _metavariable(rng, pool, agents)
    variant = k % 3
    if variant == 0:
        # A generated-knowledge extension satisfies both premises exactly.
        w_mask = rng.getrandbits(ctx.universe.bit_length())
        p_mask = rng.getrandbits(ctx.universe.bit_length())
        g_mask = ctx.generates(w_mask, p_mask)
        valuation = {**valuation, "_w": w_mask, "_p": p_mask, "_g": g_mask}
        f1, f2, f3 = Prop("_w"), Prop("_p"), Prop("_g")
    elif variant == 1:
        f1, f2, f3 = mv(), mv(), BOT
    else:
        f1, f2, f3 = mv(), mv(), mv()
    premises = [
        Imp(f3, _conj_over_agents(agents, lambda a: BelievesVia(a, f1, f3))),
        Imp(f3, _conj_over_agents(agents, lambda a: BelievesVia(a, f1, f2))),
    ]
    return premises, Imp(f3, Generates(f1, f2)), valuation


def _rule_C(ctx, valuation, rng, pool, agents, k) -> Instance:
    mv = lambda: _metavariable(rng, pool, agents)
    variant = k % 3
    if variant == 0:
        p_mask = rng.getrandbits(ctx.universe.bit_length())
        valuation = {**valuation, "_p": p_mask, "_c": ctx.common(p_mask)}
        f1, f2 = Prop("_c"), Prop("_p")
    elif variant == 1:
        f1, f2 = BOT, mv()
    else:
        f1, f2 = mv(), mv()
    premises = [
        Imp(f1, _conj_over_agents(agents, lambda a: TrueReason(a, f1))),
        Imp(f1, f2),
    ]
    return premises, Imp(f1, Common(f2)), valuation


RULES: dict[str, Law] = {
    "rule_R": _rule_R,
    "rule_I": _rule_I,
    "rule_G": _rule_G,
    "rule_C": _rule_C,
}
LAWS: dict[str, Law] = {
    **{name: _schema_law(build) for name, build in {**AXIOMS, **DERIVED}.items()},
    **RULES,
}
ALL_LAW_NAMES = tuple(LAWS)


# ---------------------------------------------------------------------------
# the battery


def law_battery(model: Model, trials: int = 20, seed: int = 0) -> LawReport:
    """Check every axiom schema, inference rule, and derived rule on random
    instantiations over the model. Each law draws its trials in order from
    one generator seeded with ``"{seed}:{law}"``, so t trials check the first
    t instances of any longer battery. A trial whose premises fail is not
    informative. One evaluator per trial computes a shared subformula once;
    each operator checks each operand it is handed."""
    if not _is_int(trials) or trials < 1:
        raise EvalError(f"the battery needs at least one trial, not {trials!r}")
    if not _is_int(seed):
        raise EvalError(f"the battery's seed must be an int, not {seed!r}")
    results: list[LawResult] = []
    # Every trial model binds the same names in the same order: the model's
    # own, then those of the injected ones it does not already bind.
    pool = [Prop(p) for p in {**model.valuation, **dict.fromkeys(_INJECTED)}]
    agents = [a.name for a in model.frame.agents]
    ctx, universe, worlds = model.context, model.frame.universe, len(model.frame.worlds)

    for name, law in LAWS.items():
        failures: list[LawFailure] = []
        informative = 0
        rng = random.Random(f"{seed}:{name}")  # seeding costs more than a trial's draws
        for k in range(trials):
            premises, conclusion, valuation = law(
                ctx, _trial_setup(model.valuation, worlds, rng), rng, pool, agents, k
            )
            ev = _Evaluator(ctx, valuation)
            for p in premises:
                if universe & ~ev.go(p):
                    break
            else:
                informative += 1
                missing = universe & ~ev.go(conclusion)
                if missing:
                    failures.append(
                        LawFailure(print_formula(conclusion), model.frame.names(missing))
                    )
        results.append(LawResult(name, trials, informative, tuple(failures)))

    return LawReport(tuple(results))
