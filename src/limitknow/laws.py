"""Executable soundness battery for the proof system.

Every axiom schema and inference rule of the logic is checked on randomly
instantiated formulas over a given model. Schema metavariables range over
arbitrary extensions, so each trial injects fresh propositions valued at
random world sets alongside shallow random formulas. Any failure signals an
implementation bug, never an open question: the system is sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .logic import (
    BOT,
    TOP,
    And,
    BelievesVia,
    Common,
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
    check,
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

Schema = Callable[[str, Sequence[Formula]], Formula]

AXIOMS: dict[str, Schema] = {
    "ax_R": lambda i, f: Iff(Reason(i, f[0]), Reason(i, Reason(i, f[0]))),
    "ax_I1": lambda i, f: Indicates(i, f[0], f[0]),
    "ax_I2": lambda i, f: Imp(
        Indicates(i, f[0], Indicates(i, f[0], f[1])), Indicates(i, f[0], f[1])
    ),
    "ax_I3": lambda i, f: Imp(
        Indicates(i, Reason(i, f[0]), f[1]), Indicates(i, f[0], f[1])
    ),
    "ax_I4": lambda i, f: Imp(
        Indicates(i, f[0], f[1]), Indicates(i, f[0], Reason(i, And(f[0], f[1])))
    ),
    "ax_I5": lambda i, f: Imp(
        And(Indicates(i, f[0], f[1]), Indicates(i, And(f[0], f[1]), f[2])),
        Indicates(i, f[0], f[2]),
    ),
    "ax_I6": lambda i, f: Imp(
        And(Indicates(i, f[0], f[1]), Indicates(i, f[0], Imp(f[1], f[2]))),
        Indicates(i, f[0], f[2]),
    ),
    "ax_B1": lambda i, f: Iff(
        BelievesVia(i, f[0], f[1]), And(Reason(i, f[0]), Indicates(i, f[0], f[1]))
    ),
    "ax_B2": lambda i, f: Imp(BelievesVia(i, f[0], f[1]), Reason(i, And(f[0], f[1]))),
    "ax_S1": lambda i, f: Imp(
        And(f[0], BelievesVia(i, f[0], f[1])), TrueReason(i, f[1])
    ),
    "ax_S2": lambda i, f: Imp(TrueReason(i, f[0]), f[0]),
    "ax_S3": lambda i, f: Iff(TrueReason(i, f[0]), TrueReason(i, TrueReason(i, f[0]))),
    "ax_S4": lambda i, f: Iff(
        And(TrueReason(i, f[0]), TrueReason(i, f[1])), TrueReason(i, And(f[0], f[1]))
    ),
    "ax_G1": lambda i, f: Imp(Generates(f[0], f[1]), BelievesVia(i, f[0], f[1])),
    "ax_G2": lambda i, f: Imp(
        Generates(f[0], f[1]), BelievesVia(i, f[0], Generates(f[0], f[1]))
    ),
    "ax_C1": lambda i, f: Imp(Common(f[0]), f[0]),
    "ax_C2": lambda i, f: Imp(Common(f[0]), TrueReason(i, Common(f[0]))),
}

# Pre-theoretic consequences checked alongside the axioms: belief via a fixed
# witness is closed under modus ponens and conjunction, so is indication, and
# belief from a true witness reflects and is truthful.
DERIVED: dict[str, Schema] = {
    "derived_b_mp": lambda i, f: Imp(
        And(BelievesVia(i, f[0], f[1]), BelievesVia(i, f[0], Imp(f[1], f[2]))),
        BelievesVia(i, f[0], f[2]),
    ),
    "derived_b_conj": lambda i, f: Imp(
        And(BelievesVia(i, f[0], f[1]), BelievesVia(i, f[0], f[2])),
        BelievesVia(i, f[0], And(f[1], f[2])),
    ),
    "derived_i_conj": lambda i, f: Imp(
        And(Indicates(i, f[0], f[1]), Indicates(i, f[0], f[2])),
        Indicates(i, f[0], And(f[1], f[2])),
    ),
    "derived_b_reflection": lambda i, f: Imp(
        BelievesVia(i, f[0], BelievesVia(i, f[0], f[1])), BelievesVia(i, f[0], f[1])
    ),
    "derived_b_truth": lambda i, f: Imp(
        And(f[0], BelievesVia(i, f[0], f[1])), f[1]
    ),
}

RULE_NAMES = ("rule_R", "rule_I", "rule_G", "rule_C")

ALL_LAW_NAMES = tuple(AXIOMS) + tuple(DERIVED) + RULE_NAMES


# ---------------------------------------------------------------------------
# random instantiation

_KINDS = ("not", "and", "or", "imp", "iff", "R", "S", "I", "B", "G", "C")
# Given as running sums so that no draw sums the weights again; the draws are
# those ``weights=`` makes with the same weights.
_CUM_WEIGHTS = tuple(accumulate((10, 12, 12, 10, 6, 8, 8, 6, 6, 3, 3)))
_INJECTED = tuple(f"_m{k}" for k in range(4))


def _random_formula(
    rng: random.Random, pool: Sequence[Formula], agents: Sequence[str], depth: int
) -> Formula:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        leaf = rng.randrange(len(pool) + 2)
        if leaf == len(pool):
            return TOP
        if leaf == len(pool) + 1:
            return BOT
        return pool[leaf]
    sub = lambda: _random_formula(rng, pool, agents, depth - 1)
    kind = rng.choices(_KINDS, cum_weights=_CUM_WEIGHTS)[0]
    if kind == "not":
        return Not(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "imp":
        return Imp(sub(), sub())
    if kind == "iff":
        return Iff(sub(), sub())
    agent = rng.choice(agents)
    if kind == "R":
        return Reason(agent, sub())
    if kind == "S":
        return TrueReason(agent, sub())
    if kind == "I":
        return Indicates(agent, sub(), sub())
    if kind == "B":
        return BelievesVia(agent, sub(), sub())
    if kind == "G":
        return Generates(sub(), sub())
    return Common(sub())


def _trial_setup(model: Model, rng: random.Random) -> Model:
    """The model with the injected propositions ``_m0``-``_m3`` valued at
    fresh random world sets."""
    universe = model.frame.universe
    injected = {p: rng.randrange(universe + 1) for p in _INJECTED}
    return model.with_valuation({**model.valuation, **injected})


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
# rule checks


def _rule_instance(
    name: str,
    model: Model,
    trial_model: Model,
    rng: random.Random,
    pool: Sequence[Formula],
    agents: Sequence[str],
    k: int,
) -> tuple[list[Formula], Formula, Model]:
    """Premises and conclusion for one rule trial.

    One variant in three is built to have provably valid premises (a valid
    formula for the premise-only rules, a semantically constructed fixed
    point for the rules with side conditions) so every rule is exercised
    non-vacuously; the rest are random and usually vacuous.
    """
    mv = lambda: _metavariable(rng, pool, agents)
    universe = model.frame.universe

    def premise_candidate(variant: int) -> Formula:
        if variant == 0:
            return TOP
        if variant == 1:
            g = mv()
            return Imp(g, g)  # a guaranteed-valid premise
        return mv()

    if name == "rule_R":
        f = premise_candidate(k % 3)
        i = rng.choice(agents)
        return [f], Reason(i, f), trial_model

    if name == "rule_I":
        f2 = premise_candidate(k % 3)
        i = rng.choice(agents)
        return [f2], Indicates(i, mv(), f2), trial_model

    if name == "rule_G":
        variant = k % 3
        if variant == 0:
            # A generated-knowledge extension satisfies both premises exactly.
            w_mask = rng.randrange(universe + 1)
            p_mask = rng.randrange(universe + 1)
            ctx = trial_model.context
            g_mask = ctx.generates(w_mask, p_mask)
            bound = trial_model.with_valuation(
                {**trial_model.valuation, "_w": w_mask, "_p": p_mask, "_g": g_mask}
            )
            f1, f2, f3 = Prop("_w"), Prop("_p"), Prop("_g")
            trial_model = bound
        elif variant == 1:
            f1, f2, f3 = mv(), mv(), BOT
        else:
            f1, f2, f3 = mv(), mv(), mv()
        premises = [
            Imp(f3, _conj_over_agents(agents, lambda a: BelievesVia(a, f1, f3))),
            Imp(f3, _conj_over_agents(agents, lambda a: BelievesVia(a, f1, f2))),
        ]
        return premises, Imp(f3, Generates(f1, f2)), trial_model

    variant = k % 3
    if variant == 0:
        p_mask = rng.randrange(universe + 1)
        c_mask = trial_model.context.common(p_mask)
        bound = trial_model.with_valuation(
            {**trial_model.valuation, "_p": p_mask, "_c": c_mask}
        )
        f1, f2 = Prop("_c"), Prop("_p")
        trial_model = bound
    elif variant == 1:
        f1, f2 = BOT, mv()
    else:
        f1, f2 = mv(), mv()
    premises = [
        Imp(f1, _conj_over_agents(agents, lambda a: TrueReason(a, f1))),
        Imp(f1, f2),
    ]
    return premises, Imp(f1, Common(f2)), trial_model


# ---------------------------------------------------------------------------
# the battery


def law_battery(model: Model, trials: int = 20, seed: int = 0) -> LawReport:
    """Check every axiom schema, inference rule, and derived rule on random
    instantiations over the model. Per-trial seeds are derived from the law
    name and trial index, so reports are reproducible regardless of the order
    laws are run in.
    """
    results: list[LawResult] = []
    # Every trial model binds the same names in the same order: the model's
    # own, then those of the injected ones it does not already bind.
    pool = [Prop(p) for p in {**model.valuation, **dict.fromkeys(_INJECTED)}]
    agents = [a.name for a in model.frame.agents]

    for name, build in {**AXIOMS, **DERIVED}.items():
        failures: list[LawFailure] = []
        for k in range(trials):
            rng = random.Random(f"{seed}:{name}:{k}")
            trial_model = _trial_setup(model, rng)
            i = rng.choice(agents)
            fs = [_metavariable(rng, pool, agents) for _ in range(3)]
            inst = build(i, fs)
            res = check(trial_model, inst)
            if not res.valid:
                failures.append(LawFailure(print_formula(inst), res.counterexamples))
        results.append(LawResult(name, trials, trials, tuple(failures)))

    for name in RULE_NAMES:
        failures = []
        informative = 0
        for k in range(trials):
            rng = random.Random(f"{seed}:{name}:{k}")
            trial_model = _trial_setup(model, rng)
            premises, conclusion, bound_model = _rule_instance(
                name, model, trial_model, rng, pool, agents, k
            )
            if all(check(bound_model, p).valid for p in premises):
                informative += 1
                res = check(bound_model, conclusion)
                if not res.valid:
                    failures.append(
                        LawFailure(print_formula(conclusion), res.counterexamples)
                    )
        results.append(LawResult(name, trials, informative, tuple(failures)))

    return LawReport(tuple(results))
