"""The soundness battery as a regression suite over the whole engine."""

import functools
import hashlib
import itertools
import random
import re
import types

import pytest

from limitknow import laws
from limitknow.frame import AgentSpec, Frame, submasks
from limitknow.laws import ALL_LAW_NAMES, AXIOMS, DERIVED, law_battery
from limitknow.logic import (
    BelievesVia,
    Bot,
    Common,
    EvalError,
    Formula,
    Generates,
    Imp,
    Model,
    Prop,
    Top,
    TrueReason,
    _Evaluator,
    check,
    print_formula,
)
from limitknow.operators import OperatorContext
from randgen import (
    all_valid_bases,
    height,
    oracle_law_battery,
    random_frame,
    up_to_renaming,
)


def test_battery_reports_every_law(chain_model):
    report = law_battery(chain_model, trials=5, seed=0)
    assert tuple(r.name for r in report.results) == ALL_LAW_NAMES
    assert len(ALL_LAW_NAMES) == 17 + 4 + 5


def test_battery_is_clean_on_fixture(chain_model):
    report = law_battery(chain_model, trials=25, seed=3)
    assert report.ok, [
        (r.name, f.instantiation, f.counterexamples)
        for r in report.results
        for f in r.failures
    ]


def test_battery_is_clean_on_random_frames():
    rng = random.Random(30)
    for _ in range(6):
        frame = random_frame(rng, max_worlds=4)
        model = Model(frame, {"p": rng.randint(0, frame.universe)})
        report = law_battery(model, trials=8, seed=rng.randint(0, 999))
        assert report.ok, [
            (r.name, f.instantiation) for r in report.results for f in r.failures
        ]


def test_rules_are_exercised_non_vacuously(chain_model):
    report = law_battery(chain_model, trials=9, seed=1)
    by_name = {r.name: r for r in report.results}
    for rule in ("rule_R", "rule_I", "rule_G", "rule_C"):
        assert by_name[rule].informative >= 3


def test_battery_reports_failures_of_a_broken_operator(chain_model, monkeypatch):
    # S that holds everywhere breaks truthfulness (ax_S2) and nothing else
    # the battery draws on this model at 4 trials.
    monkeypatch.setattr(OperatorContext, "true_reason", lambda self, agent, p: self.frame.universe)
    report = law_battery(chain_model, trials=4)
    failing = [r for r in report.results if not r.ok]
    assert [r.name for r in failing] == ["ax_S2"]
    assert not report.ok and report.total_failures == len(failing[0].failures) == 4
    assert failing[0].failures[0] == laws.LawFailure("S[a] _m1 -> _m1", ("z",))


def test_indication_reflexivity_instance(chain_model):
    inst = AXIOMS["ax_I1"]("a", Prop("p"))
    assert check(chain_model, inst).valid


def test_reports_are_reproducible(chain_model):
    a = law_battery(chain_model, trials=6, seed=42)
    b = law_battery(chain_model, trials=6, seed=42)
    assert a == b


# The instances the battery checked on tests/fixtures/model3.json for seeds
# 0-2 at 6 trials, as recorded when each law first drew its trials from one
# stream and its world sets by ``getrandbits``.
PINNED_RECORDS = 555
PINNED_DIGEST = "27151da508ad9f4e90058763923b4cb9e3c645830a09d0a56349bf02b156ee7b"


def record_trials(monkeypatch):
    """Make the battery's trial evaluators record their trials, in the order
    the battery runs them, into the list returned: per trial its valuation
    and, for each premise and conclusion checked, the formula, the sorted
    valuation and the verdict."""
    trials = []

    def recording_evaluator(ctx, valuation):
        # The battery calls a trial evaluator's ``go`` on each premise and
        # conclusion it checks; the inner evaluator recurses on itself.
        ev = _Evaluator(ctx, valuation)
        checked = []
        trials.append((valuation, checked))

        def go(f):
            ext = ev.go(f)
            valid = not ctx.universe & ~ext
            checked.append("|".join(map(str, (print_formula(f), sorted(valuation.items()), valid))))
            return ext

        return types.SimpleNamespace(go=go)

    monkeypatch.setattr(laws, "_Evaluator", recording_evaluator)
    return trials


def test_battery_draws_are_pinned(chain_model, monkeypatch):
    trials = record_trials(monkeypatch)
    for seed in range(3):
        law_battery(chain_model, trials=6, seed=seed)
    records = [r for _, checked in trials for r in checked]
    assert len(records) == PINNED_RECORDS
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == PINNED_DIGEST


def test_a_shorter_battery_checks_the_first_instances_of_a_longer_one(chain_model, monkeypatch):
    trials = record_trials(monkeypatch)
    law_battery(chain_model, trials=3, seed=5)
    short = trials[:]
    trials.clear()
    law_battery(chain_model, trials=7, seed=5)
    assert len(short) == 3 * len(ALL_LAW_NAMES) and len(trials) == 7 * len(ALL_LAW_NAMES)
    for j, name in enumerate(ALL_LAW_NAMES):
        assert short[3 * j : 3 * j + 3] == trials[7 * j : 7 * j + 3], name


def test_a_law_result_does_not_depend_on_the_other_laws_or_their_order(chain_model, monkeypatch):
    # With S holding everywhere ax_S2 fails, so its failures are compared too.
    monkeypatch.setattr(OperatorContext, "true_reason", lambda self, agent, p: self.frame.universe)
    forward = law_battery(chain_model, trials=6, seed=8)
    assert forward.total_failures > 0
    every = laws.LAWS
    monkeypatch.setattr(laws, "LAWS", dict(reversed(every.items())))
    backward = law_battery(chain_model, trials=6, seed=8)
    assert backward.results == forward.results[::-1]
    for result in forward.results:
        monkeypatch.setattr(laws, "LAWS", {result.name: every[result.name]})
        assert law_battery(chain_model, trials=6, seed=8).results == (result,)


def test_drawn_world_sets_stay_in_the_universe_and_reach_every_subset(chain_model, monkeypatch):
    # Three worlds: the injected masks are 3-bit draws, and so are the masks
    # that rules G and C draw for their fixed-point variant.
    trials = record_trials(monkeypatch)
    law_battery(chain_model, trials=9, seed=0)
    assert {valuation[p] for valuation, _ in trials for p in laws._INJECTED} == set(range(8))
    drawn = {valuation[p] for valuation, _ in trials for p in ("_w", "_p") if p in valuation}
    assert drawn and drawn <= set(range(8))


def test_the_battery_builds_no_model(chain_model, monkeypatch):
    # A trial is a valuation on the model's context; nine trials reach the
    # variant of rules G and C that binds operator results.
    built = []
    init = Model.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Model, "__init__", counting_init)
    assert law_battery(chain_model, trials=9, seed=2).ok
    assert built == []


@pytest.mark.parametrize("broken", [False, True], ids=["sound", "true-reason-everywhere"])
def test_battery_matches_the_oracle_on_random_frames(monkeypatch, broken):
    # With S holding everywhere some laws fail, so failures and their
    # counterexample names are compared too. Some models bind names that the
    # battery injects or that rules G and C bind, which each trial rebinds.
    if broken:
        monkeypatch.setattr(
            OperatorContext, "true_reason", lambda self, agent, p: self.frame.universe
        )
    rng = random.Random(23)
    failures = 0
    for trials in (1, 3, 7):
        for names in (("p",), ("_m2", "p"), ("_p", "_c", "q")):
            frame = random_frame(rng, max_worlds=5)
            model = Model(frame, {n: rng.randint(0, frame.universe) for n in names})
            seed = rng.randint(0, 999)
            report = law_battery(model, trials, seed)
            assert report == oracle_law_battery(model, trials, seed), (trials, names, seed)
            failures += report.total_failures
    assert (failures > 0) == broken


def test_schema_instances_share_repeated_subformulas():
    # With distinct metavariables, two equal non-leaf nodes can only be a
    # subformula the schema builds twice; evaluate's memo is keyed on node
    # identity, so it would compute that subformula twice.
    metavariables = [Prop("p"), Prop("q"), Prop("r")]
    for name, build in {**AXIOMS, **DERIVED}.items():
        nodes = {}
        stack = [instance(build, "a", metavariables)]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(c for c in vars(node).values() if isinstance(c, Formula))
        inner = [n for n in nodes.values() if not isinstance(n, (Prop, Top, Bot))]
        assert len(set(inner)) == len(inner), name


def test_kind_draw_matches_choices():
    # At depth 1 a formula that is not a leaf shows its kind at the top; the
    # same state must draw that kind through Random.choices. Compared on
    # 2,000 states that reach the kind draw.
    pool = [Prop("p"), Prop("q")]
    seen = []
    rng = random.Random()
    k = 0
    while len(seen) < 2000:
        rng.seed(f"kinds:{k}")
        k += 1
        state = rng.getstate()
        drawn = laws._random_formula(rng, pool, ["a", "b"], 1)
        rng.setstate(state)
        if rng.random() < 0.45:
            continue
        kind = rng.choices(laws._KINDS, cum_weights=laws._CUM_WEIGHTS)[0]
        assert type(drawn) is kind, k
        seen.append(kind)
    assert set(seen) == set(laws._KINDS)


@pytest.mark.parametrize("trials", [0, -3, True, "3", 1.5])
def test_the_battery_needs_at_least_one_trial(chain_model, trials):
    with pytest.raises(EvalError, match=f"at least one trial, not {trials!r}$"):
        law_battery(chain_model, trials=trials)


@pytest.mark.parametrize("seed", [None, "1", 1.0, [1], True])
def test_the_battery_needs_an_int_seed(chain_model, seed):
    # A seed goes into each law's seed string, where "1" would draw what 1 draws.
    with pytest.raises(EvalError, match=re.escape(f"seed must be an int, not {seed!r}") + "$"):
        law_battery(chain_model, trials=1, seed=seed)


# ---------------------------------------------------------------------------
# every axiom and derived law on every small frame

METAVARIABLES = [Prop("_f0"), Prop("_f1"), Prop("_f2")]


def instance(build, agent, metavariables=METAVARIABLES):
    """The schema at the agent and the first metavariables, one for each
    parameter after the agent."""
    return build(agent, *metavariables[: build.__code__.co_argcount - 1])


def used_metavariables(schema):
    """The metavariables that a schema instance mentions, in order."""
    seen, stack = set(), [schema]
    while stack:
        node = stack.pop()
        seen.add(node)
        stack.extend(c for c in vars(node).values() if isinstance(c, Formula))
    return [p.name for p in METAVARIABLES if p in seen]


SCHEMAS = {**AXIOMS, **DERIVED}


@pytest.mark.parametrize("name, build", SCHEMAS.items(), ids=list(SCHEMAS))
def test_a_schema_trial_draws_the_metavariables_up_to_the_last_it_reads(
    chain_model, monkeypatch, name, build
):
    # A schema names the metavariables it reads: one parameter each after the
    # agent, and an instance reads every one of them.
    expected = build.__code__.co_argcount - 1
    assert used_metavariables(instance(build, "a")) == [p.name for p in METAVARIABLES[:expected]]
    drawn = []
    metavariable = laws._metavariable
    monkeypatch.setattr(laws, "_metavariable", lambda *a: drawn.append(a) or metavariable(*a))
    pool, agents = [Prop("p"), Prop("_m0")], ["a"]
    for k in range(5):
        drawn.clear()
        rng = random.Random(k)
        laws.LAWS[name](chain_model.context, chain_model.valuation, rng, pool, agents, k)
        assert len(drawn) == expected


def at_tolerances(n_worlds, bases, tolerances):
    """The frame of these agent bases at every vector of the given
    tolerances, leaving out those above an agent's height: past the height a
    tolerance changes no operator."""
    names = [f"w{i}" for i in range(n_worlds)]
    base = Frame(names, [AgentSpec(a, b, 0) for a, b in zip("ab", bases)])
    caps = [[t for t in tolerances if t <= height(base.topology(a.name))] for a in base.agents]
    return [base.with_tolerances(dict(zip("ab", v))) for v in itertools.product(*caps)]


def every_frame(worlds, n_agents, tolerances):
    """Every frame of n agents over each number of worlds, up to renaming the
    worlds and reordering the agents, at the given tolerances."""
    return [
        frame
        for n in worlds
        for bases in up_to_renaming(n, itertools.product(all_valid_bases(n), repeat=n_agents))
        for frame in at_tolerances(n, bases, tolerances)
    ]


def sampled_two_agent_frames():
    """A seeded sample of two-agent 3-world frames, at tolerances 0-2."""
    rng = random.Random(18)
    pairs = up_to_renaming(3, itertools.product(all_valid_bases(3), repeat=2))
    return [rng.choice(at_tolerances(3, bases, range(3))) for bases in rng.sample(pairs, 10)]


def check_every_schema(frames, schemas=SCHEMAS):
    """Check each axiom and derived law for every agent on every assignment
    of world sets to the metavariables it uses (a schema is valid on a frame
    exactly when it holds on all of them); count the frames and checks."""
    checks = 0
    for frame in frames:
        ctx = OperatorContext(frame)
        sets = list(submasks(frame.universe))
        for name, build in schemas.items():
            for agent in frame.agents:
                schema = instance(build, agent.name)
                used = used_metavariables(schema)
                for values in itertools.product(sets, repeat=len(used)):
                    extension = _Evaluator(ctx, dict(zip(used, values))).go(schema)
                    assert extension == frame.universe, (name, agent.name, frame, values)
                    checks += 1
    return len(frames), checks


# Split so that each case stays within a few seconds; the tolerance caps and
# the renaming leave every case exhaustive but the sample.
@pytest.mark.parametrize(
    "frames, counts",
    [
        (lambda: every_frame((1, 2, 3), 1, (0,)), (27, 75040)),
        (lambda: every_frame((1, 2, 3), 1, (1,)), (27, 75040)),
        (lambda: every_frame((1, 2, 3), 1, (2, 3)), (13, 40264)),
        (lambda: every_frame((1, 2), 2, range(3)), (64, 63168)),
        (sampled_two_agent_frames, (10, 66240)),
    ],
    ids=["one-agent-tolerance-0", "one-agent-tolerance-1", "one-agent-tolerance-2-3",
         "two-agents-up-to-2-worlds", "two-agents-3-world-sample"],
)
def test_every_schema_holds_on_every_assignment(frames, counts):
    assert check_every_schema(frames()) == counts


def rule_schemas(agents):
    """``rule_G`` and ``rule_C`` over the metavariables, as the battery
    builds them: each rule's premises and its conclusion."""
    w, p, g = METAVARIABLES
    every = lambda make: laws._conj_over_agents(agents, make)
    return {
        "rule_G": (
            [Imp(g, every(lambda a: BelievesVia(a, w, g))), Imp(g, every(lambda a: BelievesVia(a, w, p)))],
            Imp(g, Generates(w, p)),
        ),
        "rule_C": ([Imp(w, every(lambda a: TrueReason(a, w))), Imp(w, p)], Imp(w, Common(p))),
    }


def check_rules(frames):
    """Check ``rule_G`` and ``rule_C`` on every assignment of world sets to
    their metavariables: where the premises hold at every world, so must the
    conclusion. Count the frames, the assignments, and those whose premises
    hold. The rules stay alive while their evaluator runs: its memo is keyed
    on the ids of the nodes."""
    checks = held = 0
    for frame in frames:
        ctx = OperatorContext(frame)
        sets = list(submasks(frame.universe))
        for name, (premises, conclusion) in rule_schemas([a.name for a in frame.agents]).items():
            used = used_metavariables(conclusion)
            for values in itertools.product(sets, repeat=len(used)):
                evaluator = _Evaluator(ctx, dict(zip(used, values)))
                checks += 1
                if all(evaluator.go(f) == frame.universe for f in premises):
                    held += 1
                    assert evaluator.go(conclusion) == frame.universe, (name, frame, values)
    return len(frames), checks, held


G_AND_C = {name: AXIOMS[name] for name in ("ax_G1", "ax_G2", "ax_C1", "ax_C2")}


@pytest.mark.parametrize(
    "frames, counts",
    [
        (lambda: every_frame((1, 2, 3), 1, range(4)), (67, 33000, 6772)),
        (lambda: every_frame((1, 2), 2, range(3)), (64, 4848, 1652)),
        (sampled_two_agent_frames, (10, 5760, 1098)),
    ],
    ids=["one-agent", "two-agents-up-to-2-worlds", "two-agents-3-world-sample"],
)
def test_rules_G_and_C_hold_on_every_assignment(frames, counts):
    assert check_rules(frames()) == counts


@functools.cache
def two_agent_3_world_frames():
    return every_frame((3,), 2, range(3))


# Every eighth frame of the full set per case, so that each case stays
# within a few seconds; a frame takes 288 schema checks and 576 rule checks.
@pytest.mark.parametrize(
    "part, held",
    enumerate([44712, 44812, 44884, 44766, 44798, 44612, 44374, 44452]),
)
def test_G_and_C_hold_on_every_two_agent_3_world_frame(part, held):
    assert len(two_agent_3_world_frames()) == 3603  # up to renaming
    frames = two_agent_3_world_frames()[part::8]
    assert check_every_schema(frames, G_AND_C) == (len(frames), 288 * len(frames))
    assert check_rules(frames) == (len(frames), 576 * len(frames), held)
