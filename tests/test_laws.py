"""The soundness battery as a regression suite over the whole engine."""

import hashlib
import itertools
import json
import os
import random
import types

import pytest

from limitknow import laws
from limitknow.frame import AgentSpec, Frame, load_frame, submasks
from limitknow.laws import ALL_LAW_NAMES, AXIOMS, DERIVED, law_battery
from limitknow.logic import (
    Bot,
    EvalError,
    Formula,
    Model,
    Prop,
    Top,
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
    assert not report.ok and report.total_failures == len(failing[0].failures) == 3
    assert failing[0].failures[0] == laws.LawFailure("S[a] _m3 -> _m3", ("x", "y"))


def test_indication_reflexivity_instance(chain_model):
    inst = AXIOMS["ax_I1"]("a", [Prop("p"), Prop("p"), Prop("p")])
    assert check(chain_model, inst).valid


def test_reports_are_reproducible(chain_model):
    a = law_battery(chain_model, trials=6, seed=42)
    b = law_battery(chain_model, trials=6, seed=42)
    assert a == b


# The instances the battery checked on tests/fixtures/model3.json for seeds
# 0-2 at 6 trials, as recorded before its trial-invariant work was hoisted.
PINNED_RECORDS = 555
PINNED_DIGEST = "d65d2c11486d988920b1e37ce3ab3b10f46380a81f3574abca5603dbf996fd9a"


def test_battery_draws_are_pinned(fixtures_dir, monkeypatch):
    with open(os.path.join(fixtures_dir, "model3.json")) as fh:
        model = Model(*load_frame(json.load(fh)))
    records = []

    def recording_evaluator(ctx, valuation):
        # The battery calls a trial evaluator's ``go`` on each premise and
        # conclusion it checks; the inner evaluator recurses on itself.
        ev = _Evaluator(ctx, valuation)

        def go(f):
            ext = ev.go(f)
            valid = not ctx.universe & ~ext
            records.append("|".join(map(str, (print_formula(f), sorted(valuation.items()), valid))))
            return ext

        return types.SimpleNamespace(go=go)

    monkeypatch.setattr(laws, "_Evaluator", recording_evaluator)
    for seed in range(3):
        law_battery(model, trials=6, seed=seed)
    assert len(records) == PINNED_RECORDS
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == PINNED_DIGEST


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
        stack = [build("a", metavariables)]
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


def test_reseeding_matches_a_fresh_generator():
    used = random.Random(99)
    for k in range(20):
        used.gauss(0, 1)  # leaves a second normal deviate in gauss_next
        used.seed(f"0:ax_R:{k}")
        fresh = random.Random(f"0:ax_R:{k}")
        for _ in range(25):
            assert used.random() == fresh.random()
            assert used.randrange(1000) == fresh.randrange(1000)
            assert used.choice("abcdefg") == fresh.choice("abcdefg")
            assert used.gauss(0, 1) == fresh.gauss(0, 1)


@pytest.mark.parametrize("trials", [0, -3, True, "3", 1.5])
def test_the_battery_needs_at_least_one_trial(chain_model, trials):
    with pytest.raises(EvalError, match=f"at least one trial, not {trials!r}$"):
        law_battery(chain_model, trials=trials)


# ---------------------------------------------------------------------------
# every axiom and derived law on every small frame

METAVARIABLES = [Prop("_f0"), Prop("_f1"), Prop("_f2")]


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
    # The highest index read plus 1, not the number read: the schema indexes
    # the drawn list.
    last = used_metavariables(build("a", METAVARIABLES))[-1]
    expected = [p.name for p in METAVARIABLES].index(last) + 1
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


def check_every_schema(frames):
    """Check each axiom and derived law for every agent on every assignment
    of world sets to the metavariables it uses (a schema is valid on a frame
    exactly when it holds on all of them); count the frames and checks."""
    checks = 0
    for frame in frames:
        model = Model(frame)
        sets = list(submasks(frame.universe))
        for name, build in {**AXIOMS, **DERIVED}.items():
            for agent in frame.agents:
                schema = build(agent.name, METAVARIABLES)
                used = used_metavariables(schema)
                for values in itertools.product(sets, repeat=len(used)):
                    trial = model.with_valuation(dict(zip(used, values)))
                    assert check(trial, schema).valid, (name, agent.name, frame, values)
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
