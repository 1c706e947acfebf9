"""The soundness battery as a regression suite over the whole engine."""

import hashlib
import json
import os
import random

from limitknow import laws
from limitknow.laws import ALL_LAW_NAMES, AXIOMS, DERIVED, law_battery
from limitknow.logic import (
    And,
    BelievesVia,
    Bot,
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
    Top,
    TrueReason,
    check,
    print_formula,
)
from randgen import random_frame


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
        model = Model.from_dict(json.load(fh))
    records = []

    def recording_check(m, f):
        res = check(m, f)
        records.append("|".join(map(str, (print_formula(f), sorted(m.valuation.items()), res.valid))))
        return res

    monkeypatch.setattr(laws, "check", recording_check)
    for seed in range(3):
        law_battery(model, trials=6, seed=seed)
    assert len(records) == PINNED_RECORDS
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == PINNED_DIGEST


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


_KIND_TYPES = {
    "not": Not, "and": And, "or": Or, "imp": Imp, "iff": Iff, "R": Reason,
    "S": TrueReason, "I": Indicates, "B": BelievesVia, "G": Generates, "C": Common,
}


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
        assert type(drawn) is _KIND_TYPES[kind], k
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
