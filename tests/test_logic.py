"""Parser, printer, evaluator, and validity checking."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitknow.frame import FrameError
from limitknow.logic import (
    BOT,
    MAX_DEPTH,
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
    ParseError,
    Prop,
    Reason,
    Top,
    TrueReason,
    check,
    evaluate,
    parse,
    print_formula,
)
from randgen import oracle_evaluate, random_frame, random_shared_formula

# ---------------------------------------------------------------------------
# parsing


def test_parse_examples():
    assert parse("C p") == Common(Prop("p"))
    assert parse("B[a @ w] p -> S[a] p") == Imp(
        BelievesVia("a", Prop("w"), Prop("p")), TrueReason("a", Prop("p"))
    )
    assert parse("G[w] p & I[a @ w] (p -> q)") == And(
        Generates(Prop("w"), Prop("p")),
        Indicates("a", Prop("w"), Imp(Prop("p"), Prop("q"))),
    )


def test_parse_precedence_and_associativity():
    assert parse("p -> q -> r") == Imp(Prop("p"), Imp(Prop("q"), Prop("r")))
    assert parse("p & q | r") == Or(And(Prop("p"), Prop("q")), Prop("r"))
    assert parse("~p & q") == And(Not(Prop("p")), Prop("q"))
    assert parse("p <-> q <-> r") == Iff(Iff(Prop("p"), Prop("q")), Prop("r"))
    assert parse("R[a] p & q") == And(Reason("a", Prop("p")), Prop("q"))
    assert parse("top & bot") == And(TOP, BOT)


def test_modal_letters_fall_back_to_propositions():
    assert parse("R") == Prop("R")
    assert parse("C") == Prop("C")
    assert parse("C & p") == And(Prop("C"), Prop("p"))
    assert parse("R -> p") == Imp(Prop("R"), Prop("p"))
    assert parse("C C") == Common(Prop("C"))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("p & ")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("B[a p] q")
    with pytest.raises(ParseError) as err:
        parse("p ? q")
    assert "unknown token" in str(err.value)
    with pytest.raises(ParseError):
        parse("(p & q")
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError, match=r"expected a name, found '~' \(at position 2\)"):
        parse("R[~] p")
    with pytest.raises(ParseError, match=r"a formula must be a string, not 3 \(at position 0\)"):
        parse(3)


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * (n - 1) + "p" + ")" * (n - 1),
        lambda n: "~" * (n - 1) + "p",
        lambda n: "p" + " & p" * (n - 1),
        lambda n: "p" + " -> p" * (n - 1),
        lambda n: "C " * (n - 1) + "p",
    ],
)
def test_depth_limit(chain_model, nest):
    deepest = parse(nest(MAX_DEPTH))
    assert parse(print_formula(deepest)) == deepest
    evaluate(chain_model, deepest)
    with pytest.raises(ParseError) as err:
        parse(nest(MAX_DEPTH + 1))
    assert f"deeper than {MAX_DEPTH} levels" in str(err.value)


@pytest.mark.parametrize(
    "entry",
    [evaluate, check, lambda model, f: print_formula(f)],
    ids=["evaluate", "check", "print_formula"],
)
def test_a_formula_built_in_code_too_deep_for_the_stack_is_an_eval_error(chain_model, entry):
    # Only parse bounds the depth; the evaluator and printer recurse per level.
    deep = Prop("p")
    for _ in range(3 * sys.getrecursionlimit()):
        deep = Not(deep)
    message = f"formula nests too deep to .* \\(parse allows {MAX_DEPTH} levels\\)$"
    with pytest.raises(EvalError, match=message):
        entry(chain_model, deep)


# ---------------------------------------------------------------------------
# printer round-trip

_names = st.sampled_from(["p", "q", "r", "C", "R", "G_x", "_m0"])
_agents = st.sampled_from(["a", "b"])


def _formulas():
    leaves = st.one_of(
        st.builds(Prop, _names), st.just(TOP), st.just(BOT)
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Imp, children, children),
            st.builds(Iff, children, children),
            st.builds(Reason, _agents, children),
            st.builds(TrueReason, _agents, children),
            st.builds(Indicates, _agents, children, children),
            st.builds(BelievesVia, _agents, children, children),
            st.builds(Generates, children, children),
            st.builds(Common, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_formulas())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(formula):
    assert parse(print_formula(formula)) == formula


# ---------------------------------------------------------------------------
# nodes: plain dataclasses that nothing mutates, compared by structure


def _p():
    return Prop("p")


def _q():
    return Prop("q")


# A fresh node of each class, built from fresh children, with its repr and
# its __match_args__, which the parser and printer read.
NODES = [
    (lambda: Prop("p"), "Prop(name='p')", ("name",)),
    (lambda: Top(), "Top()", ()),
    (lambda: Bot(), "Bot()", ()),
    (lambda: Not(_p()), "Not(body=Prop(name='p'))", ("body",)),
    (lambda: And(_p(), _q()), "And(left=Prop(name='p'), right=Prop(name='q'))", ("left", "right")),
    (lambda: Or(_p(), _q()), "Or(left=Prop(name='p'), right=Prop(name='q'))", ("left", "right")),
    (lambda: Imp(_p(), _q()), "Imp(left=Prop(name='p'), right=Prop(name='q'))", ("left", "right")),
    (lambda: Iff(_p(), _q()), "Iff(left=Prop(name='p'), right=Prop(name='q'))", ("left", "right")),
    (lambda: Reason("a", _p()), "Reason(agent='a', body=Prop(name='p'))", ("agent", "body")),
    (
        lambda: Indicates("a", _p(), _q()),
        "Indicates(agent='a', witness=Prop(name='p'), body=Prop(name='q'))",
        ("agent", "witness", "body"),
    ),
    (
        lambda: BelievesVia("a", _p(), _q()),
        "BelievesVia(agent='a', witness=Prop(name='p'), body=Prop(name='q'))",
        ("agent", "witness", "body"),
    ),
    (
        lambda: TrueReason("a", _p()),
        "TrueReason(agent='a', body=Prop(name='p'))",
        ("agent", "body"),
    ),
    (
        lambda: Generates(_p(), _q()),
        "Generates(witness=Prop(name='p'), body=Prop(name='q'))",
        ("witness", "body"),
    ),
    (lambda: Common(_p()), "Common(body=Prop(name='p'))", ("body",)),
]
_NODE_IDS = [text.partition("(")[0] for _, text, _ in NODES]


def test_the_node_table_has_every_formula_class():
    assert len(NODES) == 14
    assert {type(make()) for make, _, _ in NODES} == set(Formula.__subclasses__())


@pytest.mark.parametrize("make, text, match_args", NODES, ids=_NODE_IDS)
def test_nodes_compare_and_hash_by_structure(make, text, match_args):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1 and b in {a} and len({a, b}) == 1
    assert repr(a) == text
    assert type(a).__match_args__ == match_args
    # Any field changed makes an unequal node.
    for field in match_args:
        other = Prop("r") if isinstance(getattr(a, field), Formula) else "r"
        changed = type(a)(*[other if f == field else getattr(a, f) for f in match_args])
        assert changed != a


def test_node_equality_tells_classes_apart():
    p, q = _p(), _q()
    assert And(p, q) != Or(p, q) and Top() != Bot()
    assert Prop("p") != ("p",) and Top() != ()
    pairs = 0
    for make_x, _, fields_x in NODES:
        for make_y, _, fields_y in NODES:
            x, y = make_x(), make_y()
            if type(x) is not type(y) and fields_x == fields_y:
                y = type(y)(*[getattr(x, f) for f in fields_x])
                assert x != y and len({x: 1, y: 2}) == 2
                pairs += 1
    # Top/Bot, the four connectives, Reason/TrueReason, Indicates/BelievesVia, Not/Common
    assert pairs == 2 * (1 + 6 + 1 + 1 + 1)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_examples(chain_model):
    frame = chain_model.frame
    assert evaluate(chain_model, TOP) == frame.universe
    assert frame.names(evaluate(chain_model, parse("S[a] p"))) == ("x", "z")
    assert frame.names(evaluate(chain_model, parse("C p"))) == ("x", "z")

    deductive = Model(
        frame.with_tolerances({"a": 0}), chain_model.valuation
    )
    assert deductive.frame.names(evaluate(deductive, parse("C p"))) == ("z",)


def test_evaluate_agrees_with_operator_calls():
    rng = random.Random(20)
    for _ in range(15):
        frame = random_frame(rng, max_worlds=5)
        w_mask = rng.randint(0, frame.universe)
        p_mask = rng.randint(0, frame.universe)
        model = Model(frame, {"w": w_mask, "p": p_mask})
        ctx = model.context
        agent = frame.agents[0].name
        w, p = Prop("w"), Prop("p")
        cases = [
            (Reason(agent, p), ctx.reason(agent, p_mask)),
            (TrueReason(agent, p), ctx.true_reason(agent, p_mask)),
            (Indicates(agent, w, p), ctx.indicates(agent, w_mask, p_mask)),
            (BelievesVia(agent, w, p), ctx.believes_via(agent, w_mask, p_mask)),
            (Generates(w, p), ctx.generates(w_mask, p_mask)),
            (Common(p), ctx.common(p_mask)),
        ]
        for formula, expected in cases:
            assert evaluate(model, formula) == expected


def test_connective_semantics(chain_model):
    u = chain_model.frame.universe
    p = evaluate(chain_model, parse("p"))
    q = evaluate(chain_model, parse("q"))
    assert evaluate(chain_model, parse("~p")) == u & ~p
    assert evaluate(chain_model, parse("p | q")) == p | q
    assert evaluate(chain_model, parse("p -> q")) == (u & ~p) | q
    assert evaluate(chain_model, parse("p <-> q")) == u & ~(p ^ q)
    assert evaluate(chain_model, parse("bot")) == 0


def test_check_examples(chain_model):
    assert check(chain_model, parse("S[a] p -> p")).valid
    assert check(chain_model, parse("C p -> p")).valid
    deductive = Model(chain_model.frame.with_tolerances({"a": 0}), chain_model.valuation)
    result = check(deductive, parse("p -> S[a] p"))
    assert not result.valid and result.counterexamples == ("x",)


def test_check_is_valid_on_random_models():
    rng = random.Random(21)
    for _ in range(20):
        frame = random_frame(rng, max_worlds=5)
        model = Model(frame, {"p": rng.randint(0, frame.universe)})
        agent = frame.agents[0].name
        assert check(model, parse(f"S[{agent}] p -> p")).valid
        assert check(model, parse("C p -> p")).valid


def test_unbound_names_are_errors(chain_model):
    with pytest.raises(EvalError):
        evaluate(chain_model, parse("mystery"))
    with pytest.raises(EvalError):
        evaluate(chain_model, parse("S[ghost] p"))
    p = Prop("p")  # and inside a subtree shared by several parents
    for bad, message in (
        (Not(Prop("missing")), "unbound proposition 'missing'"),
        (Reason("ghost", p), "unknown agent 'ghost'"),
    ):
        for f in (And(Or(p, bad), Not(bad)), Iff(bad, And(bad, p)), Common(And(p, bad))):
            with pytest.raises(EvalError, match=message):
                evaluate(chain_model, f)


@pytest.mark.parametrize(
    "f, message",
    [
        (Reason(["a"], Prop("p")), "unknown agent ['a']"),
        (Indicates({}, Prop("p"), Prop("p")), "unknown agent {}"),
        (TrueReason({"a"}, Prop("p")), "unknown agent {'a'}"),
        (Prop(["p"]), "unbound proposition ['p']"),
        (Not(Prop({})), "unbound proposition {}"),
    ],
    ids=["list-agent", "dict-agent", "set-agent", "list-name", "dict-name"],
)
def test_an_unhashable_name_in_a_formula_built_in_code_is_an_eval_error(chain_model, f, message):
    for entry in (evaluate, check):
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            entry(chain_model, f)


def _outcome(evaluator, model, f):
    try:
        return evaluator(model, f)
    except EvalError as exc:
        return str(exc)


def _tree_size(f) -> int:
    return 1 + sum(_tree_size(c) for c in vars(f).values() if isinstance(c, Formula))


def _distinct_nodes(f, seen=None) -> int:
    seen = set() if seen is None else seen
    if id(f) not in seen:
        seen.add(id(f))
        for c in vars(f).values():
            if isinstance(c, Formula):
                _distinct_nodes(c, seen)
    return len(seen)


def test_evaluate_matches_plain_recursion_on_shared_subtrees():
    rng = random.Random(61)
    shared = 0
    for _ in range(120):
        frame = random_frame(rng, max_worlds=5)
        model = Model(frame, {p: rng.randint(0, frame.universe) for p in ("p", "q")})
        agents = [a.name for a in frame.agents]
        for _ in range(5):
            f = random_shared_formula(rng, ["p", "q"], agents, nodes=rng.randint(1, 14))
            assert evaluate(model, f) == oracle_evaluate(model, f)
            shared += _tree_size(f) > _distinct_nodes(f)
    assert shared >= 150  # of 600 formulas


def test_errors_inside_shared_subtrees_match_plain_recursion():
    model_rng = random.Random(62)
    raised = 0
    for _ in range(80):
        frame = random_frame(model_rng, max_worlds=4)
        model = Model(frame, {"p": model_rng.randint(0, frame.universe)})
        agents = [a.name for a in frame.agents] + ["ghost"]
        for _ in range(5):
            f = random_shared_formula(model_rng, ["p", "missing"], agents)
            expected = _outcome(oracle_evaluate, model, f)
            assert _outcome(evaluate, model, f) == expected
            raised += isinstance(expected, str)
    assert raised >= 100


def test_non_formulas_are_type_errors(chain_model):
    for f in ("p", And(Prop("p"), 3), Not(None)):
        with pytest.raises(TypeError, match="not a formula"):
            evaluate(chain_model, f)


def test_monotone_replacement_for_s_and_c():
    rng = random.Random(22)
    for _ in range(15):
        frame = random_frame(rng, max_worlds=5)
        small = rng.randint(0, frame.universe)
        big = small | rng.randint(0, frame.universe)
        model = Model(frame, {"s": small, "b": big})
        agent = frame.agents[0].name
        s_small = evaluate(model, parse(f"S[{agent}] s"))
        s_big = evaluate(model, parse(f"S[{agent}] b"))
        assert s_small & ~s_big == 0
        assert evaluate(model, parse("C s")) & ~evaluate(model, parse("C b")) == 0


def test_valuation_outside_universe_is_rejected():
    frame = random_frame(random.Random(23), max_worlds=3)
    with pytest.raises(FrameError, match="world set has members outside this universe"):
        Model(frame, {"p": frame.universe + 1})


@pytest.mark.parametrize("name", ["top", "bot", "p q", "1x", "", "p-q"])
def test_valuation_names_must_be_ones_a_formula_can_refer_to(chain_model, name):
    # A model file refuses such a name, and so does a Model built in code:
    # bound to "top", a name would print as the constant and parse back as it.
    message = f"valuation name {name!r} is not one a formula can refer to"
    with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
        Model(chain_model.frame, {"p": 1, name: 1})


@pytest.mark.parametrize("value", [True, "1", 1.0], ids=["bool", "string", "float"])
def test_valuation_values_must_be_integer_masks(chain_model, value):
    with pytest.raises(FrameError, match="a world set must be an integer mask"):
        Model(chain_model.frame, {"p": value})
