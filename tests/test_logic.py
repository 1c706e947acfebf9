"""Parser, printer, evaluator, and validity checking."""

import random

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
    with pytest.raises(Exception):
        Model(frame, {"p": frame.universe + 1})


@pytest.mark.parametrize("value", [True, "1", 1.0], ids=["bool", "string", "float"])
def test_valuation_values_must_be_integer_masks(chain_model, value):
    with pytest.raises(FrameError, match="a world set must be an integer mask"):
        Model(chain_model.frame, {"p": value})
