"""Source-level guards on the library itself."""

import ast
import importlib
import re
import types
from dataclasses import fields
from functools import reduce
from pathlib import Path

import pytest

import limitknow
import limitknow.cli  # the tracer patches modules found in sys.modules
from limitknow import attest, cli, hierarchy, laws, logic, operators
from limitknow.operators import OperatorContext


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so no invariant may rest on one.
    found = []
    for path in sorted(Path(limitknow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


UNSIZED = {"map", "filter", "zip", "compress", "enumerate", "reversed"}


def parks_tuples(node):
    """``tuple(<generator expression>)`` or ``tuple(<call to an unsized
    iterator builtin such as map or compress>)`` written inline, or any use
    of ``dataclasses.asdict``, which copies fields and tuples that way. A
    generator function's result resizes the same way but is not flagged."""
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id == "tuple" and len(node.args) == 1):
            return False
        arg = node.args[0]
        if isinstance(arg, ast.Call):
            return getattr(arg.func, "id", getattr(arg.func, "attr", None)) in UNSIZED
        return isinstance(arg, ast.GeneratorExp)
    if isinstance(node, ast.alias):
        return node.name == "asdict"
    return getattr(node, "id", getattr(node, "attr", None)) == "asdict"


def test_library_has_no_inline_generator_tuple_or_asdict():
    # CPython 3.11 builds tuple(<generator>) by resizing, so it never reuses a
    # free-listed tuple of its size but frees onto that list: each call parks one.
    found = []
    for path in sorted(Path(limitknow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if parks_tuples(n)]
    assert found == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("tuple(x for x in y)", True),
        ("tuple(map(f, y))", True),
        ("tuple(filter(None, y))", True),
        ("tuple(zip(a, b))", True),
        ("tuple(compress(a, b))", True),
        ("tuple(itertools.compress(a, b))", True),
        ("tuple(enumerate(y))", True),
        ("tuple(reversed(y))", True),
        ("tuple([*compress(a, b)])", False),
        ("tuple([x for x in y])", False),
        ("tuple(sorted(y))", False),
        ("tuple(y)", False),
        ("list(map(f, y))", False),
    ],
)
def test_the_tuple_guard_flags_unsized_arguments(source, flagged):
    assert any(parks_tuples(n) for n in ast.walk(ast.parse(source))) == flagged


def hides_state(node):
    """A ``dataclass`` call given any ``eq`` but ``True`` (equality by
    identity), or a ``field`` call with a ``default_factory`` (a fresh
    mutable value per instance)."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    keywords = {k.arg: k.value for k in node.keywords}
    if name == "dataclass" and "eq" in keywords:
        eq = keywords["eq"]
        return not (isinstance(eq, ast.Constant) and eq.value is True)
    return name == "field" and "default_factory" in keywords


def test_library_value_types_hold_no_hidden_state():
    # Frames share topologies and contexts share frames: a mutable field on
    # one of these values is state shared by every holder, and an identity
    # equality lets two equal values answer differently.
    found = []
    for path in sorted(Path(limitknow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if hides_state(n)]
    assert found == []


FORMULA_FIELDS = {"name", "body", "left", "right", "agent", "witness"}


def mutations(tree):
    """Line numbers of every write to or deletion of an attribute named like
    a formula field, except ``self.<field>`` inside an ``__init__``, and of
    every call to ``setattr`` or to a ``__setattr__`` method."""
    in_init = set()
    for f in ast.walk(tree):
        if isinstance(f, ast.FunctionDef) and f.name == "__init__":
            in_init |= {
                id(n) for n in ast.walk(f)
                if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "self"
            }
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, (ast.Store, ast.Del)):
            if n.attr in FORMULA_FIELDS and id(n) not in in_init:
                found.append(n.lineno)
        elif isinstance(n, ast.Call):
            if getattr(n.func, "id", getattr(n.func, "attr", None)) in ("setattr", "__setattr__"):
                found.append(n.lineno)
    return found


def test_library_mutates_no_formula_node():
    # Formula nodes are plain dataclasses: formulas share subtrees and the
    # evaluator's memo is keyed on node identity, so a node never changes.
    found = []
    for path in sorted(Path(limitknow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in mutations(tree)]
    assert found == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("f.body = g", True),
        ("f.left, f.right = g, h", True),
        ("f.agent += 'x'", True),
        ("f.name: str = 'p'", True),
        ("del f.witness", True),
        ("for f.body in gs: pass", True),
        ("def rename(self):\n    self.name = 'p'", True),
        ("setattr(f, 'body', g)", True),
        ("object.__setattr__(f, 'body', g)", True),
        ("f.__setattr__('body', g)", True),
        ("class A:\n    def __init__(self, name):\n        self.name = name", False),
        ("g = f.body", False),
        ("f.count = 1", False),
        ("getattr(f, 'body')", False),
    ],
)
def test_the_mutation_guard_flags_writes_to_formula_fields(source, flagged):
    assert bool(mutations(ast.parse(source))) == flagged


def test_value_types_store_no_field_another_one_determines():
    # A rank is its witness's length, a basis is valid when its report lists
    # no violation, and a scenario's valuation was read only to build it. A
    # protocol's verdicts follow from its limit-attest sets and the target,
    # and a simulation's limits are the last entries of its traces.
    assert [f.name for f in fields(limitknow.RankResult)] == ["witness"]
    assert [f.name for f in fields(limitknow.BasisReport)] == ["violations", "neighborhoods"]
    assert "valuation" not in [f.name for f in fields(limitknow.Scenario)]
    assert [f.name for f in fields(attest.VerifyReport)] == ["target", "switch_bounds", "limit_yes"]
    stored = [f.name for f in fields(limitknow.SimulationReport)]
    assert "limits" not in stored and "aggregator_limit" not in stored
    report = attest.SimulationReport("x", {"a": ("defer", "yes")}, ("defer", "yes"), (), ())
    payload = report.to_dict()
    assert payload["limits"] == {"a": "yes"} and payload["aggregator_limit"] == "yes"


def test_attest_leaves_the_witness_search_and_the_neighborhoods_to_their_owners():
    # operators owns the witness search and Topology.rooted the reading of
    # N(w); attest gets limit-Yes sets only through hierarchy's _switches.
    tree = ast.parse(Path(attest.__file__).read_text())
    found = [
        n.lineno
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == "submasks")
        or (isinstance(n, ast.Attribute) and n.attr in ("submasks", "neighborhoods", "rooted"))
        or (isinstance(n, ast.alias) and n.name in ("submasks", "_limit_yes"))
    ]
    assert found == []


def names_a_verdict(node):
    """``ATTEST``, ``DEFER`` or a ``Verdict.<member>``."""
    if isinstance(node, ast.Attribute):
        return getattr(node.value, "id", None) == "Verdict"
    return isinstance(node, ast.Name) and node.id in ("ATTEST", "DEFER")


def test_attest_passes_verdict_tables_untranslated():
    # A strategy table is a decision method: attest and hierarchy share one
    # verdict type, so no conditional expression picks one verdict name over
    # another in attest.
    tree = ast.parse(Path(attest.__file__).read_text())
    found = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.IfExp)
        and names_a_verdict(n.body)
        and names_a_verdict(n.orelse)
    ]
    assert found == []
    assert (attest.ATTEST, attest.DEFER) == (hierarchy.Verdict.YES, hierarchy.Verdict.NO)


def test_hierarchy_has_one_hull_derivative_loop():
    # Exact ranks and the tolerance tests that stop at a bound share one loop,
    # so the repeated-hull rule for infinite ranks has one copy.
    tree = ast.parse(Path(hierarchy.__file__).read_text())
    hulls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "hull"]
    assert len(hulls) == 1


def test_operators_have_one_fixed_point_loop():
    # G and C share one greatest-fixed-point routine, so a round loop or a
    # worklist anywhere else would be a second copy of the iteration.
    tree = ast.parse(Path(operators.__file__).read_text())
    loops = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.While)]
    greatest = next(
        f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_greatest"
    )
    assert len(loops) == 1 and any(isinstance(n, ast.While) for n in ast.walk(greatest))


def test_the_syntax_tables_name_every_operator():
    # A connective or modality added to one table and missed in another would
    # parse but not evaluate, evaluate but never be drawn, or lack an ``ops``.
    infix = {cls for _, cls, _ in logic.INFIX}
    modal = set(logic.MODALITIES.values())
    assert set(logic._RULES) == {logic.Prop, logic.Top, logic.Bot, logic.Not} | infix | modal
    assert sorted(laws._KINDS, key=str) == sorted({logic.Not} | infix | modal, key=str)
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    op_choices = next(a.choices for a in commands.choices["ops"]._actions if a.dest == "op")
    assert set(cli._OPS) == set(op_choices) == set(logic.MODALITIES) | {"L"}
    assert all(callable(getattr(OperatorContext, m)) for m in cli._OPS.values())


def test_cli_encodes_reports_in_one_json_dumps_call_without_indent():
    """Every ``--json`` report goes through one ``json.dumps`` call, and it
    takes no ``indent``: given one, CPython 3.11's ``json`` encodes with its
    pure-Python encoder instead of the C one."""
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "dumps"
        and getattr(n.func.value, "id", None) == "json"
    ]
    assert len(calls) == 1
    assert [k.arg for k in calls[0].keywords] == ["sort_keys"] and len(calls[0].args) == 1


def test_the_battery_seeds_no_generator_inside_its_trial_loop():
    """``law_battery`` seeds one generator per law: seeding a Mersenne
    Twister costs more than all the draws of a trial, so no ``.seed(`` or
    ``Random(`` call may sit inside the loop over ``range(trials)``."""
    tree = ast.parse(Path(laws.__file__).read_text())
    battery = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "law_battery"
    )

    def seeding(node):
        return [
            n.lineno
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and getattr(n.func, "attr", getattr(n.func, "id", None)) in ("seed", "Random")
        ]

    loops = [
        n for n in ast.walk(battery) if isinstance(n, ast.For) and ast.unparse(n.iter) == "range(trials)"
    ]
    assert len(loops) == 1 and seeding(battery)
    assert seeding(loops[0]) == []


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_names():
    """The backticked dotted names in the README (a call's arguments dropped)
    that start at the package, at one of its modules or at an exported class,
    each written from the package down."""
    modules = {p.stem for p in Path(limitknow.__file__).parent.glob("*.py")}
    classes = {n for n, v in vars(limitknow).items() if isinstance(v, type)}
    names = set()
    for name in re.findall(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`", README.read_text()):
        head = name.split(".")[0]
        if head == "limitknow":
            names.add(name)
        elif head in modules | classes:
            names.add(f"limitknow.{name}")
    return names


def test_readme_names_resolve():
    names = readme_names()
    assert {"limitknow.logic.world_set", "limitknow.laws.RULES"} <= names
    assert "limitknow.OperatorContext.witnesses" in names
    missing = []
    for name in sorted(names):
        try:
            reduce(getattr, name.split(".")[1:], limitknow)
        except AttributeError:
            missing.append(name)
    assert missing == []


BENCH_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODEL = Path(__file__).resolve().parent / "fixtures" / "model3.json"


def load_tracing():
    """bench/tracing.py as a module, compiled from its text so that nothing
    is written next to it."""
    module = types.ModuleType("tracing")
    module.__file__ = str(BENCH_TRACING)
    exec(compile(BENCH_TRACING.read_text(), str(BENCH_TRACING), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves():
    tracing = load_tracing()
    for _, module, attr in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner) or isinstance(owner, property), (module, attr)


def test_tracer_sees_frame_validation():
    # The tracer wraps validate_basis by name in every limitknow module; a
    # frame that validated through another function would read 0 calls.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        limitknow.frame.load_frame_file(str(MODEL))
    finally:
        tracer.uninstall()
    assert tracer.summary(1, 0.0)["frame.validate_basis_calls"] >= 1


def operator_calls(tree):
    """The names of the methods called on a ``ctx`` name or attribute."""
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and "ctx" in (getattr(node.func.value, "id", None), getattr(node.func.value, "attr", None))
    }


def test_the_evaluator_calls_only_operator_methods_the_tracer_wraps():
    # The per-layer operator spans wrap public OperatorContext methods by
    # name: a rule that reached the operators another way would hide its
    # modal nodes from them.
    traced = {
        attr.split(".")[1]
        for _, _, attr in load_tracing().TARGETS
        if attr.startswith("OperatorContext.")
    }
    called = operator_calls(ast.parse(Path(logic.__file__).read_text()))
    assert {"reason", "believes_via", "generates", "common"} <= called
    assert called <= traced, called - traced


@pytest.mark.parametrize(
    "source, called",
    [
        ("ev.ctx.reason(a, s)", {"reason"}),
        ("ctx.common(s)", {"common"}),
        ("ev.ctx._agent(a).evidence(s)", {"_agent"}),
        ("ev.go(f.body)", set()),
    ],
)
def test_the_operator_call_guard_reads_calls_on_a_context(source, called):
    assert operator_calls(ast.parse(source)) == called
