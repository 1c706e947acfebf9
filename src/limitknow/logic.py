"""The modal formula language: AST, concrete-syntax parser, printer, and the
model-checking evaluator.

Concrete grammar (whitespace-insensitive)::

    formula := iff ;            iff := imp ( "<->" imp )* ;
    imp     := or ( "->" imp )? ;                 (right-associative)
    or      := and ( "|" and )* ;   and := unary ( "&" unary )* ;
    unary   := "~" unary | "R[" name "]" unary | "S[" name "]" unary
             | "I[" name "@" formula "]" unary | "B[" name "@" formula "]" unary
             | "G[" formula "]" unary | "C" unary | atom ;
    atom    := "top" | "bot" | name | "(" formula ")" ;
    name    := [A-Za-z_][A-Za-z0-9_]* ;

``R``/``S``/``I``/``B``/``G`` act as modalities only when followed by ``[``;
``C`` acts as one when followed by anything that can start a unary formula.
Otherwise they parse as plain proposition names. The tables ``INFIX`` and
``MODALITIES`` hold these connectives and modalities for every reader.

A formula may nest at most ``MAX_DEPTH`` levels deep, counting each operator,
modality and pair of parentheses as one level and an atom alone as one;
deeper input is a ``ParseError``. A formula built in code too deep for the
interpreter's stack is an ``EvalError`` from ``evaluate``, ``check`` and
``print_formula``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping

from .frame import _NAME, Frame, FrameError, _check_valuation_names, _is_names, load_frame_file
from .operators import OperatorContext


class ParseError(ValueError):
    """A syntax error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """An unbound proposition or agent, a formula nested too deep to evaluate
    or print, or a battery of fewer than one trial or with no int seed."""


# ---------------------------------------------------------------------------
# AST


class Formula:
    """A syntax-tree node: a plain dataclass, compared and hashed by structure.
    Nothing assigns to a node once built, since formulas share subtrees and
    the evaluator's memo is keyed on node identity."""

    __slots__ = ()


@dataclass(unsafe_hash=True)
class Prop(Formula):
    name: str


@dataclass(unsafe_hash=True)
class Top(Formula):
    pass


@dataclass(unsafe_hash=True)
class Bot(Formula):
    pass


@dataclass(unsafe_hash=True)
class Not(Formula):
    body: Formula


@dataclass(unsafe_hash=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(unsafe_hash=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(unsafe_hash=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(unsafe_hash=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(unsafe_hash=True)
class Reason(Formula):
    """R[i] phi: the agent has reason simpliciter to believe phi."""

    agent: str
    body: Formula


@dataclass(unsafe_hash=True)
class Indicates(Formula):
    """I[i @ phi1] phi2: phi1 indicates phi2 to the agent."""

    agent: str
    witness: Formula
    body: Formula


@dataclass(unsafe_hash=True)
class BelievesVia(Formula):
    """B[i @ phi1] phi2: the agent has phi1 as reason to believe phi2."""

    agent: str
    witness: Formula
    body: Formula


@dataclass(unsafe_hash=True)
class TrueReason(Formula):
    """S[i] phi: the agent has some true reason to believe phi."""

    agent: str
    body: Formula


@dataclass(unsafe_hash=True)
class Generates(Formula):
    """G[phi1] phi2: phi1 generates common inductive knowledge of phi2."""

    witness: Formula
    body: Formula


@dataclass(unsafe_hash=True)
class Common(Formula):
    """C phi: phi is common inductive knowledge."""

    body: Formula


TOP = Top()
BOT = Bot()

# The concrete syntax of every operator, read by the parser, the printer, the
# CLI's ``ops`` and the law battery's formula generator.
#
# The binary connectives, loosest first: (symbol, node class, groups to the
# right). A connective's index is its binding level.
INFIX = (("<->", Iff, False), ("->", Imp, True), ("|", Or, False), ("&", And, False))
_UNARY = len(INFIX)  # the binding level of a prefix operator or an atom

# The modalities by symbol. A modality takes what its node's fields name, in
# order: an optional agent, an optional witness formula, then the body.
MODALITIES = {
    "R": Reason,
    "S": TrueReason,
    "I": Indicates,
    "B": BelievesVia,
    "G": Generates,
    "C": Common,
}

_INFIX_OF = {cls: (level, symbol, right) for level, (symbol, cls, right) in enumerate(INFIX)}
_SYMBOL_OF = {cls: symbol for symbol, cls in MODALITIES.items()}


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    rf"\s*(?:(?P<name>{_NAME.pattern})|(?P<op><->|->|[~&|()\[\]@]))"
)


@dataclass
class _Token:
    kind: str  # name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unknown token {stripped[0]!r}", at)
        if m.group("name"):
            out.append(_Token("name", m.group("name"), m.start("name")))
        else:
            out.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


MAX_DEPTH = 100  # the parser, printer and evaluator recurse once per level


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # unary() calls in progress

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def expect_name(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected a name, found {tok.text or 'end of input'!r}", tok.pos)
        return tok.text

    def parse(self) -> Formula:
        f = self.binary(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.pos)
        if _depth(f) > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", 0)
        return f

    def binary(self, level: int) -> Formula:
        # One call per binding level reads all of that level's operands and
        # folds them, so a long chain costs a loop rather than a frame per
        # connective.
        symbol, cls, right = INFIX[level]
        inner = level + 1
        parts = []
        while True:
            parts.append(self.binary(inner) if inner < _UNARY else self.unary())
            if self.peek().text != symbol:
                break
            self.next()
        if right:
            return reduce(lambda acc, f: cls(f, acc), reversed(parts))
        return reduce(cls, parts)

    def unary(self) -> Formula:
        # Every nested construct recurses through here; bounding the calls in
        # progress keeps deep input from exhausting the interpreter's stack.
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", self.peek().pos)
        f = self._unary()
        self.depth -= 1
        return f

    def _unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.next()
            return Not(self.unary())
        cls = MODALITIES.get(tok.text)
        if cls is not None:
            # The fields before the body go in brackets, separated by "@". A
            # modality that has some acts as one when a bracket follows, any
            # other when a unary formula follows; otherwise its symbol is a
            # proposition name.
            bracketed = cls.__match_args__[:-1]
            nxt = self.tokens[self.i + 1]
            if bracketed:
                acts = nxt.text == "["
            else:
                acts = nxt.kind == "name" or nxt.text in ("~", "(")
            if acts:
                self.next()
                args = []
                if bracketed:
                    self.next()
                    for field in bracketed:
                        if args:
                            self.expect("@")
                        args.append(self.expect_name() if field == "agent" else self.binary(0))
                    self.expect("]")
                args.append(self.unary())
                return cls(*args)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok.text == "(":
            f = self.binary(0)
            self.expect(")")
            return f
        if tok.kind == "name":
            if tok.text == "top":
                return TOP
            if tok.text == "bot":
                return BOT
            return Prop(tok.text)
        raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str) -> Formula:
    if not isinstance(text, str):
        raise ParseError(f"a formula must be a string, not {text!r:.40}", 0)
    return _Parser(text).parse()


def _depth(f: Formula) -> int:
    """Levels in the syntax tree, counted without recursion."""
    deepest = 0
    stack = [(f, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in vars(node).values() if isinstance(c, Formula))
    return deepest


# ---------------------------------------------------------------------------
# printing


def print_formula(f: Formula) -> str:
    """Render with the fewest parentheses that still round-trip."""
    try:
        return _print(f, 0)
    except RecursionError:
        raise EvalError(
            f"formula nests too deep to print (parse allows {MAX_DEPTH} levels)"
        ) from None


def _print(f: Formula, level: int) -> str:
    cls = type(f)
    if cls is Prop:
        return f.name
    if cls is Top:
        return "top"
    if cls is Bot:
        return "bot"
    if cls is Not:
        return "~" + _print(f.body, _UNARY)
    if cls in _INFIX_OF:
        # The operand on the grouping side binds at the connective's own
        # level, the other one level tighter.
        own, symbol, right = _INFIX_OF[cls]
        left_level, right_level = (own + 1, own) if right else (own, own + 1)
        text = f"{_print(f.left, left_level)} {symbol} {_print(f.right, right_level)}"
        return f"({text})" if own < level else text
    if cls not in _SYMBOL_OF:
        raise TypeError(f"not a formula: {f!r}")
    inside = []
    for field in cls.__match_args__[:-1]:
        inside.append(f.agent if field == "agent" else _print(getattr(f, field), 0))
    bracket = f"[{' @ '.join(inside)}]" if inside else ""
    return f"{_SYMBOL_OF[cls]}{bracket} {_print(f.body, _UNARY)}"


# ---------------------------------------------------------------------------
# models and evaluation


class Model:
    """A frame plus a valuation of checked world sets by names that a formula
    can refer to (not ``top``, ``bot`` or ``"p q"``), and the operator context
    built once for it. The law battery builds no trial models: it evaluates
    on the model's context."""

    def __init__(self, frame: Frame, valuation: Mapping[str, int] | None = None):
        if valuation is not None and not (
            isinstance(valuation, Mapping) and all([isinstance(n, str) for n in valuation])
        ):
            raise FrameError(f"a valuation must map names to world sets, not {valuation!r:.40}")
        self.frame = frame
        self.valuation: dict[str, int] = dict(valuation or {})
        _check_valuation_names(self.valuation)
        for s in self.valuation.values():
            frame.check_subset(s)

    @cached_property
    def context(self) -> OperatorContext:
        return OperatorContext(self.frame)

    @classmethod
    def from_file(cls, path: str) -> "Model":
        return cls(*load_frame_file(path))


class _Evaluator:
    """Evaluation over an operator context and a valuation of world sets
    already checked, with a memo of the extension of every node evaluated so
    far, keyed on ``id(node)``: one per ``evaluate`` call, and one per
    law-battery trial for its premises and conclusion. The nodes stay alive
    while it is used, so their ids are stable; keying on the nodes would hash
    whole subtrees, since a node's hash recurses and is not cached."""

    __slots__ = ("valuation", "ctx", "universe", "agent_names", "memo")

    def __init__(self, ctx: OperatorContext, valuation: Mapping[str, int]):
        self.valuation = valuation
        self.ctx = ctx
        self.universe = ctx.universe
        self.agent_names = ctx.frame.agents_by_name
        self.memo: dict[int, int] = {}

    def go(self, f: Formula) -> int:
        key = id(f)
        out = self.memo.get(key)
        if out is None:
            rule = _RULES.get(type(f))
            if rule is None:
                raise TypeError(f"not a formula: {f!r}")
            out = self.memo[key] = rule(self, f)
        return out

    def agent(self, name: str) -> str:
        try:
            self.agent_names[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise EvalError(f"unknown agent {name!r}") from None
        return name


def _prop(ev: _Evaluator, f: Prop) -> int:
    try:
        return ev.valuation[f.name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise EvalError(f"unbound proposition {f.name!r}") from None


# One rule per node type. Children are evaluated left to right and a
# modality checks its agent before them: that order decides which error a
# formula with several unbound names raises.
_RULES = {
    Prop: _prop,
    Top: lambda ev, f: ev.universe,
    Bot: lambda ev, f: 0,
    Not: lambda ev, f: ev.universe & ~ev.go(f.body),
    And: lambda ev, f: ev.go(f.left) & ev.go(f.right),
    Or: lambda ev, f: ev.go(f.left) | ev.go(f.right),
    Imp: lambda ev, f: (ev.universe & ~ev.go(f.left)) | ev.go(f.right),
    Iff: lambda ev, f: ev.universe & ~(ev.go(f.left) ^ ev.go(f.right)),
    Reason: lambda ev, f: ev.ctx.reason(ev.agent(f.agent), ev.go(f.body)),
    Indicates: lambda ev, f: ev.ctx.indicates(
        ev.agent(f.agent), ev.go(f.witness), ev.go(f.body)
    ),
    BelievesVia: lambda ev, f: ev.ctx.believes_via(
        ev.agent(f.agent), ev.go(f.witness), ev.go(f.body)
    ),
    TrueReason: lambda ev, f: ev.ctx.true_reason(ev.agent(f.agent), ev.go(f.body)),
    Generates: lambda ev, f: ev.ctx.generates(ev.go(f.witness), ev.go(f.body)),
    Common: lambda ev, f: ev.ctx.common(ev.go(f.body)),
}


def evaluate(model: Model, f: Formula) -> int:
    """The extension of a formula: the mask of worlds where it holds.

    Propositions must be bound in the valuation and agents must exist in the
    frame; anything unbound is an error rather than an implicit empty set.
    A subformula shared by several parents is evaluated once per call.
    """
    try:
        return _Evaluator(model.context, model.valuation).go(f)
    except RecursionError:
        raise EvalError(
            f"formula nests too deep to evaluate (parse allows {MAX_DEPTH} levels)"
        ) from None


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    counterexamples: tuple[str, ...]


def check(model: Model, f: Formula) -> CheckResult:
    """Valid iff the extension is the whole universe; otherwise report the
    worlds where the formula fails."""
    ext = evaluate(model, f)
    missing = model.frame.universe & ~ext
    if not missing:
        return CheckResult(True, ())
    return CheckResult(False, model.frame.names(missing))


def world_set(model: Model, spec) -> int:
    """Read a world set, as CLI flags and scenario files give it: a list of
    world names; ``@formula``, evaluated; a comma string of names when all
    of them are worlds; otherwise the string is read as a formula."""
    if _is_names(spec):
        return model.frame.mask(spec)
    if not isinstance(spec, str):
        raise FrameError(f"cannot read a world set from {spec!r:.40}")
    if spec.startswith("@"):
        return evaluate(model, parse(spec[1:]))
    names = [n.strip() for n in spec.split(",") if n.strip()]
    worlds = set(model.frame.worlds)
    if names and all(n in worlds for n in names):
        return model.frame.mask(names)
    try:
        return evaluate(model, parse(spec))
    except (ParseError, EvalError):
        unknown = [n for n in names if n not in worlds]
        raise FrameError(
            f"not a world list (unknown: {unknown}) and not an evaluable formula: {spec!r}"
        ) from None
