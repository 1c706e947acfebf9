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
Otherwise they parse as plain proposition names.

A formula may nest at most ``MAX_DEPTH`` levels deep, counting each operator,
modality and pair of parentheses as one level and an atom alone as one;
deeper input is a ``ParseError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .frame import Frame, FrameError, _is_names, load_frame, load_frame_file
from .operators import OperatorContext


class ParseError(ValueError):
    """A syntax error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """An unbound proposition or agent, or a battery of fewer than one trial."""


# ---------------------------------------------------------------------------
# AST


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Reason(Formula):
    """R[i] phi: the agent has reason simpliciter to believe phi."""

    agent: str
    body: Formula


@dataclass(frozen=True)
class Indicates(Formula):
    """I[i @ phi1] phi2: phi1 indicates phi2 to the agent."""

    agent: str
    witness: Formula
    body: Formula


@dataclass(frozen=True)
class BelievesVia(Formula):
    """B[i @ phi1] phi2: the agent has phi1 as reason to believe phi2."""

    agent: str
    witness: Formula
    body: Formula


@dataclass(frozen=True)
class TrueReason(Formula):
    """S[i] phi: the agent has some true reason to believe phi."""

    agent: str
    body: Formula


@dataclass(frozen=True)
class Generates(Formula):
    """G[phi1] phi2: phi1 generates common inductive knowledge of phi2."""

    witness: Formula
    body: Formula


@dataclass(frozen=True)
class Common(Formula):
    """C phi: phi is common inductive knowledge."""

    body: Formula


TOP = Top()
BOT = Bot()


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><->|->|[~&|()\[\]@]))"
)


@dataclass(frozen=True)
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

_MODAL_BRACKET = {"R", "S", "I", "B", "G"}
_UNARY_STARTERS = {"~", "("}


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
        f = self.iff()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.pos)
        if _depth(f) > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", 0)
        return f

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek().text == "<->":
            self.next()
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        parts = [self.disj()]
        while self.peek().text == "->":
            self.next()
            parts.append(self.disj())
        f = parts.pop()
        while parts:
            f = Imp(parts.pop(), f)
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().text == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek().text == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def _starts_unary(self, tok: _Token) -> bool:
        return tok.kind == "name" or tok.text in _UNARY_STARTERS

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
        if tok.kind == "name":
            nxt = self.tokens[self.i + 1]
            if tok.text in _MODAL_BRACKET and nxt.text == "[":
                self.next()
                self.next()
                if tok.text in ("R", "S"):
                    agent = self.expect_name()
                    self.expect("]")
                    body = self.unary()
                    return Reason(agent, body) if tok.text == "R" else TrueReason(agent, body)
                if tok.text in ("I", "B"):
                    agent = self.expect_name()
                    self.expect("@")
                    witness = self.iff()
                    self.expect("]")
                    body = self.unary()
                    cls = Indicates if tok.text == "I" else BelievesVia
                    return cls(agent, witness, body)
                witness = self.iff()
                self.expect("]")
                return Generates(witness, self.unary())
            if tok.text == "C" and self._starts_unary(nxt):
                self.next()
                return Common(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok.text == "(":
            f = self.iff()
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

_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = range(5)


def print_formula(f: Formula) -> str:
    """Render with the fewest parentheses that still round-trip."""
    return _print(f, _LEVEL_IFF)


def _print(f: Formula, level: int) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Not):
        return "~" + _print(f.body, _LEVEL_UNARY)
    if isinstance(f, And):
        return _wrap(
            _print(f.left, _LEVEL_AND) + " & " + _print(f.right, _LEVEL_UNARY),
            level,
            _LEVEL_AND,
        )
    if isinstance(f, Or):
        return _wrap(
            _print(f.left, _LEVEL_OR) + " | " + _print(f.right, _LEVEL_AND),
            level,
            _LEVEL_OR,
        )
    if isinstance(f, Imp):
        return _wrap(
            _print(f.left, _LEVEL_OR) + " -> " + _print(f.right, _LEVEL_IMP),
            level,
            _LEVEL_IMP,
        )
    if isinstance(f, Iff):
        return _wrap(
            _print(f.left, _LEVEL_IFF) + " <-> " + _print(f.right, _LEVEL_IMP),
            level,
            _LEVEL_IFF,
        )
    if isinstance(f, Reason):
        return f"R[{f.agent}] " + _print(f.body, _LEVEL_UNARY)
    if isinstance(f, TrueReason):
        return f"S[{f.agent}] " + _print(f.body, _LEVEL_UNARY)
    if isinstance(f, Indicates):
        return f"I[{f.agent} @ {_print(f.witness, _LEVEL_IFF)}] " + _print(f.body, _LEVEL_UNARY)
    if isinstance(f, BelievesVia):
        return f"B[{f.agent} @ {_print(f.witness, _LEVEL_IFF)}] " + _print(f.body, _LEVEL_UNARY)
    if isinstance(f, Generates):
        return f"G[{_print(f.witness, _LEVEL_IFF)}] " + _print(f.body, _LEVEL_UNARY)
    if isinstance(f, Common):
        return "C " + _print(f.body, _LEVEL_UNARY)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, level: int, own: int) -> str:
    return f"({text})" if own < level else text


# ---------------------------------------------------------------------------
# models and evaluation


class Model:
    """A frame plus a valuation of proposition names.

    The operator context is built once per frame and shared by models derived
    with ``with_valuation``; valuations are never mutated in place.
    """

    def __init__(self, frame: Frame, valuation: Mapping[str, int] | None = None):
        self.frame = frame
        self.valuation: dict[str, int] = dict(valuation or {})
        for p, s in self.valuation.items():
            if s & ~frame.universe:
                raise FrameError(f"valuation of {p!r} leaves the universe")

    @cached_property
    def context(self) -> OperatorContext:
        return OperatorContext(self.frame)

    def with_valuation(self, valuation: Mapping[str, int]) -> "Model":
        out = Model(self.frame, valuation)
        out.__dict__["context"] = self.context
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Model":
        return cls(*load_frame(data))

    @classmethod
    def from_file(cls, path: str) -> "Model":
        return cls(*load_frame_file(path))


class _Evaluator:
    """One ``evaluate`` call: the model's pieces (the frame's own name-to-agent
    map serves as the set of agent names) and a memo of the extension
    of every node evaluated so far, keyed on ``id(node)``. The nodes stay
    alive for the whole call, so their ids are stable; keying on the nodes
    would hash whole subtrees, since a frozen dataclass's hash recurses and
    is not cached."""

    __slots__ = ("valuation", "ctx", "universe", "agent_names", "memo")

    def __init__(self, model: Model):
        self.valuation = model.valuation
        self.ctx = model.context
        self.universe = model.frame.universe
        self.agent_names = model.frame.agents_by_name
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
        if name not in self.agent_names:
            raise EvalError(f"unknown agent {name!r}")
        return name


def _prop(ev: _Evaluator, f: Prop) -> int:
    try:
        return ev.valuation[f.name]
    except KeyError:
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
    return _Evaluator(model).go(f)


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
