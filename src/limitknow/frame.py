"""Finite frames: world tables, per-agent evidence bases, generated topologies.

World sets are plain ints used as bit vectors over a frame's world table
(bit k set = world at index k is a member). Every structure here is immutable
after construction.
"""

from __future__ import annotations

import copy
import json
import os
import re
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import compress, count


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a proposition name in a formula


class FrameError(ValueError):
    """A malformed frame, basis, world set, or model file."""


class ResourceLimitError(RuntimeError):
    """A search over valid input would exceed its size cap."""


# ---------------------------------------------------------------------------
# bit-vector helpers


_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _digits(mask: int) -> bytes:
    """One byte per bit position of ``mask``, lowest first: 1 for a member."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT)


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions, lowest first: past 8 members at a density
    above 1/8, a C-level walk over the digits beats one O(width) shift each."""
    if (n := mask.bit_count()) > 8 and n << 3 > mask.bit_length():
        return compress(count(), _digits(mask))
    return _members(mask)


def _members(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Iterate every submask of ``mask``, starting at ``mask``, ending at 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# evidence basis validation


@dataclass(frozen=True)
class BasisViolation:
    """One violated basis condition plus its witness data."""

    kind: str  # empty-element | duplicate-element | outside-universe | uncovered-world | not-directed
    element: int | None = None
    other: int | None = None
    world: int | None = None

    def describe(self, world_names: Sequence[str] | None = None) -> str:
        def nm(mask: int) -> str:
            if world_names is None or mask >> len(world_names):  # past the last name
                return bin(mask)
            return "{" + ",".join(compress(world_names, _digits(mask))) + "}"

        if self.kind == "empty-element":
            return "basis element is empty"
        if self.kind == "duplicate-element":
            return f"duplicate basis element {nm(self.element)}"
        if self.kind == "outside-universe":
            return f"basis element {nm(self.element)} is not a subset of the universe"
        if self.kind == "uncovered-world":
            w = self.world if world_names is None else world_names[self.world]
            return f"world {w} is in no basis element"
        w = self.world if world_names is None else world_names[self.world]
        return (
            f"no common refinement at world {w} for "
            f"{nm(self.element)} and {nm(self.other)}"
        )


@dataclass(frozen=True)
class BasisReport:
    """Every violated basis condition; the basis is valid (``ok``) when
    there is none."""

    violations: tuple[BasisViolation, ...]
    # Per world position, the intersection of the elements containing that
    # world (0 where none does). For a valid basis that is each world's
    # minimal neighborhood, which directedness makes an element itself.
    neighborhoods: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _meets(elements: Sequence[int], universe: int) -> list[int]:
    """Per world position, the intersection of the elements containing that
    world of ``universe``; -1 (every bit set) where no element does."""
    meets = [-1] * universe.bit_length()
    for e in elements:
        for w in bits(e & universe):
            meets[w] &= e
    return meets


def validate_basis(elements: Sequence[int], universe: int) -> BasisReport:
    """Check the two basis conditions (cover, local directedness) plus the
    ingestion rules (non-empty, within universe, no duplicates), and report
    each world's least evidence.

    Violations are data, not faults: the report lists every failed condition
    with a witness. A universe or element that is not a non-negative int is
    no set at all, and a ``FrameError``, as is a basis that is no sequence.
    The elements at a world are directed there exactly when their
    intersection is itself an element (a finite directed family has a least
    member, and any member below all of them is their intersection), so the
    pairwise search for witnesses runs only at worlds failing that test.
    """
    elements = _masks(elements, "basis element")
    _masks((universe,), "universe")
    found: list[BasisViolation] = []
    seen: set[int] = set()
    for e in elements:
        if e == 0:
            found.append(BasisViolation("empty-element", element=e))
        if e & ~universe:
            found.append(BasisViolation("outside-universe", element=e))
        if e in seen:
            found.append(BasisViolation("duplicate-element", element=e))
        seen.add(e)

    meets = _meets(elements, universe)
    for w in bits(universe):
        if meets[w] == -1:
            found.append(BasisViolation("uncovered-world", world=w))
            continue
        if meets[w] in seen:
            continue
        at_w = [e for e in elements if (e >> w) & 1]
        for i, e1 in enumerate(at_w):
            for e2 in at_w[i + 1 :]:
                meet = e1 & e2
                if not any((e3 >> w) & 1 and e3 & ~meet == 0 for e3 in at_w):
                    found.append(
                        BasisViolation("not-directed", element=e1, other=e2, world=w)
                    )
    nbhd = tuple([0 if m == -1 else m for m in meets])
    return BasisReport(tuple(found), nbhd)


# ---------------------------------------------------------------------------
# topologies

_ENUMERATION_LIMIT = 20  # open-set materialization is 2^|universe|


@dataclass(frozen=True)
class Topology:
    """A finite topology given by the minimal open neighborhood of each world.

    A set is open iff it contains the neighborhood of each of its members, so
    membership, hulls, and interiors never need the full open family.
    """

    universe: int
    neighborhoods: tuple[int, ...]  # indexed by world position; 0 off-universe

    def check_subset(self, s: int) -> None:
        if type(s) is not int and not _is_int(s):  # an exact int needs one test
            raise FrameError(f"a world set must be an integer mask, not {s!r:.40}")
        if s & ~self.universe:
            raise FrameError("world set has members outside this universe")

    def is_open(self, s: int) -> bool:
        self.check_subset(s)
        return not self._meeting(s, self.universe & ~s)

    def hull(self, s: int) -> int:
        """The least open superset of ``s``."""
        self.check_subset(s)
        out = 0
        for w in bits(s):
            out |= self.neighborhoods[w]
        return out

    def meeting(self, s: int, x: int) -> int:
        """The worlds of ``s`` whose neighborhood meets ``x``."""
        self.check_subset(s)
        self.check_subset(x)
        return self._meeting(s, x)

    def _meeting(self, s: int, x: int) -> int:
        out = 0
        for w in bits(s):
            if self.neighborhoods[w] & x:
                out |= 1 << w
        return out

    def interior(self, s: int) -> int:
        """The greatest open subset of ``s``: the worlds whose neighborhood
        stays inside it."""
        self.check_subset(s)
        return s & ~self._meeting(s, self.universe & ~s)

    def rooted(self, opens: Iterable[int]) -> list[int]:
        """For each open ``e``, the worlds whose neighborhood ``N(w)`` is ``e``.
        A ``w`` in ``e`` has ``N(w)`` inside ``e``, so the two are equal exactly
        when their sizes are: those worlds are ``e & sized[|e|]``, over a
        per-size table of worlds built once per call. Of ``N(w)`` that is the
        T0 class ``{v : N(v) = N(w)}``. A set that is not open is no ``N(w)``,
        which the first of those worlds shows. No mask is hashed (Python
        hashes a chain's masks into 61 values)."""
        opens = _as_tuple(opens, "opens")
        sized: dict[int, int] = {}
        for w, least in enumerate(self.neighborhoods):
            k = least.bit_count()
            sized[k] = sized.get(k, 0) | 1 << w
        out = []
        for e in opens:
            self.check_subset(e)
            r = e & sized.get(e.bit_count(), 0)
            out.append(r if r and self.neighborhoods[(r & -r).bit_length() - 1] == e else 0)
        return out

    @property
    def opens(self) -> tuple[int, ...]:
        """Every open set, by brute force over all subsets; a test oracle that
        no operator calls."""
        n = self.universe.bit_count()
        if n > _ENUMERATION_LIMIT:
            raise ResourceLimitError(
                f"refusing to enumerate opens over {n} worlds "
                f"(limit {_ENUMERATION_LIMIT})"
            )
        return tuple(sorted(s for s in submasks(self.universe) if self.is_open(s)))


def generate_topology(basis: Sequence[int]) -> Topology:
    """Close a valid evidence basis under arbitrary unions (plus the empty set)
    over the union of its elements.

    The basis is validated first; an invalid one is a ``FrameError``.
    """
    basis = _masks(basis, "basis element")
    universe = 0
    for e in basis:
        universe |= e
    report = validate_basis(basis, universe)
    if not report.ok:
        raise FrameError(
            "invalid basis: " + "; ".join(v.describe() for v in report.violations)
        )
    return Topology(universe, report.neighborhoods)


# ---------------------------------------------------------------------------
# frames


@dataclass(frozen=True)
class AgentSpec:
    """One agent: an evidence basis plus a switching tolerance."""

    name: str
    basis: tuple[int, ...]
    tolerance: int


def _check_tolerance(agent: AgentSpec) -> None:
    if not _is_int(agent.tolerance):
        raise FrameError(f"agent {agent.name}: tolerance must be an integer")
    if agent.tolerance < 0:
        raise FrameError(f"agent {agent.name}: tolerance must be >= 0")


class Frame:
    """A world table plus, per agent, an evidence basis and tolerance.

    Bases are validated at construction; duplicate elements are rejected
    rather than merged. Each agent's topology is built at construction from
    the minimal neighborhoods that validating its basis computes.
    """

    def __init__(self, worlds: Sequence[str], agents: Sequence[AgentSpec]):
        worlds = _as_tuple(worlds, "worlds")
        agents = _as_tuple(agents, "agents")
        if not worlds:
            raise FrameError("frame needs at least one world")
        if any(not isinstance(w, str) or not w for w in worlds) or len(set(worlds)) != len(worlds):
            raise FrameError("world names must be unique and non-empty strings")
        if not agents:
            raise FrameError("frame needs at least one agent")
        for a in agents:
            if not isinstance(a, AgentSpec):
                raise FrameError(f"an agent must be an AgentSpec, not {a!r:.40}")
            if not isinstance(a.basis, (tuple, list)):
                raise FrameError(f"agent {a.name!r}: basis must be a tuple or list of masks")
        names = [a.name for a in agents]
        if any(not isinstance(n, str) or not n for n in names) or len(set(names)) != len(names):
            raise FrameError("agent names must be unique and non-empty strings")

        self.worlds: tuple[str, ...] = worlds
        self.universe: int = (1 << len(worlds)) - 1
        self.agents: tuple[AgentSpec, ...] = agents
        self.agents_by_name: dict[str, AgentSpec] = {a.name: a for a in agents}
        self._index: dict[str, int] = {w: i for i, w in enumerate(worlds)}
        self._topologies: dict[str, Topology] = {}

        for a in agents:
            _check_tolerance(a)
            report = validate_basis(a.basis, self.universe)
            if not report.ok:
                detail = "; ".join(v.describe(worlds) for v in report.violations)
                raise FrameError(f"agent {a.name}: invalid basis: {detail}")
            self._topologies[a.name] = Topology(self.universe, report.neighborhoods)

    # -- world-set conversions ------------------------------------------

    def index(self, world: str) -> int:
        try:
            return self._index[world]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise FrameError(f"unknown world {world!r}") from None

    def mask(self, names: Sequence[str]) -> int:
        out = 0
        for name in _as_tuple(names, "world names"):
            out |= 1 << self.index(name)
        return out

    check_subset = Topology.check_subset  # the one in-frame check, on the frame's universe

    def names(self, mask: int) -> tuple[str, ...]:
        self.check_subset(mask)
        return tuple([*compress(self.worlds, _digits(mask))])

    # -- agents and topologies -------------------------------------------

    def agent(self, name: str) -> AgentSpec:
        try:
            return self.agents_by_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise FrameError(f"unknown agent {name!r}") from None

    def topology(self, agent: str) -> Topology:
        try:
            return self._topologies[agent]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise FrameError(f"unknown agent {agent!r}") from None

    def subspace(self, agent: str, evidence: int) -> Topology:
        """Subspace topology over a basis element, generated by the elements
        inside it (cover follows from directedness); a test oracle that no
        operator calls."""
        basis = self.agent(agent).basis
        if evidence not in basis:
            raise FrameError("subspace root is not a basis element")
        return generate_topology(tuple([e for e in basis if e & ~evidence == 0]))

    # -- evidence queries --------------------------------------------------

    def position(self, world: int | str) -> int:
        """The index of a world given by name or by index."""
        if isinstance(world, str):
            return self.index(world)
        if not _is_int(world) or not 0 <= world < len(self.worlds):
            raise FrameError(f"no world at index {world!r}")
        return world

    def evidence_at(self, agent: str, world: int | str) -> tuple[int, ...]:
        """All basis elements of ``agent`` containing the world."""
        w = self.position(world)
        return tuple([e for e in self.agent(agent).basis if (e >> w) & 1])

    def with_tolerances(self, tolerances: Mapping[str, int]) -> "Frame":
        """A frame with the same worlds and bases but the tolerances that a
        mapping from agent names re-assigns. The bases are not validated
        again, and the topologies are shared (tolerances do not affect
        topologies)."""
        if not isinstance(tolerances, Mapping):
            raise FrameError(f"tolerances must map agent names, not {tolerances!r:.40}")
        for name in tolerances:
            self.agent(name)  # an unknown name is a FrameError, not ignored
        agents = tuple([
            AgentSpec(a.name, a.basis, tolerances.get(a.name, a.tolerance))
            for a in self.agents
        ])
        for a in agents:
            _check_tolerance(a)
        out = copy.copy(self)
        out.agents = agents
        out.agents_by_name = {a.name: a for a in agents}
        return out

    def __repr__(self) -> str:
        return f"Frame(worlds={self.worlds!r}, agents={[a.name for a in self.agents]!r})"


# ---------------------------------------------------------------------------
# model files


def _is_int(value) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass, but not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_tuple(values, what: str) -> tuple:
    """``values`` as a tuple; a string or a non-iterable is a ``FrameError``."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise FrameError(f"{what} must be a sequence, not {values!r:.40}")
    return tuple(values)


def _masks(values, noun: str) -> tuple[int, ...]:
    """``values`` as a tuple of masks: non-negative ints, ``noun`` naming one
    in an error."""
    values = _as_tuple(values, f"{noun}s")
    if not all([type(v) is int or _is_int(v) for v in values]):  # an exact int: one test
        raise FrameError(f"a {noun} is not an integer mask")
    if min(values, default=0) < 0:
        raise FrameError(f"a {noun} is a negative mask")
    return values


def _check_valuation_names(names: Iterable) -> None:
    for p in names:
        if p in ("top", "bot") or not _NAME.fullmatch(str(p)):
            raise FrameError(f"valuation name {p!r} is not one a formula can refer to")


def _is_names(value) -> bool:
    """A JSON list of strings (a bare string is not one)."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_frame(data: Mapping) -> tuple[Frame, dict[str, int]]:
    """Build a frame (and optional valuation) from the JSON model schema:

        { "worlds": ["x","y","z"],
          "agents": [ { "name": "a", "tolerance": 1,
                        "basis": [["x","y","z"], ["y","z"], ["z"]] } ],
          "valuation": { "p": ["x","z"] } }

    Each field must have its JSON type: a string is never read as a list of
    its characters, nor ``true`` or ``1.7`` as tolerance 1. Unknown world
    names are a load error listing the offenders, as is a valuation name
    no formula can refer to (``top``, ``bot``, ``"p q"``).
    """
    if not isinstance(data, dict) or not {"worlds", "agents"} <= data.keys():
        raise FrameError("model file must be an object defining 'worlds' and 'agents'")
    world_list, agent_list, valuation = data["worlds"], data["agents"], data.get("valuation", {})
    if not _is_names(world_list):
        raise FrameError("'worlds' must be a list of world names")
    if not isinstance(agent_list, list) or not isinstance(valuation, dict):
        raise FrameError("'agents' must be a list and 'valuation' an object")

    bit = {w: 1 << i for i, w in enumerate(world_list)}
    unknown: list[str] = []

    def to_mask(names, where: str) -> int:
        if not isinstance(names, list):
            raise FrameError(f"{where} must be a list of world names, not {names!r:.40}")
        out = 0
        try:  # a name that is no known world fails the load
            for name in names:
                out |= bit[name]
            return out
        except (KeyError, TypeError):  # TypeError: an unhashable name
            for name in names:
                if not isinstance(name, str):
                    raise FrameError(f"{where} must list world names, not {name!r:.40}") from None
            unknown.extend([f"{name!r} in {where}" for name in names if name not in bit])
            return 0

    agents = []
    for spec in agent_list:
        if not isinstance(spec, dict) or not {"name", "tolerance", "basis"} <= spec.keys():
            raise FrameError("each agent needs a 'name', a 'tolerance' and a 'basis'")
        name, basis = spec["name"], spec["basis"]
        if not isinstance(basis, list):  # Frame checks the name and the tolerance
            raise FrameError(f"agent {name!r}: basis must be a list of evidence")
        basis = tuple([to_mask(e, f"basis of agent {name!r}") for e in basis])
        agents.append(AgentSpec(name, basis, spec["tolerance"]))

    _check_valuation_names(valuation)
    masks = {str(p): to_mask(ws, f"valuation of {p!r}") for p, ws in valuation.items()}
    if unknown:
        raise FrameError("unknown world names: " + ", ".join(unknown))
    return Frame(world_list, agents), masks


def read_json(path: str, what: str, error: type[ValueError] = FrameError):
    """The JSON value in a file. A file that cannot be read or is not JSON
    raises ``error``, naming the file as ``what``, as does a path that is no
    ``str``, ``bytes`` or ``os.PathLike``: ``open`` would read an int as a
    file descriptor, and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise error(f"{what} path must be a string or a path object, not {path!r:.40}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # also undecodable bytes or a NUL in the path
        raise error(f"cannot read {what} {path}: {exc}") from None


def load_frame_file(path: str) -> tuple[Frame, dict[str, int]]:
    return load_frame(read_json(path, "model file"))
