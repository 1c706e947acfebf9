"""Command-line entry point: model checking, operator evaluation, rank
queries, protocol synthesis, simulation, and the soundness battery.

Exit codes: 0 success (or property holds), 1 a checked property fails
(invalid formula, infeasible target, law failure), 2 input error, 3 resource
limit (valid input would exceed a cap: the witness enumeration of L and
target-free synth, or a simulation's step cap).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .attest import ProtocolError, choose_success_set, load_scenario, run_scenario, synthesize
from .frame import FrameError, ResourceLimitError
from .hierarchy import closed_rank, open_rank
from .laws import law_battery
from .logic import MODALITIES, EvalError, Model, ParseError, check, evaluate, parse, world_set

OK, PROPERTY_FAILED, INPUT_ERROR, RESOURCE_LIMIT = 0, 1, 2, 3


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Print the report: with ``--json``, ``payload`` plus ``"schema": 1`` as
    one line of JSON with sorted keys (``python -m json.tool`` indents it);
    otherwise the text lines.

    No ``indent``: given one, CPython 3.11's ``json`` encodes with its
    pure-Python encoder instead of the C one.
    """
    if args.json:
        payload["schema"] = 1
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    model = Model.from_file(args.model)
    result = check(model, parse(args.formula))
    _emit(
        args,
        {"valid": result.valid, "counterexamples": result.counterexamples},
        ["valid"]
        if result.valid
        else [f"invalid at: {', '.join(result.counterexamples)}"],
    )
    return OK if result.valid else PROPERTY_FAILED


def _cmd_eval(args) -> int:
    model = Model.from_file(args.model)
    ext = evaluate(model, parse(args.formula))
    names = model.frame.names(ext)
    _emit(args, {"extension": names}, ["{" + ", ".join(names) + "}"])
    return OK


def _cmd_rank(args) -> int:
    model = Model.from_file(args.model)
    topo = model.frame.topology(args.agent)
    s = world_set(model, args.set)
    open_r = open_rank(topo, s)
    closed_r = closed_rank(topo, s)

    def render(r):
        return "infinite" if r.is_infinite else r.rank

    def chain(r):
        # Lists, not tuples: the text lines print a chain's repr.
        return None if r.witness is None else [list(model.frame.names(o)) for o in r.witness]

    members, open_chain, closed_chain = model.frame.names(s), chain(open_r), chain(closed_r)
    _emit(
        args,
        {
            "set": members,
            "open_rank": render(open_r),
            "open_witness": open_chain,
            "closed_rank": render(closed_r),
            "closed_witness": closed_chain,
        },
        [
            f"set: {{{', '.join(members)}}}",
            f"open rank: {render(open_r)}" + (f", witness {open_chain}" if open_r.witness else ""),
            f"closed rank: {render(closed_r)}"
            + (
                f", witness (for the complement) {closed_chain}"
                if closed_r.witness
                else ""
            ),
        ],
    )
    return OK


# Each ``--op`` by symbol: the ``OperatorContext`` method it calls, with the
# agent, the witness and the operand its node class takes, in that order. L,
# the Lewis variant of C, has no node and takes what C takes.
_OPS = {
    "R": "reason",
    "S": "true_reason",
    "I": "indicates",
    "B": "believes_via",
    "G": "generates",
    "C": "common",
    "L": "lewis_common",
}


def _cmd_ops(args) -> int:
    model = Model.from_file(args.model)
    op = args.op
    fields = MODALITIES["C" if op == "L" else op].__match_args__
    takes_agent, takes_witness = "agent" in fields, "witness" in fields
    if takes_agent and args.agent is None:
        raise FrameError(f"operator {op} needs --agent")
    if not takes_agent and args.agent is not None:
        raise FrameError(f"operator {op} does not take --agent")
    if takes_witness and args.witness is None:
        raise FrameError(f"operator {op} needs --witness")
    if not takes_witness and args.witness is not None:
        raise FrameError(f"operator {op} does not take --witness")
    p = world_set(model, args.set)
    w = None if args.witness is None else world_set(model, args.witness)
    # Past the checks, the given flags are the ones the operator takes.
    operands = [x for x in (args.agent, w, p) if x is not None]
    out = getattr(model.context, _OPS[op])(*operands)
    names = model.frame.names(out)
    _emit(args, {"op": op, "result": names}, ["{" + ", ".join(names) + "}"])
    return OK


def _cmd_synth(args) -> int:
    model = Model.from_file(args.model)
    target_prop = world_set(model, args.prop)
    success = None if args.target is None else world_set(model, args.target)
    try:
        success = choose_success_set(model.frame, target_prop, success)
        protocol = synthesize(model.frame, target_prop, success)
    except ProtocolError as exc:
        _emit(args, {"feasible": False, "error": str(exc)}, [f"infeasible: {exc}"])
        return PROPERTY_FAILED
    tables = {
        agent: [
            {"evidence": model.frame.names(e), "verdict": v}
            for e, v in sorted(verdicts.items())
        ]
        for agent, verdicts in protocol.items()
    }
    lines = []
    for agent, rows in tables.items():
        lines.append(f"agent {agent}:")
        for row in rows:
            lines.append(f"  {{{', '.join(row['evidence'])}}} -> {row['verdict']}")
    success_names = model.frame.names(success)
    lines.append(f"success set: {{{', '.join(success_names)}}}")
    _emit(
        args,
        {"feasible": True, "strategies": tables, "success_set": success_names},
        lines,
    )
    return OK


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario)
    lines = [f"world: {report.world}", f"faults: {', '.join(report.faults) or '-'}"]
    agents = list(report.traces)
    width = max(len(a) for a in agents + ["aggregator"])
    for a in agents:
        lines.append(f"{a:<{width}}  " + " ".join(v[0].upper() for v in report.traces[a]))
    lines.append(
        f"{'aggregator':<{width}}  "
        + " ".join(v[0].upper() for v in report.aggregator_trace)
    )
    lines.append(f"aggregator limit: {report.aggregator_limit}")
    for s in report.shame:
        lines.append(f"shame: {s.agent} at {s.world} ({s.cause})")
    _emit(args, report.to_dict(), lines)
    return OK


def _cmd_laws(args) -> int:
    model = Model.from_file(args.model)
    report = law_battery(model, trials=args.trials, seed=args.seed)
    lines = []
    for r in report.results:
        status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
        lines.append(f"{r.name:<22} trials={r.trials:<4} informative={r.informative:<4} {status}")
        for f in r.failures[:5]:
            lines.append(f"    {f.instantiation}  fails at {', '.join(f.counterexamples)}")
    lines.append("all laws hold" if report.ok else f"{report.total_failures} failures")
    results = [
        {**vars(r), "failures": [dict(vars(f)) for f in r.failures]} for r in report.results
    ]
    _emit(args, {"ok": report.ok, "results": results}, lines)
    return OK if report.ok else PROPERTY_FAILED


# ---------------------------------------------------------------------------
# argument wiring


@cache
def _build() -> tuple[argparse.ArgumentParser, dict]:
    """The CLI's parser, and for each subcommand its ``run`` function and its
    options by option string: the ``Action`` objects that the parser's own
    ``add_argument`` calls returned. Built on the first call and shared by
    later ones."""
    parser = argparse.ArgumentParser(
        prog="limitknow",
        description="finite-frame engine for inductive knowledge operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, run, help, model=True):
        """Declare a subcommand and return its ``add_argument``, which also
        files each action under its option strings."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        options = {}
        commands[name] = (run, options)

        def option(*flags, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))

        if model:
            option("-m", "--model", required=True, help="model JSON file")
        option("--json", action="store_true", help="machine-readable output")
        return option

    option = command("check", _cmd_check, "check a formula for validity")
    option("-f", "--formula", required=True)

    option = command("eval", _cmd_eval, "evaluate a formula to a world set")
    option("-f", "--formula", required=True)

    option = command("rank", _cmd_rank, "open/closed rank of a world set")
    option("-a", "--agent", required=True)
    option("-s", "--set", required=True, help="worlds or @formula")

    option = command("ops", _cmd_ops, "apply one epistemic operator")
    option("-a", "--agent")
    option("--op", required=True, choices=sorted(_OPS))
    option("-p", "--set", required=True, help="operand worlds or @formula")
    option("-w", "--witness", help="witness worlds or @formula (I/B/G)")

    option = command("synth", _cmd_synth, "synthesize an attestation protocol")
    option("-p", "--prop", required=True, help="proposition worlds or @formula")
    option("--target", help="success-set worlds")

    option = command("simulate", _cmd_simulate, "run a simulation scenario file", model=False)
    option("-s", "--scenario", required=True)

    option = command("laws", _cmd_laws, "run the soundness battery")
    option("--trials", type=int, default=20)
    option("--seed", type=int, default=0)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones."""
    return _build()[0]


def _read_plain(argv) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read
    straight from the declared options when the call is plain; else None.

    Plain: every token is a ``str``, the first names a subcommand, and each
    later one is an exact option string of it, either a flag or followed by
    a value that does not start with ``-``; no option repeats, every required
    one is given, and each value converts with its action's ``type`` (a
    ``ValueError`` means not plain) and lies in its ``choices``. Options not
    given take their defaults. Anything else (help, abbreviations,
    ``--opt=value``, repeats, ``--``, negative numbers, usage errors) is
    argparse's to read, and argparse alone prints help and errors.
    """
    found = _build()[1].get(argv[0]) if argv and isinstance(argv[0], str) else None
    if found is None:
        return None
    run, options = found
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token) if isinstance(token, str) else None
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:  # a store_true flag
            values[action.dest] = action.const
            continue
        value = next(tokens, None)
        if not isinstance(value, str) or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in options.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(command=argv[0], run=run, **values)


def main(argv: list[str] | None = None) -> int:
    """Run one command line, ``sys.argv[1:]`` by default. An ``argv`` that is
    a string or no iterable, or holds a token that is not a string, is a
    usage error (exit 2)."""
    if argv is None:
        argv = sys.argv[1:]
    elif isinstance(argv, str):
        build_parser().error("argv must be a list of strings, not one string")
    else:
        try:
            argv = list(argv)
        except TypeError:  # no iterable
            build_parser().error(f"argv must be a list of strings, not {argv!r:.40}")
    args = _read_plain(argv)
    if args is None:
        if not all([isinstance(token, str) for token in argv]):
            build_parser().error("every command-line argument must be a string")
        args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FrameError, ParseError, EvalError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ResourceLimitError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return RESOURCE_LIMIT


if __name__ == "__main__":
    sys.exit(main())
