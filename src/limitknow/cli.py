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


def _names(model: Model, mask: int) -> list[str]:
    return list(model.frame.names(mask))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        payload["schema"] = 1
        print(json.dumps(payload, indent=2, sort_keys=True))
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
        {"valid": result.valid, "counterexamples": list(result.counterexamples)},
        ["valid"]
        if result.valid
        else [f"invalid at: {', '.join(result.counterexamples)}"],
    )
    return OK if result.valid else PROPERTY_FAILED


def _cmd_eval(args) -> int:
    model = Model.from_file(args.model)
    ext = evaluate(model, parse(args.formula))
    names = _names(model, ext)
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
        return None if r.witness is None else [_names(model, o) for o in r.witness]

    _emit(
        args,
        {
            "set": _names(model, s),
            "open_rank": render(open_r),
            "open_witness": chain(open_r),
            "closed_rank": render(closed_r),
            "closed_witness": chain(closed_r),
        },
        [
            f"set: {{{', '.join(_names(model, s))}}}",
            f"open rank: {render(open_r)}"
            + (f", witness {chain(open_r)}" if open_r.witness else ""),
            f"closed rank: {render(closed_r)}"
            + (
                f", witness (for the complement) {chain(closed_r)}"
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
    p = world_set(model, args.set)
    w = None if args.witness is None else world_set(model, args.witness)
    if not takes_witness and w is not None:
        raise FrameError(f"operator {op} does not take --witness")
    # Past the checks, the given flags are the ones the operator takes.
    operands = [x for x in (args.agent, w, p) if x is not None]
    out = getattr(model.context, _OPS[op])(*operands)
    names = _names(model, out)
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
        s.owner: [
            {"evidence": _names(model, e), "verdict": v}
            for e, v in sorted(s.verdicts.items())
        ]
        for s in protocol.strategies
    }
    lines = []
    for owner, rows in tables.items():
        lines.append(f"agent {owner}:")
        for row in rows:
            lines.append(f"  {{{', '.join(row['evidence'])}}} -> {row['verdict']}")
    lines.append(f"success set: {{{', '.join(_names(model, success))}}}")
    _emit(
        args,
        {
            "feasible": True,
            "strategies": tables,
            "success_set": _names(model, success),
        },
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
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="limitknow",
        description="finite-frame engine for inductive knowledge operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("-m", "--model", required=True, help="model JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="check a formula for validity")
    common(p)
    p.add_argument("-f", "--formula", required=True)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a formula to a world set")
    common(p)
    p.add_argument("-f", "--formula", required=True)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("rank", help="open/closed rank of a world set")
    common(p)
    p.add_argument("-a", "--agent", required=True)
    p.add_argument("-s", "--set", required=True, help="worlds or @formula")
    p.set_defaults(run=_cmd_rank)

    p = sub.add_parser("ops", help="apply one epistemic operator")
    common(p)
    p.add_argument("-a", "--agent")
    p.add_argument("--op", required=True, choices=sorted(_OPS))
    p.add_argument("-p", "--set", required=True, help="operand worlds or @formula")
    p.add_argument("-w", "--witness", help="witness worlds or @formula (I/B/G)")
    p.set_defaults(run=_cmd_ops)

    p = sub.add_parser("synth", help="synthesize an attestation protocol")
    common(p)
    p.add_argument("-p", "--prop", required=True, help="proposition worlds or @formula")
    p.add_argument("--target", help="success-set worlds")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("simulate", help="run a simulation scenario file")
    common(p, model=False)
    p.add_argument("-s", "--scenario", required=True)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("laws", help="run the soundness battery")
    common(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_laws)

    return parser


def main(argv: list[str] | None = None) -> int:
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
