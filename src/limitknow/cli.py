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

from .attest import ProtocolError, load_scenario, run_scenario, synthesize, verify_protocol
from .frame import FrameError, ResourceLimitError
from .hierarchy import closed_rank, open_rank
from .laws import law_battery
from .logic import EvalError, Model, ParseError, check, evaluate, parse

OK, PROPERTY_FAILED, INPUT_ERROR, RESOURCE_LIMIT = 0, 1, 2, 3


def _world_set(model: Model, spec: str) -> int:
    """Resolve a world-set flag: ``@formula`` forces formula evaluation;
    otherwise comma-separated world names, falling back to a formula when
    some name is not a world."""
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
    s = _world_set(model, args.set)
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


_UNARY_OPS = {"R", "S", "C", "L"}
_BINARY_OPS = {"I", "B", "G"}
_AGENT_OPS = {"R", "S", "I", "B"}


def _cmd_ops(args) -> int:
    model = Model.from_file(args.model)
    ctx = model.context
    op = args.op
    if op in _AGENT_OPS and not args.agent:
        raise FrameError(f"operator {op} needs --agent")
    if op not in _AGENT_OPS and args.agent:
        raise FrameError(f"operator {op} does not take --agent")
    if op in _BINARY_OPS and not args.witness:
        raise FrameError(f"operator {op} needs --witness")
    p = _world_set(model, args.set)
    w = _world_set(model, args.witness) if args.witness else None
    if op == "R":
        out = ctx.reason(args.agent, p)
    elif op == "S":
        out = ctx.true_reason(args.agent, p)
    elif op == "I":
        out = ctx.indicates(args.agent, w, p)
    elif op == "B":
        out = ctx.believes_via(args.agent, w, p)
    elif op == "G":
        out = ctx.generates(w, p)
    elif op == "C":
        out = ctx.common(p)
    else:
        out = ctx.lewis_common(p)
    names = _names(model, out)
    _emit(args, {"op": op, "result": names}, ["{" + ", ".join(names) + "}"])
    return OK


def _cmd_synth(args) -> int:
    model = Model.from_file(args.model)
    target_prop = _world_set(model, args.prop)
    success = _world_set(model, args.target) if args.target else None
    try:
        protocol = synthesize(model.frame, target_prop, success)
    except ProtocolError as exc:
        _emit(args, {"feasible": False, "error": str(exc)}, [f"infeasible: {exc}"])
        return PROPERTY_FAILED
    report = verify_protocol(model.frame, protocol, target_prop)
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
    lines.append(f"success set: {{{', '.join(_names(model, report.success_set))}}}")
    _emit(
        args,
        {
            "feasible": True,
            "strategies": tables,
            "success_set": _names(model, report.success_set),
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
    _emit(
        args,
        {
            "ok": report.ok,
            "results": [
                {
                    "name": r.name,
                    "trials": r.trials,
                    "informative": r.informative,
                    "failures": [
                        {
                            "instantiation": f.instantiation,
                            "counterexamples": list(f.counterexamples),
                        }
                        for f in r.failures
                    ],
                }
                for r in report.results
            ],
        },
        lines,
    )
    return OK if report.ok else PROPERTY_FAILED


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--op", required=True, choices=sorted(_UNARY_OPS | _BINARY_OPS))
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
