"""Check one pass of answers against the oracle and against laws.

Each operation carries a ``check``: what its answer must equal or satisfy.
Answers compared with each other (``R R q = R q``, ``B = R & I``,
``G <= B``) are looked up by group name within the same pass.
"""

from __future__ import annotations

import json

import oracle


def check_pass(ops, outputs, frames):
    """Return (indices of failed operations, list of problems)."""
    failing, problems, groups = set(), [], {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        check = op["check"]
        if frames is None:
            problem = _laws_output(out, check["trials"])
        else:
            code, stdout, stderr = out
            fault = check.get("fault")
            if fault and code == 2 and stderr.strip() == f"error: {fault}":
                failing.add(i)
                continue
            argv = op["argv"]
            frame, valuation = frames[argv[argv.index("-m") + 1]] if "-m" in argv else (None, None)
            try:
                problem = _cli_output(check, code, stdout, frame, valuation, groups)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable answer ({exc!r})"
            if problem and code not in (0, 1):
                failing.add(i)
        if problem:
            argv = " ".join(op["argv"]) if frames is not None else op["model"]
            problems.append(f"{argv}: {problem}: {str(out)[:300]}")
    return failing, problems


def _laws_output(out, trials):
    if isinstance(out, str):
        return "law battery raised"
    if not out["ok"] or not out["results"]:
        return "a law failed"
    if any(r[1] != trials or r[3] for r in out["results"]):
        return "law results do not match the trials run"
    return None


def _cli_output(check, code, stdout, frame, valuation, groups):
    kind = check["kind"]
    data = json.loads(stdout) if code in (0, 1) else None
    if data is None or data.get("schema") != 1:
        return f"exit {code}"
    if kind in ("valid", "valid_oracle"):
        missing = []
        if kind == "valid_oracle":
            ext = oracle.evaluate(frame, valuation, check["formula"])
            missing = frame.names(frame.universe & ~ext)
        if code != (1 if missing else 0) or data["valid"] != (not missing):
            return "wrong validity"
        if data["counterexamples"] != missing:
            return "wrong counterexamples"
        return None
    if code != 0:
        return f"exit {code}"

    if kind == "extension":
        ext = oracle.evaluate(frame, valuation, check["formula"])
        return None if data["extension"] == frame.names(ext) else "wrong extension"
    if kind == "laws":
        if data["ok"] is not True or not data["results"]:
            return "a law failed"
        if any(r["failures"] or r["trials"] != check["trials"] for r in data["results"]):
            return "law results do not match the trials run"
        return None
    if kind == "rank":
        return _rank_problem(frame.agents[check["agent"]], check["set"], data, frame)
    if kind == "protocol":
        return _protocol_problem(frame, check, data)
    if kind == "simulation":
        return _simulation_problem(check, data)

    result = frame.mask(data["result"])
    if kind == "reason":
        groups[check["group"]] = result
        if not frame.agents[check["agent"]].is_open(result):
            return "R is not open (not a union of evidence)"
        return None
    if kind == "same":
        return None if result == groups[check["as"]] else "R R q differs from R q"
    if kind == "record":
        groups[check["group"]] = result
        return None
    if kind == "meet":
        groups[check["group"]] = result
        a, b = (groups[g] for g in check["of"])
        return None if result == a & b else "B[a @ q] r differs from R[a] q & I[a @ q] r"
    if kind == "subset":
        return None if result & ~groups[check["of"]] == 0 else "G[q] r is not inside B[a @ q] r"
    if kind == "true_reason":
        want = frame.agents[check["agent"]].true_reason(check["set"])
        return None if result == want else "wrong S"
    if kind == "common":
        return None if result == frame.common(check["set"]) else "wrong C"
    if kind == "lewis":
        c = frame.common(check["set"])
        if result & ~c:
            return "L is not inside C"
        if oracle.feasible(frame, c) and result != c:
            return "L differs from a feasible C"
        return None
    raise ValueError(f"unknown check {kind}")


def _rank_problem(agent, s, data, frame):
    comp = frame.universe & ~s
    for key, target in (("open", s), ("closed", comp)):
        want = oracle.open_rank(agent, target)
        got = data[f"{key}_rank"]
        if want == oracle.INFINITE:
            if got != "infinite" or data[f"{key}_witness"] is not None:
                return f"{key} rank should be infinite"
            continue
        if got != want:
            return f"{key} rank {got}, expected {want}"
        chain = [frame.mask(names) for names in data[f"{key}_witness"]]
        if len(chain) != want:
            return f"{key} witness has the wrong length"
        problem = oracle.chain_problem(agent, chain, target)
        if problem:
            return f"{key} witness: {problem}"
    return None


def _protocol_problem(frame, check, data):
    if data.get("feasible") is not True:
        return "synthesis reported infeasible"
    table = {
        owner: {frame.mask(row["evidence"]): row["verdict"] for row in rows}
        for owner, rows in data["strategies"].items()
    }
    success = frame.mask(data["success_set"])
    return oracle.protocol_problem(frame, table, check["prop"], success, check["success"])


def _simulation_problem(check, data):
    want = "yes" if check["in_success"] else "defer"
    if data["aggregator_limit"] != want:
        return "aggregator limit disagrees with the success set"
    honest = [a for a in data["limits"] if a not in check["faults"]]
    if any(data["limits"][a] != want for a in honest):
        return "an honest limit disagrees with the success set"
    if data["shame"]:
        return "a valid protocol was shamed"
    if data["faults"] != sorted(check["faults"]):
        return "wrong faults"
    lengths = {len(t) for t in data["traces"].values()} | {len(data["aggregator_trace"])}
    if lengths != {check["steps"]}:
        return "traces do not cover the step cap"
    return None
