"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` replaces each public function or method named in
``TARGETS`` with a wrapper, in every ``limitknow`` module that holds it, so
calls made between modules are seen too. Nothing under ``src/`` changes.
Each span is (name, start, end, parent span, operation id); spans stay in
memory until ``write`` puts them in a file.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "frame", "hierarchy", "operators", "logic", "laws", "attest")

# (layer, module, attribute); "Class.method" names a method or property.
TARGETS = [
    ("cli", "limitknow.cli", "main"),
    ("frame", "limitknow.frame", "load_frame_file"),
    ("frame", "limitknow.frame", "validate_basis"),
    ("frame", "limitknow.frame", "Frame.topology"),
    ("frame", "limitknow.frame", "Frame.subspace"),
    ("frame", "limitknow.frame", "Topology.opens"),
    ("hierarchy", "limitknow.hierarchy", "gives_reason"),
    ("hierarchy", "limitknow.hierarchy", "open_rank"),
    ("hierarchy", "limitknow.hierarchy", "method_from_chain"),
    ("hierarchy", "limitknow.hierarchy", "max_switches"),
    ("hierarchy", "limitknow.hierarchy", "limit_verdicts"),
    ("operators", "limitknow.operators", "OperatorContext.two_open_family"),
    ("operators", "limitknow.operators", "OperatorContext.true_reason"),
    ("operators", "limitknow.operators", "OperatorContext.common"),
    ("operators", "limitknow.operators", "OperatorContext.lewis_common"),
    ("operators", "limitknow.operators", "OperatorContext.reason"),
    ("operators", "limitknow.operators", "OperatorContext.indicates"),
    ("operators", "limitknow.operators", "OperatorContext.believes_via"),
    ("operators", "limitknow.operators", "OperatorContext.generates"),
    ("logic", "limitknow.logic", "parse"),
    ("logic", "limitknow.logic", "evaluate"),
    ("logic", "limitknow.logic", "check"),
    ("laws", "limitknow.laws", "law_battery"),
    ("attest", "limitknow.attest", "synthesize"),
    ("attest", "limitknow.attest", "verify_protocol"),
    ("attest", "limitknow.attest", "simulate"),
    ("attest", "limitknow.attest", "generate_stream"),
    ("attest", "limitknow.attest", "load_scenario"),
]


def span_name(layer, attr):
    """``frame.topology`` for ``Frame.topology``: layer plus the last part."""
    return f"{layer}.{attr.split('.')[-1]}"


NAMES = [span_name(layer, attr) for layer, _, attr in TARGETS]

# What a traced run reports, as per-operation averages.
REPORTED = (
    ["cli.self_ms"]
    + [f"{n}_ms" for n in NAMES if n not in ("cli.main", "logic.check")]
    + [f"{n}_calls" for n in (
        "frame.validate_basis", "frame.subspace", "hierarchy.gives_reason",
        "hierarchy.open_rank", "operators.true_reason", "operators.reason",
        "logic.evaluate", "logic.check")]
    + [f"{layer}.self_ms" for layer in LAYERS if layer != "cli"]
    + ["trace.overhead_pct"]
)


class Tracer:
    """Spans in flat arrays (about 30 bytes each): name index, start, end,
    parent span (-1 at the top), operation id, and whether a span of the
    same name was already open (its time is then counted once)."""

    def __init__(self):
        self.names, self.parents, self.ops = array("i"), array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.nested = bytearray()
        self.stack = []
        self.active = [0] * len(NAMES)
        self.op = -1
        self._patched = []

    def __len__(self):
        return len(self.names)

    def _wrap(self, index, fn):
        names, parents, ops, starts, ends = self.names, self.parents, self.ops, self.starts, self.ends
        nested, stack, active = self.nested, self.stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            nested.append(active[index] > 0)
            starts.append(0.0)
            ends.append(0.0)
            active[index] += 1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[index] -= 1
                starts[sid], ends[sid] = start, end

        return traced

    def install(self):
        for index, (_, module, attr) in enumerate(TARGETS):
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, property):
                    replacement = property(self._wrap(index, original.fget))
                else:
                    replacement = self._wrap(index, original)
                self._patched.append((cls, meth, original))
                setattr(cls, meth, replacement)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(index, original)
            for name, other in list(sys.modules.items()):
                if name.split(".")[0] == "limitknow" and getattr(other, attr, None) is original:
                    self._patched.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self, n_ops, overhead_pct):
        """Per-operation averages: inclusive ms and call counts per traced
        name, and self ms per layer (a span's duration less its children's).
        Inclusive time counts only the outermost span of a name."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += d
        incl = [0.0] * len(NAMES)
        calls = [0] * len(NAMES)
        self_time = dict.fromkeys(LAYERS, 0.0)
        for sid, index in enumerate(self.names):
            calls[index] += 1
            if not self.nested[sid]:
                incl[index] += durations[sid]
            self_time[TARGETS[index][0]] += durations[sid] - child[sid]
        out = {"trace.overhead_pct": overhead_pct}
        for index, name in enumerate(NAMES):
            out[f"{name}_ms"] = 1000 * incl[index] / n_ops
            out[f"{name}_calls"] = calls[index] / n_ops
        for layer, secs in self_time.items():
            out[f"{layer}.self_ms"] = 1000 * secs / n_ops
        return {name: out[name] for name in REPORTED}

    def write(self, path):
        """One JSON list per span: name, start, end, parent, operation id."""
        with open(path, "w") as fh:
            for sid, index in enumerate(self.names):
                fh.write(json.dumps([NAMES[index], self.starts[sid], self.ends[sid],
                                     self.parents[sid], self.ops[sid]]) + "\n")
