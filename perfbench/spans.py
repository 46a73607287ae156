"""Spans around the calls each module makes into another module.

``Tracer.install`` replaces a function by a timing wrapper under the name
its caller sees (``plogic.cli.evaluate``, ``plogic.proof.io.parse``, ...),
so a function's calls to itself and to its own module stay unwrapped and
nothing in ``src/`` changes.  Spans are kept in flat arrays while the run
goes and written out only when it ends.  Some spans carry a probe: the
call's arguments and result, turned into counts (rows, lines, bytes, node
sharing) after the operation ends, outside every timed region.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict

import oracle

# (calling module, name it calls, span name, probe)
CALLS = [
    ("workloads", "cli_main", "cli.main", None),
    ("workloads", "parse", "parser.parse", "text"),
    ("workloads", "prove_tautology", "prover.prove", "proof"),
    ("workloads", "proof_to_text", "io.dump", "dump"),
    ("workloads", "check_fresh", "checker.fresh", "check"),
    ("plogic.cli", "parse", "parser.parse", "parse"),
    ("plogic.cli", "render", "parser.render", None),
    ("plogic.cli", "truth_table", "semantics.truth_table", "table"),
    ("plogic.cli", "table_labels", "semantics.table_labels", None),
    ("plogic.cli", "is_parallel", "semantics.relation", "relation"),
    ("plogic.cli", "is_perpendicular", "semantics.relation", "relation"),
    ("plogic.cli", "evaluate", "semantics.evaluate", None),
    ("plogic.cli", "load_proof", "io.load", "load"),
    ("plogic.cli", "check_proof", "checker.check", "check"),
    ("plogic.cli", "prove_tautology", "prover.prove", "proof"),
    ("plogic.cli", "proof_to_text", "io.dump", "dump"),
    ("plogic.cli", "proof_to_json", "io.dump", "dump"),
    ("plogic.proof.io", "parse", "parser.parse", "text"),
    ("plogic.proof.io", "render", "parser.render", None),
    ("plogic.proof.checker", "axiom_instance", "axioms.instance@checker", None),
    ("plogic.proof.checker", "definiens", "defs@checker", None),
    ("plogic.proof.checker", "match_definiens", "defs@checker", None),
    ("plogic.proof.prover", "axiom_instance", "axioms.instance@prover", None),
    ("plogic.proof.prover", "definiens", "defs@prover", None),
    ("plogic.proof.prover", "match_definiens", "defs@prover", None),
]

# Row generators: rows are counted; the prover's pre-check loop is the
# only use of ``assignments`` there, so its span runs from the first row
# to the last and covers the evaluations in between.
GENERATORS = [
    ("plogic.cli", "assignments", None, "rows.check"),
    ("plogic.proof.prover", "assignments", "prover.precheck", "rows.precheck"),
]


def node_stats(formulas) -> tuple[int, int]:
    """Node objects reachable from ``formulas``, and structurally distinct nodes."""
    struct: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    for root in formulas:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in struct:
                continue
            kids = ()
            if hasattr(node, "child"):
                kids = (node.child,)
            elif hasattr(node, "left"):
                kids = (node.left, node.right)
            if kids and not ready:
                stack.append((node, True))
                stack.extend((k, False) for k in kids)
                continue
            if kids:
                key = (getattr(node, "op", None),) + tuple(struct[id(k)] for k in kids)
            else:
                key = ("atom", node.name)
            struct[id(node)] = keys.setdefault(key, len(keys))
    return len(struct), len(keys)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.probes: list[tuple] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # --- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, parent: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        return idx

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.stack.append(self._open(self._nid("op." + kind), -1))

    def end_op(self) -> None:
        self.end[self.stack.pop()] = time.perf_counter()

    def _wrapper(self, fn, nid: int, probe):
        stack, end, clock, probes = self.stack, self.end, time.perf_counter, self.probes
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid, stack[-1] if stack else -1)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                probes.append((probe, idx, args, result))
            return result

        return wrapper

    def _generator(self, fn, nid, counter: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = None if nid is None else tracer._open(nid, tracer.stack[-1] if tracer.stack else -1)
            rows = 0
            try:
                for row in fn(*args, **kwargs):
                    rows += 1
                    yield row
            finally:
                if idx is not None:
                    tracer.end[idx] = time.perf_counter()
                tracer.counts[counter] += rows

        return wrapper

    def install(self) -> None:
        for module, attr, span, probe in CALLS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(fn, self._nid(span), probe))
        for module, attr, span, counter in GENERATORS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._restore.append((mod, attr, fn))
            nid = None if span is None else self._nid(span)
            setattr(mod, attr, self._generator(fn, nid, counter))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, fn = self._restore.pop()
            setattr(mod, attr, fn)

    # --- after each operation --------------------------------------------

    def settle(self, new_input: bool) -> None:
        """Turn the probes of the last operation into counts.

        Node sharing is measured on an input's first run only, since it is
        the same on every run and costs a walk over every node.
        """
        c = self.counts
        formulas: list = []
        for probe, idx, args, result in self.probes:
            name = self.names[self.name[idx]]
            if probe in ("text", "parse"):
                c["parse.chars"] += len(args[0])
                if probe == "parse":
                    formulas.append(result)
            elif probe == "proof":
                c["prover.lines"] += len(result.lines)
                formulas.extend(ln.formula for ln in result.lines)
            elif probe == "dump":
                c["dump.bytes"] += len(result.encode())
            elif probe == "load":
                c["load.bytes"] += len(args[0].encode())
                formulas.extend(ln.formula for ln in result.lines)
            elif probe == "check":
                lines = result.line if not result.accepted and result.line else len(args[0].lines)
                c[name + ".lines"] += lines
                if not result.accepted:
                    c["rejects." + str(result.reason)] += 1
            elif probe == "table":
                c["rows.table"] += len(result.rows)
                c["cells"] += len(result.rows) * len(result.columns)
            elif probe == "relation":
                cols = oracle.Columns(oracle.atom_order(*args), prefix=0)
                full = 1 << cols.n
                rows = full if result.witness is None else cols.index_of(result.witness) + 1
                c["rows.relation"] += rows
                c["cells"] += 2 * rows
        if new_input and formulas:
            objects, distinct = node_stats(formulas)
            c["formula.objects"] += objects
            c["formula.distinct"] += distinct
        self.probes.clear()

    # --- when the run ends -----------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children's spans cover."""
        children = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(len(self.start)):
            s, e = self.start[i], self.end[i]
            covered, reach = 0.0, s
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                lo, hi = max(self.start[c], reach), min(self.end[c], e)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((e - s) - covered)
        return out

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of spans, busy seconds, self seconds."""
        calls, busy, own = Counter(), Counter(), Counter()
        for i, t in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            calls[name] += 1
            busy[name] += self.end[i] - self.start[i]
            own[name] += t
        return calls, busy, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("op,span,parent,name,start,end\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.op[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )
