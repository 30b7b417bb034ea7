"""Per-layer spans recorded from outside the program.

The tracer replaces attributes on implisolve's classes and modules with
wrappers that record a span per call: name, start, end and parent. It
never hands a proxy object to the solver (normalize branches on
isinstance(F, ExprFunction), so a proxy would run a different program),
and it patches each name where its caller looks it up: dini, inverse and
cli import build_system, build_implicit, the linalg helpers and others by
name. The expression evaluator captures the dual module's functions in
its compiled globals, so dual arithmetic cannot be wrapped; its cost is
read off as the difference between a dual pass (partial) and a float pass
(eval).

Spans live in flat arrays for the duration of one top-level operation
(one build, query, Jacobian, scan or in-process CLI call, whose root span
the tracer opens itself). When the operation ends they are folded into
per-name totals: count, inclusive time and self time, where self time is
a span's duration minus the durations of its direct children (calls are
single-threaded and properly nested, so children never overlap). The
fold checks that the self times of an operation's spans sum exactly to
its root span's duration. The spans of the first operation of each kind
are kept and written out at the end of the run; keeping every span of a
run would take hundreds of megabytes on the m = 3 workload.

Each ImplicitSolution is labelled with its recursion level (level k as in
box_metadata()): during a build from the depth of build_system recursion,
and after the build by walking the SystemSolution stack, which must agree.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict

MAX_LEVEL = 6
KEEP_SPANS = 100_000  # largest operation whose spans are written out

_perf_ns = time.perf_counter_ns

LINALG_FUNCTIONS = (
    "det",
    "hs_norm",
    "identity",
    "inverse",
    "matmul",
    "matvec",
    "scale",
    "solve",
    "split_columns",
    "vec_sub",
)


class Totals:
    """Span totals folded from whole operations."""

    def __init__(self):
        self.ops = Counter()  # op kind -> operations folded
        self.spans = defaultdict(lambda: [0, 0, 0])  # (kind, name) -> [count, incl_ns, self_ns]
        self.pairs = Counter()  # (kind, caller name, callee name) -> calls
        self.under_box = Counter()  # (kind, level) -> solves below that level's find_box
        self.boxes = defaultdict(lambda: [0, 0])  # level -> [boxes found, attempts]

    def _sum(self, kinds, name, field):
        return sum(self.spans[(k, name)][field] for k in kinds if (k, name) in self.spans)

    def count(self, kinds, name):
        return self._sum(kinds, name, 0)

    def incl(self, kinds, name):
        return self._sum(kinds, name, 1)

    def self_ns(self, kinds, name):
        return self._sum(kinds, name, 2)

    def layer(self, kinds, prefix):
        """(count, self_ns) over every span whose name starts with prefix."""
        count = total = 0
        for (kind, name), (c, _, s) in self.spans.items():
            if kind in kinds and name.startswith(prefix):
                count += c
                total += s
        return count, total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per-operation span buffers, cleared in place after each fold
        self.starts = array("q")
        self.ends = array("q")
        self.name_of = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.levels: dict[int, tuple[object, int]] = {}  # id(ImplicitSolution) -> (it, level)
        self.depth = [0]  # build_system recursion depth
        self.box_log: list[tuple[int, int]] = []  # (level, shrinks) in the current op
        self.all = Totals()
        self.prefix = Totals()  # the operations whose counts are reported
        self.in_prefix = True
        self.kept: dict[str, dict] = {}
        self.problems: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._solve_ids = [self.name_id(f"scalar_implicit.solve_at@L{k}") for k in range(MAX_LEVEL + 1)]
        self._find_box_ids = [self.name_id(f"scalar_implicit.find_box@L{k}") for k in range(MAX_LEVEL + 1)]

    # -- names -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span recording ----------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(i)
        self.starts[i] = _perf_ns()
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = _perf_ns()
        self.stack.pop()

    def _fixed(self, fn, name):
        """Wrapper for the hot paths: one name, inlined bookkeeping."""
        nid = self.name_id(name)
        name_of, parent, starts, ends, stack = (
            self.name_of, self.parent, self.starts, self.ends, self.stack,
        )

        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = _perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = _perf_ns()
                stack.pop()

        return traced

    def _solve_at(self, fn):
        """ImplicitSolution methods, named by the solution's level."""
        ids, levels = self._solve_ids, self.levels

        def traced(sol, *args, **kwargs):
            entry = levels.get(id(sol))
            i = self._open(ids[entry[1]] if entry is not None and entry[0] is sol else ids[0])
            try:
                return fn(sol, *args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _build_system(self, fn):
        """Recursion depth comes from the private _depth argument."""

        def traced(F, seed, *args, **kwargs):
            depth = kwargs.get("_depth", args[1] if len(args) > 1 else 1)
            i = self._open(self.name_id(f"dini.build_system@L{depth}"))
            self.depth.append(depth)
            try:
                system = fn(F, seed, *args, **kwargs)
            finally:
                self.depth.pop()
                self._close(i)
            if depth == 1:
                self._check_levels(system)
            return system

        return traced

    def _build_implicit(self, fn):
        def traced(*args, **kwargs):
            i = self._open(self.name_id("scalar_implicit.build_implicit"))
            try:
                sol = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.levels[id(sol)] = (sol, self.depth[-1])
            return sol

        return traced

    def _find_box(self, fn):
        def traced(*args, **kwargs):
            level = self.depth[-1]
            i = self._open(self._find_box_ids[level])
            try:
                box = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.box_log.append((level, box.shrinks))
            return box

        return traced

    def _cli_main(self, fn):
        def traced(argv=None, *args, **kwargs):
            command = argv[0] if argv else "none"
            i = self._open(self.name_id(f"cli.main@{command}"))
            try:
                return fn(argv, *args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _check_levels(self, system) -> None:
        node = system
        while node is not None:
            entry = self.levels.get(id(node.scalar))
            if entry is None or entry[0] is not node.scalar or entry[1] != node.depth:
                self.problems.append(f"level map disagrees with the stack at level {node.depth}")
            node = node.child

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self, lib) -> None:
        expr, linalg, si, dini, inverse, verify, cli = (
            lib.expr, lib.linalg, lib.scalar_implicit, lib.dini, lib.inverse, lib.verify, lib.cli,
        )
        fixed = lambda name: (lambda fn: self._fixed(fn, name))  # noqa: E731

        for method in ("eval", "partial", "jacobian"):
            self._patch(expr.ExprFunction, method, fixed(f"expr.{method}"))
        for owner in (expr, cli):
            self._patch(owner, "parse", fixed("expr.parse"))

        linalg_fns = {id(getattr(linalg, name)): name for name in LINALG_FUNCTIONS}
        for owner in (expr, dini, inverse, verify, cli):
            for attr, value in list(vars(owner).items()):
                if id(value) in linalg_fns:
                    self._patch(owner, attr, fixed(f"linalg.{linalg_fns[id(value)]}"))

        self._patch(si.ImplicitSolution, "solve_at", self._solve_at)
        self._patch(si.ImplicitSolution, "gradient_known", fixed("scalar_implicit.gradient_known"))
        self._patch(si, "find_box", self._find_box)
        self._patch(dini, "build_implicit", self._build_implicit)

        for owner in (dini, inverse, cli):
            self._patch(owner, "build_system", self._build_system)
        self._patch(dini, "normalize", fixed("dini.normalize"))
        for method in ("solve_at", "_solve", "jacobian_at", "verify_uniqueness"):
            self._patch(dini.SystemSolution, method, fixed(f"dini.SystemSolution.{method}"))
        for cls, methods in (
            (dini._ReducedFunction, ("eval", "partial", "jacobian")),
            (dini._AffineReparam, ("eval", "partial", "jacobian")),
            (dini._ComponentSlice, ("eval", "partial")),
        ):
            for method in methods:
                self._patch(cls, method, fixed(f"dini.{cls.__name__}.{method}"))

        for owner in (inverse, cli):
            self._patch(owner, "build_inverse", fixed("inverse.build_inverse"))
        for method in ("invert_at", "inverse_jacobian_at"):
            self._patch(inverse.LocalInverse, method, fixed(f"inverse.LocalInverse.{method}"))

        for name in ("check_operator_bound", "check_chain_rule", "mvt_witness", "injectivity_radius"):
            self._patch(verify, name, fixed(f"verify.{name}"))

        self._patch(cli, "main", self._cli_main)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- operations ----------------------------------------------------------

    def op(self, kind: str, fn):
        """Run fn as one top-level operation under a root span."""
        if len(self.name_of) or self.stack != [-1]:
            self.problems.append(f"spans recorded outside an operation before {kind}")
            self._clear()
        root = self._open(self.name_id(f"op.{kind}"))
        try:
            return fn()
        finally:
            self._close(root)
            self._fold(kind)

    def _pass_through_ids(self) -> set:
        """dini's composed functions (_ReducedFunction, _AffineReparam,
        _ComponentSlice) only forward to the level below; a call made
        through them is counted as made by the span that called them."""
        return {nid for nid, name in enumerate(self.names) if name.startswith("dini._")}

    def _clear(self) -> None:
        for buf in (self.starts, self.ends, self.name_of, self.parent):
            del buf[:]
        self.stack[:] = [-1]
        self.box_log.clear()

    def _fold(self, kind: str) -> None:
        starts, ends, name_of, parent = self.starts, self.ends, self.name_of, self.parent
        n = len(name_of)
        child = [0] * n
        for i in range(1, n):
            p = parent[i]
            if not 0 <= p < i:
                self.problems.append(f"span {self.names[name_of[i]]} has no enclosing span")
                self._clear()
                return
            child[p] += ends[i] - starts[i]

        width = len(self.names)
        count = [0] * width
        incl = [0] * width
        selfs = [0] * width
        pairs = Counter()
        under_box = Counter()
        box_level = [0] * n  # level of the nearest enclosing find_box, 0 if none
        caller = [0] * n  # nearest enclosing span that is not a pass-through
        find_box_level = {nid: k for k, nid in enumerate(self._find_box_ids)}
        solve_ids = set(self._solve_ids)
        passing = self._pass_through_ids()
        self_sum = 0
        for i in range(n):
            nid = name_of[i]
            dur = ends[i] - starts[i]
            own = dur - child[i]
            self_sum += own
            count[nid] += 1
            incl[nid] += dur
            selfs[nid] += own
            if i:
                p = parent[i]
                caller[i] = caller[p] if name_of[p] in passing else p
                pairs[(name_of[caller[i]], nid)] += 1
                box_level[i] = find_box_level.get(nid, box_level[p])
                if nid in solve_ids and box_level[i]:
                    under_box[box_level[i]] += 1
        root_dur = ends[0] - starts[0]
        if self_sum != root_dur:
            self.problems.append(
                f"{kind}: self times sum to {self_sum} ns, root span lasts {root_dur} ns"
            )

        targets = (self.all, self.prefix) if self.in_prefix else (self.all,)
        for totals in targets:
            totals.ops[kind] += 1
            for nid in range(width):
                if count[nid]:
                    entry = totals.spans[(kind, self.names[nid])]
                    entry[0] += count[nid]
                    entry[1] += incl[nid]
                    entry[2] += selfs[nid]
            for (p, c), k in pairs.items():
                totals.pairs[(kind, self.names[p], self.names[c])] += k
            for level, k in under_box.items():
                totals.under_box[(kind, level)] += k
            for level, shrinks in self.box_log:
                totals.boxes[level][0] += 1
                totals.boxes[level][1] += shrinks + 1

        if kind not in self.kept and n <= KEEP_SPANS:
            t0 = starts[0]
            self.kept[kind] = {
                "name": [self.names[v] for v in name_of],
                "parent": list(parent),
                "start_ns": [v - t0 for v in starts],
                "end_ns": [v - t0 for v in ends],
            }
        self._clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        doc = {
            "totals": [
                {"op": kind, "span": name, "count": c, "incl_ns": t, "self_ns": s}
                for (kind, name), (c, t, s) in sorted(self.all.spans.items())
            ],
            "first_op_spans": self.kept,
            "problems": self.problems,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics. Counts come from the prefix totals (a fixed set of
# operations per seed, so they repeat exactly); times from the whole run.

LEVELS = (1, 2, 3)
CLI_COMMANDS = ("implicit", "invert", "verify")

PER_LAYER = (
    [
        ("expr.evals_per_query", "count"),
        ("expr.eval_us", "us"),
        ("expr.partials_per_jacobian", "count"),
        ("expr.partial_us", "us"),
        ("expr.build_evals", "count"),
        ("expr.build_partials", "count"),
        ("dual.pass_overhead_us", "us"),
    ]
    + [(f"scalar_implicit.solves_per_query.L{k}", "count") for k in LEVELS]
    + [(f"scalar_implicit.evals_per_solve.L{k}", "count") for k in LEVELS]
    + [(f"scalar_implicit.solve_self_us.L{k}", "us") for k in LEVELS]
    + [(f"scalar_implicit.box_attempts.L{k}", "count") for k in LEVELS]
    + [(f"scalar_implicit.find_box_s.L{k}", "s") for k in LEVELS]
    + [(f"scalar_implicit.build_solves.L{k}", "count") for k in LEVELS]
    + [
        ("dini.solve_self_us", "us"),
        ("dini.solves_per_jacobian", "count"),
        ("dini.build_self_s", "s"),
        ("dini.scan_us_per_point", "us"),
        ("dini.scan_alloc_peak_mb", "MB"),
        ("linalg.calls_per_query", "count"),
        ("linalg.self_us_per_query", "us"),
        ("inverse.build_s", "s"),
        ("inverse.invert_self_us", "us"),
        ("inverse.jacobian_self_us", "us"),
        ("verify.injectivity_s", "s"),
        ("verify.expr_jacobians", "count"),
    ]
    + [(f"cli.main_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [(f"cli.self_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [("cli.startup_ms", "ms"), ("trace.overhead_pct", "%")]
)

ALL_KINDS = ("build", "query", "jacobian", "scan", "cli")


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, extra: dict) -> dict:
    """Every PER_LAYER metric; 0 where the workload does not run the layer.

    extra carries what spans cannot see: scan sample count and allocation
    peak, subprocess CLI wall times, and the untraced/traced round times.
    """
    A, P = tr.all, tr.prefix
    us = 1e-3  # ns -> us
    Q, J, B = ("query",), ("jacobian",), ("build",)
    m = {}

    m["expr.evals_per_query"] = _per(P.count(Q, "expr.eval"), P.ops["query"])
    eval_us = _per(A.self_ns(ALL_KINDS, "expr.eval"), A.count(ALL_KINDS, "expr.eval")) * us
    partial_us = _per(A.self_ns(ALL_KINDS, "expr.partial"), A.count(ALL_KINDS, "expr.partial")) * us
    m["expr.eval_us"] = eval_us
    m["expr.partials_per_jacobian"] = _per(P.count(J, "expr.partial"), P.ops["jacobian"])
    m["expr.partial_us"] = partial_us
    m["expr.build_evals"] = _per(P.count(B, "expr.eval"), P.ops["build"])
    m["expr.build_partials"] = _per(P.count(B, "expr.partial"), P.ops["build"])
    m["dual.pass_overhead_us"] = partial_us - eval_us if partial_us and eval_us else 0.0

    for k in LEVELS:
        solve = f"scalar_implicit.solve_at@L{k}"
        m[f"scalar_implicit.solves_per_query.L{k}"] = _per(P.count(Q, solve), P.ops["query"])
        below = "expr.eval" if k == 1 else f"scalar_implicit.solve_at@L{k - 1}"
        m[f"scalar_implicit.evals_per_solve.L{k}"] = _per(
            P.pairs[("query", solve, below)], P.count(Q, solve)
        )
        m[f"scalar_implicit.solve_self_us.L{k}"] = _per(A.self_ns(Q, solve), A.count(Q, solve)) * us
        found, attempts = P.boxes[k] if k in P.boxes else (0, 0)
        m[f"scalar_implicit.box_attempts.L{k}"] = _per(attempts, found)
        find_box = f"scalar_implicit.find_box@L{k}"
        m[f"scalar_implicit.find_box_s.L{k}"] = (
            _per(A.incl(ALL_KINDS, find_box), A.count(ALL_KINDS, find_box)) * 1e-9
        )
        m[f"scalar_implicit.build_solves.L{k}"] = _per(
            sum(P.under_box[(kind, k)] for kind in ALL_KINDS), P.count(ALL_KINDS, find_box)
        )

    queries = A.ops["query"]
    dini_self = sum(A.self_ns(Q, f"dini.SystemSolution.{n}") for n in ("solve_at", "_solve"))
    m["dini.solve_self_us"] = _per(dini_self, queries) * us
    m["dini.solves_per_jacobian"] = _per(P.count(J, "dini.SystemSolution.solve_at"), P.ops["jacobian"])
    top_builds = A.count(ALL_KINDS, "dini.build_system@L1")
    box_time = sum(A.incl(ALL_KINDS, f"scalar_implicit.find_box@L{k}") for k in range(MAX_LEVEL + 1))
    m["dini.build_self_s"] = (
        _per(A.incl(ALL_KINDS, "dini.build_system@L1") - box_time, top_builds) * 1e-9
    )
    m["dini.scan_us_per_point"] = (
        _per(A.incl(("scan",), "dini.SystemSolution.verify_uniqueness"), extra.get("scan_points", 0)) * us
    )
    m["dini.scan_alloc_peak_mb"] = extra.get("scan_alloc_peak_mb", 0.0)

    m["linalg.calls_per_query"] = _per(P.layer(("query", "jacobian"), "linalg.")[0], P.ops["query"])
    m["linalg.self_us_per_query"] = _per(A.layer(("query", "jacobian"), "linalg.")[1], queries) * us

    m["inverse.build_s"] = (
        _per(A.incl(B, "inverse.build_inverse"), A.count(B, "inverse.build_inverse")) * 1e-9
    )
    for metric, method in (("invert_self_us", "invert_at"), ("jacobian_self_us", "inverse_jacobian_at")):
        span = f"inverse.LocalInverse.{method}"
        m[f"inverse.{metric}"] = _per(A.self_ns(ALL_KINDS, span), A.count(ALL_KINDS, span)) * us

    inj = "verify.injectivity_radius"
    m["verify.injectivity_s"] = _per(A.incl(ALL_KINDS, inj), A.count(ALL_KINDS, inj)) * 1e-9
    m["verify.expr_jacobians"] = _per(P.pairs[("cli", inj, "expr.jacobian")], P.count(ALL_KINDS, inj))

    for c in CLI_COMMANDS:
        span = f"cli.main@{c}"
        m[f"cli.main_ms.{c}"] = _per(A.incl(ALL_KINDS, span), A.count(ALL_KINDS, span)) * 1e-6
        m[f"cli.self_ms.{c}"] = _per(A.self_ns(ALL_KINDS, span), A.count(ALL_KINDS, span)) * 1e-6
    # subprocess wall time minus the same command's untraced in-process main
    wall, main = extra.get("cli_wall_ms", {}), extra.get("cli_main_untraced_ms", {})
    startup = [wall[c] - main[c] for c in CLI_COMMANDS if c in wall and c in main]
    m["cli.startup_ms"] = sum(startup) / len(startup) if startup else 0.0

    untraced, traced = extra.get("untraced_s", 0.0), extra.get("traced_s", 0.0)
    m["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0) if untraced else 0.0
    return m
