"""The four workloads and the operation ledger they share.

Load comes from one caller in a closed loop: each call starts when the
previous one returns; the only other thread is the calibration thread
below, which calls no implisolve code. A workload runs whole rounds of the
same operations until the run length has passed, so the share of failed
operations does not depend on how many rounds fit. Round i draws its
inputs from random.Random("<workload>:<seed>:<i>"), so the same seed gives
the same inputs and a traced run can replay an untraced round exactly.

Every answer is compared with reference.py's closed forms. An operation
fails when it raises or when its answer misses the closed form; the
second kind also makes the run incorrect.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter, sleep, thread_time

import reference as ref

CURVES = (  # (name, functions, variables, seed x, seed y, options, closed form)
    ("circle", ["x^2 + y^2 - 1"], ["x", "y"], (0.0,), (1.0,), {"h0": 0.8}, ref.circle),
    ("sin_cubic", ["sin(x) + y^3 + y"], ["x", "y"], (0.0,), (0.0,), {}, ref.sin_cubic),
    ("log_curve", ["ln(y) + x"], ["x", "y"], (0.0,), (1.0,), {}, ref.log_curve),
    (
        "sphere_cap",
        ["x1^2 + x2^2 + y^2 - 1"],
        ["x1", "x2", "y"],
        (0.0, 0.0),
        (1.0,),
        {"h0": 0.6},
        ref.sphere_cap,
    ),
)
QUAD_PAIR = (["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
CUBIC_TRIPLE = (
    ["y1^2 + y2 + y3 - x - 2", "y1 + y2^2 + y3 - x - 2", "y1 + y2 + y3^2 - x - 2"],
    ["x", "y1", "y2", "y3"],
)
SQUARE_MAP = (["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])

LATENCY_SAMPLES = 20000
SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")
SUBPROCESS_TIMEOUT_S = 120


# Machine speed on a shared host swings by a third from one second to the
# next, and CPU time swings with it, so raw times of two runs minutes apart
# are not comparable. In an untraced run a calibration thread runs a fixed
# pure-Python kernel in short chunks between pauses; holding the GIL in
# turn with the caller, it samples the machine's speed every ~10 ms. Each
# operation's CPU time (of the calling thread, or of the child process for
# a CLI run) is divided by the kernel's speed over the same interval and
# reported in seconds at the reference speed REF_ITER_S per kernel
# iteration: the median speed measured on the 2-core Intel Xeon host
# (Python 3.11.7) on which the benchmark was defined, so a reported time
# is what the operation takes there at its usual speed.
REF_ITER_S = 8.2e-7
CAL_CHUNK = 1000  # kernel iterations per sample, about 1 ms
CAL_PAUSE_S = 0.004
CAL_WINDOW = 3 * CAL_CHUNK  # fewest iterations a speed estimate rests on
_CAL_CODE = compile("(x * x + y * y - 1.0) * 0.5 + sin(x)", "<calibration>", "eval")


def calibration_kernel(n: int) -> float:
    """Interpreter-bound work like the solver's own (compiled-expression
    eval, float math, tuples, dict stores), independent of implisolve."""
    env = {"x": 0.0, "y": 0.7}
    g = {"__builtins__": {}, "sin": math.sin}
    acc = 0.0
    for i in range(n):
        env["x"] = i * 1e-3
        acc += eval(_CAL_CODE, g, env)
        pair = (acc, i)
        acc -= pair[0] * 1e-9
    return acc


class Calibrator(threading.Thread):
    """Runs the kernel in chunks; state is (iterations, CPU seconds) so far,
    replaced as one tuple so that a reader never sees half an update."""

    def __init__(self):
        super().__init__(name="calibration", daemon=True)
        self.state = (0, 0.0)
        self._halt = threading.Event()

    def run(self):
        iters, cpu = 0, 0.0
        while not self._halt.is_set():
            t0 = thread_time()
            calibration_kernel(CAL_CHUNK)
            cpu += thread_time() - t0
            iters += CAL_CHUNK
            self.state = (iters, cpu)
            self._halt.wait(CAL_PAUSE_S)

    def halt(self):
        self._halt.set()
        self.join()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Ledger:
    """Counts attempted and failed operations and times each call.

    With calibrate=True each operation's CPU time is normalized to the
    reference speed (see REF_ITER_S); call close() to stop the calibration
    thread. Otherwise times are raw wall time, which the traced run uses.
    """

    def __init__(self, tracer=None, calibrate=False):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.spent = 0.0  # seconds inside operations
        self.spent_in_process = 0.0  # the part not spent in child processes
        self.last = None  # seconds of the last operation, None if it failed
        # per kind: operations, their total time, and the first
        # LATENCY_SAMPLES times; a capped sample keeps the memory peak from
        # growing with throughput
        self.ops: Counter = Counter()
        self.time: Counter = Counter()
        self.latency: dict[str, array] = {}
        self.failed_by_kind: Counter = Counter()
        self.errors: list[str] = []
        self.speeds = array("d")  # kernel seconds per iteration, per estimate
        self._cal = None
        if calibrate:
            self._cal = Calibrator()
            self._cal.start()
            while self._cal.state[0] < CAL_WINDOW:
                sleep(CAL_PAUSE_S)
            self._window = self._cal.state
            self._iter_s = self._window[1] / self._window[0]

    def close(self):
        if self._cal is not None:
            self._cal.halt()
            self._cal = None

    def _speed(self, before, after) -> float:
        """Kernel seconds per iteration over an operation: its own interval
        when the kernel ran enough there, else the latest window."""
        if after[0] - before[0] >= CAL_WINDOW:
            own = (after[1] - before[1]) / (after[0] - before[0])
            self.speeds.append(own)
            return own
        if after[0] - self._window[0] >= CAL_WINDOW:
            self._iter_s = (after[1] - self._window[1]) / (after[0] - self._window[0])
            self.speeds.append(self._iter_s)
            self._window = after
        return self._iter_s

    def _measure(self, fn, child):
        """(result or exception, seconds); the clock depends on calibration."""
        if self._cal is None:
            t0 = perf_counter()
            try:
                return fn(), perf_counter() - t0
            except Exception as exc:  # a failing operation must not end the run
                return exc, perf_counter() - t0
        clock = _children_cpu if child else thread_time
        before, t0 = self._cal.state, clock()
        try:
            out = fn()
        except Exception as exc:
            out = exc
        cpu = clock() - t0
        return out, cpu * REF_ITER_S / self._speed(before, self._cal.state)

    def call(self, kind, fn, check=None, child=False):
        """Run one operation; its result, or None when it failed. child:
        the work happens in a child process (a CLI run)."""
        self.attempted += 1
        tracer = self.tracer if self.tracer is not None and self.tracer.installed else None
        out, cost = self._measure((lambda: tracer.op(kind, fn)) if tracer else fn, child)
        self.spent += cost
        if not child:
            self.spent_in_process += cost
        if isinstance(out, Exception):
            self._fail(kind, f"{type(out).__name__}: {out}")
            return None
        self.last = cost
        self.ops[kind] += 1
        self.time[kind] += cost
        samples = self.latency.setdefault(kind, array("d"))
        if len(samples) < LATENCY_SAMPLES:
            samples.append(cost)
        try:
            ok = check is None or check(out)
        except (KeyError, IndexError, TypeError, ValueError):  # malformed output
            ok = False
        if not ok:
            self.wrong += 1
            self._fail(kind, "answer differs from the closed form")
            return None
        return out

    def _fail(self, kind, message):
        self.failed += 1
        self.failed_by_kind[kind] += 1
        self.last = None
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {message}")


def _inside(rng, lo, hi):
    """Uniform point of the middle 80% of the box on every axis."""
    return tuple(a + (0.1 + 0.8 * rng.random()) * (b - a) for a, b in zip(lo, hi))


def _contains(box, point):
    lo, hi = box
    return all(a < v < b for a, v, b in zip(lo, point, hi))


class Workload:
    name = ""
    setup_repeats = 1  # set-ups per untraced run; the median is reported
    traced_setup_repeats = 1

    def __init__(self, lib, ledger, seed):
        self.lib = lib
        self.ledger = ledger
        self.seed = seed
        self.setup_samples: list[float] = []
        self.round_times = array("d")
        self.detail: dict[str, float] = {}

    def rng(self, tag):
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def build(self, functions, variables, x, y, options=None):
        """parse + build_system: one build operation."""
        lib = self.lib

        def run():
            F = lib.expr.parse(functions, variables)
            opts = lib.config.SolverOptions(**(options or {}))
            return lib.dini.build_system(F, lib.scalar_implicit.SplitPoint.of(x, y), opts)

        return self.ledger.call("build", run, lambda s: _contains(s.x_box(), x))

    def query(self, system, x, closed_form, jacobian=True):
        self.ledger.call(
            "query", lambda: system.solve_at(x), lambda y: ref.value_ok(y, closed_form, x)
        )
        if jacobian:
            self.ledger.call(
                "jacobian",
                lambda: system.jacobian_at(x),
                lambda J: ref.jacobian_ok(J.rows, closed_form, x),
            )

    def setup(self, repeats):
        pass

    def run_round(self, i, in_process):
        spent = self.ledger.spent
        self.round(i, self.rng(i), in_process)
        self.round_times.append(self.ledger.spent - spent)

    def round(self, i, rng, in_process):
        raise NotImplementedError

    def finish(self, tracer=None):
        """Operations run once at the end of a run; returns extra trace data."""
        return {}


class CurveM1(Workload):
    """Four m = 1 problems built once, then many cheap interior queries."""

    name = "curve_m1"
    setup_repeats = 25

    def setup(self, repeats):
        for _ in range(repeats):
            total, systems = 0.0, []
            for name, fs, vs, x, y, options, closed in CURVES:
                systems.append((self.build(fs, vs, x, y, options), closed))
                total += self.ledger.last or 0.0
            self.setup_samples.append(total)
        self.systems = [(s, c, s.x_box()) for s, c in systems if s is not None]

    def round(self, i, rng, in_process):
        for system, closed, box in self.systems:
            self.query(system, _inside(rng, *box), closed)


class NestedM3(Workload):
    """cubic_triple: three nested bisections per query."""

    name = "nested_m3"
    setup_repeats = 3

    def setup(self, repeats):
        for _ in range(repeats):
            self.system = self.build(*CUBIC_TRIPLE, (1.0,), (1.0, 1.0, 1.0))
            self.setup_samples.append(self.ledger.last or 0.0)
        self.box = self.system.x_box()

    def round(self, i, rng, in_process):
        for k in range(4):  # a Jacobian on a quarter of the queries
            self.query(self.system, _inside(rng, *self.box), ref.cubic_triple, jacobian=k == 3)


class ReseedM2(Workload):
    """Builds at seeded seeds: quad_pair re-seeded on its solution curve,
    and the complex-square map inverted at base points of the right
    half-plane. Eight strata of seeds are cycled so that every run builds
    the same mix; the seed only jitters within each stratum."""

    name = "reseed_m2"
    STRATA = 8

    def round(self, i, rng, in_process):
        lib, ledger = self.lib, self.ledger
        k = i % self.STRATA
        x0 = 0.5 + (k + rng.random()) / self.STRATA
        seed_y = ref.quad_pair((x0,))[0]
        system = self.build(*QUAD_PAIR, (x0,), seed_y)
        setup = ledger.last or 0.0
        if i == 0:
            self.scan_system = system
        if system is not None:
            box = system.x_box()
            for _ in range(3):
                self.query(system, _inside(rng, *box), ref.quad_pair)

        r = 0.8 + 0.4 * (k % 4 + rng.random()) / 4
        theta = -0.6 + 0.6 * (k // 4 + rng.random())
        p = (r * math.cos(theta), r * math.sin(theta))
        image = (p[0] ** 2 - p[1] ** 2, 2 * p[0] * p[1])

        def build_inverse():
            F = lib.expr.parse(*SQUARE_MAP)
            return lib.inverse.build_inverse(F, p)

        inv = ledger.call("build", build_inverse, lambda v: _contains(v.y_box(), image))
        setup += ledger.last or 0.0
        self.setup_samples.append(setup)
        if inv is not None:
            box = inv.y_box()
            for _ in range(3):
                y = _inside(rng, *box)
                ledger.call("query", lambda: inv.invert_at(y), lambda v: ref.value_ok(v, ref.square_root, y))
                ledger.call(
                    "jacobian",
                    lambda: inv.inverse_jacobian_at(y),
                    lambda J: ref.jacobian_ok(J.rows, ref.square_root, y),
                )

    def finish(self, tracer=None):
        """One dependent-region scan at the default 100000 samples."""
        system = getattr(self, "scan_system", None)
        if system is None:
            return {}
        x = _inside(self.rng("scan"), *system.x_box())

        def scan_ok(report):
            return report.passed and report.single_cluster and ref.value_ok(report.solution, ref.quad_pair, x)

        report = self.ledger.call("scan", lambda: system.verify_uniqueness(x), scan_ok)
        extra = {}
        if report is not None:
            self.detail["scan_points_per_s"] = report.samples / self.ledger.last
            extra["scan_points"] = report.samples
        if tracer is not None:
            import tracemalloc

            tracer.uninstall()
            tracemalloc.start()
            try:
                self.ledger.call("scan", lambda: system.verify_uniqueness(x), scan_ok)
                extra["scan_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return extra


def schema_keys(root, command):
    with open(os.path.join(root, "docs", "output_schema.json"), encoding="utf-8") as fh:
        return set(json.load(fh)[command]) - {"csv_header"}


def check_cli_document(text, command, keys, closed_form=None):
    """A CLI JSON document: schema fields, passed, every row ok and equal
    to the closed form (implicit, invert) or a positive radius (verify)."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    if set(doc) != keys or doc.get("passed") is not True:
        return False
    if command == "verify":
        report = doc["report"]
        return report.get("passed") is True and report.get("radius", 0) > 0
    rows = doc["results"]
    return bool(rows) and all(
        row["ok"]
        and ref.value_ok(row["value"], closed_form, row["query"])
        and ref.jacobian_ok(row["jacobian"], closed_form, row["query"])
        for row in rows
    )


class Cli(Workload):
    """Subprocess runs of the implisolve CLI on canned specs."""

    name = "cli"
    setup_repeats = 9
    traced_setup_repeats = 3

    def __init__(self, lib, ledger, seed):
        super().__init__(lib, ledger, seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(lib.root, "src"))
        self.schema = {c: schema_keys(lib.root, c) for c in ("implicit", "invert", "verify")}
        self.wall: dict[str, list[float]] = {c: [] for c in self.schema}
        self.main_untraced: dict[str, list[float]] = {c: [] for c in self.schema}

    def _subprocess(self, args):
        return subprocess.run(
            [sys.executable, *args],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
            cwd=self.lib.root,
        )

    def setup(self, repeats):
        """Time a fresh interpreter importing implisolve.cli; the first
        import is a warm-up that writes the bytecode cache."""
        self._subprocess(["-c", "import implisolve.cli"])
        for _ in range(repeats):
            self.ledger.call(
                "import",
                lambda: self._subprocess(["-c", "import implisolve.cli"]),
                lambda p: p.returncode == 0,
                child=True,
            )
            self.setup_samples.append(self.ledger.last or 0.0)

    def argvs(self, rng):
        quad = os.path.join(SPEC_DIR, "quad_pair.json")
        square = os.path.join(SPEC_DIR, "square_map.json")
        u = [rng.random() for _ in range(6)]
        return (
            ("implicit", ref.quad_pair,
             ["implicit", "--spec", quad, f"--grid={0.9 + 0.05 * u[0]!r}:{1.1 - 0.05 * u[1]!r}:5"]),
            ("invert", ref.square_root,
             ["invert", "--spec", square,
              f"--grid={-0.2 + 0.1 * u[2]!r}:{0.2 - 0.1 * u[3]!r}:3",
              f"--grid={1.8 + 0.1 * u[4]!r}:{2.2 - 0.1 * u[5]!r}:3"]),
            ("verify", None,
             ["verify", "--lemma", "lemma4", "--spec", square, "--seed", str(rng.randrange(10**6))]),
        )

    def round(self, i, rng, in_process):
        for command, closed, argv in self.argvs(rng):
            keys = self.schema[command]
            self.ledger.call(
                "cli_" + command,
                lambda: self._subprocess(["-m", "implisolve.cli", *argv]),
                lambda p: p.returncode == 0 and check_cli_document(p.stdout, command, keys, closed),
                child=True,
            )
            if self.ledger.last is not None:
                self.wall[command].append(self.ledger.last)
            if in_process:
                self.ledger.call(
                    "cli",
                    lambda: self._main(argv),
                    lambda r: r[0] == 0 and check_cli_document(r[1], command, keys, closed),
                )
                if self.ledger.last is not None and not self.ledger.tracer.installed:
                    self.main_untraced[command].append(self.ledger.last)

    def _main(self, argv):
        out = io.StringIO()
        return self.lib.cli.main(list(argv), out=out), out.getvalue()

    def finish(self, tracer=None):
        def medians_ms(samples):
            return {c: statistics.median(v) * 1e3 for c, v in samples.items() if v}

        return {"cli_wall_ms": medians_ms(self.wall), "cli_main_untraced_ms": medians_ms(self.main_untraced)}


WORKLOADS = {w.name: w for w in (CurveM1, NestedM3, ReseedM2, Cli)}
