#!/usr/bin/env python3
"""The liepar benchmark: three seeded workloads, each answer checked.

    python3 bench/run.py --workload x-ladder|sp2n|cli-session
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src``.  The benchmark runs in one process and calls only names exported
by ``liepar`` plus ``liepar.cli.Session``.

With ``--trace 0`` it times whole passes of the workload (end-to-end
metrics), scaled to a reference speed of the host by speed probes timed
alongside them (see "host speed" below).  With ``--trace 1`` it times
untraced passes, then traced passes that record a span around every call
the benchmark makes into a library layer, then per-tau probes and a
tracemalloc pass (per-layer metrics).  Report lines go to stdout; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every answer matched
its frozen value and 1 otherwise.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import importlib.util
import json
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH / "traces"

DEFAULT_SEED = 1
SETUP_REPEATS = 15
LAYERS = ("bench", "rootdatum", "weyl", "tits", "fiber", "kgb", "zspace",
          "cli")
CLI_COMMANDS = ("type", "inner", "strongreal", "cartan", "X", "kgb",
                "realweyl", "block", "count-z", "dual")


@dataclass(frozen=True)
class Group:
    """A root datum and inner class: trivial when ``perm`` is None,
    otherwise twisted by that diagram permutation (0-based)."""
    type: str
    isogeny: str
    perm: tuple | None = None

    @property
    def label(self) -> str:
        if self.perm is None:
            return f"{self.type} {self.isogeny}"
        return f"{self.type} {self.isogeny} " + \
            ",".join(str(p + 1) for p in self.perm)

    @property
    def inner_token(self) -> str:
        # every twisted group used here has a unique diagram involution
        return "c" if self.perm is None else "u"


X_LADDER = (Group("A5", "sc"), Group("C4", "sc"), Group("D4", "sc"),
            Group("F4", "sc"), Group("A4", "sc", (3, 2, 1, 0)))
SP2N = (1, 2, 3, 4, 5)
CLI_GROUPS = (Group("C2", "sc"), Group("C3", "sc"), Group("B3", "sc"),
              Group("A3", "sc"), Group("A3", "sc", (2, 1, 0)),
              Group("G2", "sc"), Group("A2", "sc", (1, 0)),
              Group("D4", "sc"))


def load_golden() -> dict:
    return json.loads((BENCH / "golden.json").read_text())


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark's host shares its cores: its speed changes by up to 2x
# within seconds as neighbours come and go, so raw medians of two sets of
# runs minutes apart can differ by 40%.  Each timing is therefore scaled by
# the speed of a fixed probe run at the same time, with the same kind of
# work as the timed code: interpreter work for the passes (timed at every
# pass boundary and every PROBE_INTERVAL seconds in between), a module
# import for the set-up.  The results are seconds at a reference speed.

PROBE_ITERS = 400
PROBE_REF_S = 1e-3     # probe time at the reference speed: about the
                       # faster state of a 2-vCPU x86 VM under CPython 3.11
PROBE_INTERVAL = 0.1   # seconds of wall time between probes inside a pass


def probe_loop():
    """Fraction arithmetic, tuple keys and dict updates, as in the
    library's canonical forms and tables; keeps nothing."""
    acc = Fraction(0)
    seen = {}
    for i in range(PROBE_ITERS):
        key = (i % 29, i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(i % 11, 1 + i % 5)
    return acc


class SpeedMeter:
    """Probe samples on a clock that stops while a probe runs.

    Inside ``running()`` a SIGALRM handler runs a probe every
    PROBE_INTERVAL seconds, in the main thread between the library's
    bytecodes, so the probes sample the host's speed uniformly in time even
    during one long library call.  ``clock()`` leaves the probes' own time
    out of every timing."""

    def __init__(self):
        self.spent = 0.0     # seconds spent in probes
        self.times = []      # clock() at each probe, in order
        self.speeds = []     # PROBE_REF_S / each probe's time
        self._probing = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self) -> float:
        """Run one probe now; its speed relative to the reference."""
        at = self.clock()
        self._probing = True
        start = time.perf_counter()
        probe_loop()
        took = time.perf_counter() - start
        self._probing = False
        self.spent += took
        self.times.append(at)
        self.speeds.append(PROBE_REF_S / took)
        return PROBE_REF_S / took

    def _tick(self, signum, frame):
        if not self._probing:
            self.sample()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start, end) -> float:
        """Mean relative speed of the probes taken between two clock
        readings and of the nearest probe on either side: over a long
        window the mean over time of the host's speed, so that time x speed
        is the work done at reference speed; over a short one the speed
        just before and just after it."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return statistics.fmean(self.speeds[lo:hi])


METER = SpeedMeter()

IMPORT_REF_S = 1e-2    # import_probe() time at the reference speed


def import_probe() -> float:
    """Seconds to import this file afresh under another name: reading,
    compiling and running class and function definitions, the work of
    importing the library.  Interpreter-loop probes slow down by more
    than imports do when the host slows."""
    start = time.perf_counter()
    spec = importlib.util.spec_from_file_location("bench_probe", __file__)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# tracing


class NullTracer:
    """Calls straight through: the untraced runs."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


class Tracer(NullTracer):
    """Spans (name, start, end, parent span, query id) and per-span-name
    work counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.query = None
        self._stack = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = METER.clock()
        try:
            return fn(*args)
        finally:
            end = METER.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.query)

    def count(self, name, n):
        self.counts[name] += n

    def stats(self, passes=1):
        """Per span name, per pass: seconds, calls and work count."""
        sec, calls = Counter(), Counter()
        for name, start, end, _, _ in self.spans:
            sec[name] += end - start
            calls[name] += 1
        return {name: (sec[name] / passes, calls[name] / passes,
                       self.counts[name] / passes) for name in sec}

    def self_times(self, passes=1):
        """Per layer, per pass: span time not covered by child spans."""
        child = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[layer_of(name)] += (end - start - child[i]) / passes
        return out


class MemTracer(NullTracer):
    """Peak bytes traced by tracemalloc during each call, per layer."""

    def __init__(self):
        self.peaks = Counter()

    def call(self, name, fn, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - before
            layer = layer_of(name)
            self.peaks[layer] = max(self.peaks[layer], peak)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


UNITS = {"s": "s", "ms": "ms", "us": "us", "kib": "KiB", "mib": "MiB",
         "frac": "ratio"}


def unit_of(metric: str) -> str:
    """The last unit word in a metric name (``weyl.us_per_tau`` is in us,
    ``cli.cmd_ms.X`` in ms); names without one are counts."""
    words = metric.replace(".", "_").split("_")
    return next((UNITS[w] for w in reversed(words) if w in UNITS), "count")


# ---------------------------------------------------------------------------
# library calls shared by the workloads


def make_inner_class(lp, rd, perm):
    if perm is None:
        return lp.trivial_inner_class(rd)
    return lp.inner_class_from_perm(rd, perm)


def build_x(lp, tr, group):
    """Cold X for one group, one public call per layer step."""
    rd = tr.call("rootdatum.build", lp.from_type, group.type, group.isogeny)
    tr.count("rootdatum.build", len(rd.roots))
    ic = tr.call("weyl.inner_class", make_inner_class, lp, rd, group.perm)
    taus = tr.call("weyl.involutions", lp.twisted_involutions, ic)
    tr.count("weyl.involutions", len(taus))
    tr.call("weyl.cartans", lp.cartan_classes, ic)
    tr.call("tits.group", lp.tits_group, ic)
    tr.call("fiber.central", lp.central_fixed_points, ic)
    table = tr.call("kgb.enumerate", lp.enumerate_X, ic)
    tr.count("kgb.enumerate", len(table))
    forms = tr.call("kgb.forms", lp.strong_real_forms, ic)
    return ic, {"taus": len(taus), "elements": len(table),
                "forms": [len(f.element_ids) for f in forms]}


def count_sp2n(lp, tr, n):
    """The pairs of Sp(2n) with x^2 = -1 and y^2 = 1: the computation of
    ``sp2n_count(n)``, one public call per layer step."""
    rd = tr.call("rootdatum.build", lp.from_type, f"C{n}", "sc")
    tr.count("rootdatum.build", len(rd.roots))
    ic = tr.call("weyl.inner_class", lp.trivial_inner_class, rd)
    dic = tr.call("weyl.inner_class", getattr, ic, "dual")
    for c in (ic, dic):
        tr.count("weyl.involutions",
                 len(tr.call("weyl.involutions", lp.twisted_involutions, c)))
        tr.call("tits.group", lp.tits_group, c)
    squares = tr.call("fiber.central", lp.central_fixed_points, ic)
    minus = [z for z in squares if any(z.entries)]
    if len(minus) != 1:
        raise ValueError(f"C{n}: expected one nontrivial central square")
    plus = lp.RatVecModZ.reduce([0] * dic.rank)
    _, total = tr.call("zspace.count", lp.count_z_blocks, ic, minus[0], plus)
    tr.count("zspace.count", total)
    return ic, total


def command_name(line: str) -> str:
    words = line.split()
    return words[0] if words and words[0] in CLI_COMMANDS else "other"


class Capture:
    """Text sink for a Session: collects what one command writes."""

    def __init__(self):
        self._parts = []

    def write(self, text):
        self._parts.append(text)

    def take(self) -> str:
        text = "".join(self._parts)
        self._parts.clear()
        return text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def block_commands(group, n_forms, n_elements):
    """The commands of one CLI block, in canonical order: two set-up
    commands, the read commands, then ``dual``, ``X`` and ``count-z``."""
    ids = sorted({round(k * (n_elements - 1) / 7) for k in range(8)})
    reads = (["strongreal", "cartan", "X"]
             + [f"kgb {f}" for f in range(n_forms)]
             + [f"realweyl {i}" for i in ids]
             + [f"block {f}" for f in range(n_forms)]
             + ["count-z"])
    return ([f"type {group.type} {group.isogeny}",
             f"inner {group.inner_token}"] + reads
            + ["dual", "X", "count-z"])


BLOCK_HEAD, BLOCK_TAIL = 2, 3


def timed(fn, *args):
    """(seconds taken, result) of one call, probes left out."""
    start = METER.clock()
    result = fn(*args)
    return METER.clock() - start, result


def run_command(tr, session, sink, line):
    """One CLI command: (latency in seconds, output text)."""
    span = "cli." + command_name(line)
    latency, _ = timed(tr.call, span, session.run, [line])
    text = sink.take()
    tr.count(span, len(text.encode()))
    return latency, text


def replay(lp, tr, groups, session):
    """Every layer once per group: X, the pair count, the pairs and, with
    ``session``, a short CLI block.  Run after the timed passes to fill the
    layer metrics that a workload's own queries do not reach."""
    for group in groups:
        ic, _ = build_x(lp, tr, group)
        _, total = tr.call("zspace.count", lp.count_z_blocks, ic)
        tr.count("zspace.count", total)
        pairs = tr.call("zspace.enumerate", lp.enumerate_Z, ic)
        tr.count("zspace.enumerate", len(pairs))
        if session:
            sink = Capture()
            s = lp.cli.Session(sink)
            for line in block_commands(group, 1, 1):
                run_command(tr, s, sink, line)


# ---------------------------------------------------------------------------
# workloads


class Query(NamedTuple):
    latency: float   # seconds
    ok: bool         # the answer matched its frozen value
    sample: bool     # counts towards the latency percentiles
    window: tuple = ()   # METER.clock() at its start and end


class Workload:
    """Inputs from a seed and one pass of checked queries over them.
    ``groups`` are the inner classes the probes use, ``replay_groups``
    those the replay uses."""

    name = ""
    replay_groups = ()
    replay_session = True

    def __init__(self, golden):
        self.golden = golden

    def fail(self, what):
        print(f"FAIL {self.name} {what}", file=sys.stderr)
        return False

    def run_queries(self, tr, query, items, first_qid=0, collect=True):
        """Each item as one traced query returning a Query.  With
        ``collect``, garbage is collected before each query, untimed, so
        that no query pays for its predecessors and the seeded order does
        not change the work."""
        results = []
        for qid, item in enumerate(items, first_qid):
            if collect:
                gc.collect()
            tr.query = qid
            start = METER.clock()
            try:
                q = tr.call("bench.query", query, item)
            except Exception as exc:  # a raising query is a failed query
                q = Query(METER.clock() - start,
                          self.fail(f"{item}: {exc!r}"), True)
            results.append(q._replace(window=(start, METER.clock())))
        tr.query = None
        return results


class XLadder(Workload):
    name = "x-ladder"
    replay_groups = (X_LADDER[-1],)

    def __init__(self, golden, groups=X_LADDER):
        super().__init__(golden)
        self.groups = groups

    def inputs(self, rng):
        groups = list(self.groups)
        rng.shuffle(groups)
        return groups

    def run_pass(self, lp, tr, groups):
        def query(group):
            latency, (_, got) = timed(build_x, lp, tr, group)
            want = self.golden["x-ladder"][group.label]
            return Query(latency, got == want
                         or self.fail(f"{group.label}: {got}"), True)

        return self.run_queries(tr, query, groups)


class Sp2n(Workload):
    name = "sp2n"
    replay_groups = (Group("C3", "sc"),)

    def __init__(self, golden, ns=SP2N):
        super().__init__(golden)
        self.ns = ns
        self.groups = tuple(Group(f"C{n}", "sc") for n in ns)

    def inputs(self, rng):
        ns = list(self.ns)
        rng.shuffle(ns)
        return ns

    def run_pass(self, lp, tr, ns):
        def query(n):
            latency, (_, total) = timed(count_sp2n, lp, tr, n)
            want = self.golden["sp2n"][str(n)]
            return Query(latency, total == want
                         or self.fail(f"n={n}: {total}"), True)

        return self.run_queries(tr, query, ns)


class CliSession(Workload):
    """The demo script in its own session, then one session replaying the
    group blocks.  Each block command's output is checked against its
    frozen digest; the demo transcript is compared byte for byte."""

    name = "cli-session"
    replay_groups = CLI_GROUPS
    replay_session = False

    def __init__(self, golden, groups=CLI_GROUPS):
        super().__init__(golden)
        self.groups = groups

    def inputs(self, rng):
        blocks = []
        for group in self.groups:
            frozen = self.golden["cli-session"][group.label]
            head = frozen[:BLOCK_HEAD]
            reads = frozen[BLOCK_HEAD:-BLOCK_TAIL]
            rng.shuffle(reads)
            blocks.append(head + reads + frozen[-BLOCK_TAIL:])
        rng.shuffle(blocks)
        return blocks

    def run_pass(self, lp, tr, blocks):
        sink = Capture()
        demo = self.golden["demo"]

        def run_demo(script):
            # one checked query, not a latency sample: most of its lines
            # are comments and deliberate errors
            latency, _ = timed(tr.call, "cli.demo", lp.cli.Session(sink).run,
                               script.splitlines())
            text = sink.take()
            tr.count("cli.demo", len(text.encode()))
            return Query(latency, text == demo["expected"]
                         or self.fail("demo"), False)

        results = self.run_queries(tr, run_demo, [demo["script"]])
        session = lp.cli.Session(sink)

        def block_line(item):
            line, want = item
            latency, text = run_command(tr, session, sink, line)
            return Query(latency, digest(text) == want
                         or self.fail(f"'{line}'"), True)

        for block in blocks:
            gc.collect()
            results += self.run_queries(tr, block_line, block, len(results),
                                        collect=False)
        return results


WORKLOADS = {w.name: w for w in (XLadder, Sp2n, CliSession)}


# ---------------------------------------------------------------------------
# measurement


def fresh_import():
    """Import liepar and its CLI as a new process would."""
    for name in [m for m in sys.modules
                 if m == "liepar" or m.startswith("liepar.")]:
        del sys.modules[name]
    lp = importlib.import_module("liepar")
    importlib.import_module("liepar.cli")
    return lp


def setup(workload, seed):
    """Import and input generation, repeated; returns the last import,
    the inputs and the median set-up time at reference speed, each import
    scaled by the import probes just before and just after it."""
    times = []
    before = import_probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lp = fresh_import()
        inputs = workload.inputs(random.Random(seed))
        took = time.perf_counter() - start
        after = import_probe()
        times.append(took * IMPORT_REF_S * 2 / (before + after))
        before = after
    return lp, inputs, statistics.median(times)


@dataclass
class Passes:
    walls: list      # per pass: seconds at reference speed
    raw: list        # per pass: seconds as measured
    latencies: list  # per query: seconds at reference speed
    attempted: int
    failed: int


def measure(workload, lp, inputs, tr, seconds):
    """Whole passes while the next one should end within ``seconds`` (at
    least one).  Each query's time is scaled by the host's speed during it
    to its time at reference speed; a pass's time is the sum over its
    queries."""
    out = Passes([], [], [], 0, 0)
    deadline = METER.clock() + seconds
    with METER.running():
        while True:
            start = METER.clock()
            METER.sample()
            results = workload.run_pass(lp, tr, inputs)
            METER.sample()
            end = METER.clock()
            scaled = [q.latency * METER.speed(*q.window) for q in results]
            out.raw.append(sum(q.latency for q in results))
            out.walls.append(sum(scaled))
            out.latencies += [t for t, q in zip(scaled, results) if q.sample]
            out.attempted += len(results)
            out.failed += sum(1 for q in results if not q.ok)
            if 2 * end - start > deadline:
                return out


def latencies(passes):
    """Median and 90th percentile of the per-query latencies, in ms."""
    cuts = statistics.quantiles([x * 1e3 for x in passes.latencies],
                                n=100, method="inclusive")
    return {"cmd_p50_ms": cuts[49], "cmd_p90_ms": cuts[89]}


def latency_line(passes):
    p = latencies(passes)
    return (f"query latency at reference speed: p50 {p['cmd_p50_ms']:.6g} ms, "
            f"p90 {p['cmd_p90_ms']:.6g} ms, "
            f"{len(passes.latencies)} samples")


def probe(lp, groups):
    """Per-operation costs of single layer functions on fresh inner
    classes of the workload's groups, in microseconds."""
    times = defaultdict(list)

    def op(key, fn, *args):
        seconds, result = timed(fn, *args)
        times[key].append(seconds)
        return result

    for group in groups:
        rd = lp.from_type(group.type, group.isogeny)
        ic = make_inner_class(lp, rd, group.perm)
        taus = lp.twisted_involutions(ic)
        tg = lp.tits_group(ic)
        squares = lp.central_fixed_points(ic)
        lp.twisted_involutions(ic.dual)
        simples = [tg.canonical_lift(ic.weyl.simple(s))
                   for s in range(ic.n_simple)]
        for tau in taus.elements:
            lift = tg.canonical_lift(tau.w)
            for b in simples:
                op("tits.multiply_us", tg.multiply, lift, b)
            fs = op("fiber.build_us", lp.FiberSpace, tau, ic)
            for z in squares:
                op("fiber.elements_us", fs.elements, z)
            m = lp.IntMatrix.identity(ic.rank) + lp.theta_matrix(tau, ic)
            op("intlinalg.snf_us", lp.smith_normal_form, m)
            op("zspace.dual_tau_us", lp.dual_tau, tau, ic)
    return {k: statistics.fmean(v) * 1e6 for k, v in times.items()}


def layer_metrics(lp, workload, traced, tracer, overhead):
    """Per-layer metrics: spans of the traced passes, filled in from a
    traced replay for layers the queries do not call, then probes and
    tracemalloc peaks."""
    passes = len(traced.walls)
    rtr = Tracer()
    replay(lp, rtr, workload.replay_groups, workload.replay_session)
    stats = {**rtr.stats(), **tracer.stats(passes)}
    selfs = {**rtr.self_times(), **tracer.self_times(passes)}
    probes = probe(lp, workload.groups)
    gc.collect()
    mem = MemTracer()
    tracemalloc.start()
    try:
        replay(lp, mem, workload.replay_groups, False)
    finally:
        tracemalloc.stop()

    def sec(name):
        return stats[name][0]

    def per(name, scale):
        s, _, n = stats[name]
        return s / n * scale

    m = {
        "rootdatum.build_ms": sec("rootdatum.build") * 1e3,
        "rootdatum.roots": stats["rootdatum.build"][2],
        "weyl.inner_class_ms": sec("weyl.inner_class") * 1e3,
        "weyl.involutions_s": sec("weyl.involutions"),
        "weyl.taus": stats["weyl.involutions"][2],
        "weyl.us_per_tau": per("weyl.involutions", 1e6),
        "weyl.cartans_ms": sec("weyl.cartans") * 1e3,
        "weyl.alloc_peak_kib": mem.peaks["weyl"] / 1024,
        "tits.group_ms": sec("tits.group") * 1e3,
        "tits.multiply_us": probes["tits.multiply_us"],
        "fiber.central_ms": sec("fiber.central") * 1e3,
        "fiber.build_us": probes["fiber.build_us"],
        "fiber.elements_us": probes["fiber.elements_us"],
        "intlinalg.snf_us": probes["intlinalg.snf_us"],
        "kgb.enumerate_s": sec("kgb.enumerate"),
        "kgb.elements": stats["kgb.enumerate"][2],
        "kgb.us_per_elem": per("kgb.enumerate", 1e6),
        "kgb.forms_ms": sec("kgb.forms") * 1e3,
        "kgb.alloc_peak_kib": mem.peaks["kgb"] / 1024,
        "zspace.count_s": sec("zspace.count"),
        "zspace.dual_tau_us": probes["zspace.dual_tau_us"],
        "zspace.pairs": stats["zspace.count"][2],
        "zspace.us_per_pair": per("zspace.enumerate", 1e6),
        "zspace.alloc_peak_kib": mem.peaks["zspace"] / 1024,
    }
    for cmd in CLI_COMMANDS:
        s, calls, _ = stats["cli." + cmd]
        m[f"cli.cmd_ms.{cmd}"] = s / calls * 1e3
    m["cli.output_kib"] = sum(n for name, (_, _, n) in stats.items()
                              if name.startswith("cli.")) / 1024
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    m["trace.overhead_frac"] = overhead
    return m


def write_trace(workload, seed, tracer):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(
        [dict(zip(("name", "start", "end", "parent", "query"), s))
         for s in tracer.spans]))
    return path


def fmt(values):
    return " ".join(f"{v:.4g}" for v in values)


def run(workload, seed, seconds, trace):
    """Measure one workload; returns (report lines, result object)."""
    lp, inputs, setup_s = setup(workload, seed)
    lines = [f"workload {workload.name}  seed {seed}  trace {trace}"]
    if not trace:
        passes = measure(workload, lp, inputs, NullTracer(), seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(passes.walls),
            "peak_rss_mib": rss,
        }
        runs = [passes]
        lines.append(f"passes {len(passes.walls)}: {fmt(passes.walls)} s "
                     f"at reference speed; {fmt(passes.raw)} s measured")
        lines.append(latency_line(passes))
    else:
        untraced = measure(workload, lp, inputs, NullTracer(), seconds / 2)
        tracer = Tracer()
        traced = measure(workload, lp, inputs, tracer, seconds / 2)
        overhead = (statistics.median(traced.walls)
                    / statistics.median(untraced.walls) - 1)
        metrics = latencies(untraced)
        metrics.update(layer_metrics(lp, workload, traced, tracer, overhead))
        runs = [untraced, traced]
        lines.append(f"untraced passes {fmt(untraced.walls)} s; "
                     f"traced passes {fmt(traced.walls)} s; "
                     "at reference speed")
        lines.append(latency_line(untraced))
        lines.append(f"spans written to {write_trace(workload, seed, tracer)}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    lines.append(f"queries {attempted}  failed {failed}  "
                 f"fail_frac {failed / attempted:.6g}")
    for name, value in metrics.items():
        lines.append(f"  {name:<26} {value:>14.6g} {unit_of(name)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liepar" / "__init__.py").is_file():
        print(f"error: no liepar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](load_golden())
    lines, result = run(workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
