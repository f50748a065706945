"""chartdist benchmark: closed-loop CLI queries, one client, one process.

    python3 perfbench/run.py --workload charts|exprs|certify --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The queries of a workload are made from
the seed, their reference answers are computed, and then they go one after
another through ``chartdist.cli.main`` (in this process, so each takes the
path the command line takes) in passes over the batch until ``--seconds``
have passed; the first two passes always run to their end.  Times are scaled to
a reference speed of the machine (see ``Speed``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACES = ROOT / ".bench_traces"
SETUP_SAMPLES = 11
COMMANDS = ("dist", "strat", "bisim", "compile", "derive", "check")

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CertOf  # noqa: E402

# Best time of the reference job on the machine of the first results in
# README.md; times scaled by Speed are times at that machine's speed.
REFERENCE_MS = 0.28


class Speed:
    """The speed of the machine now, read off a fixed reference job.

    On a shared host the same query runs up to 1.7 times slower for seconds,
    and at times for minutes, while other jobs load the machine.  Before
    each query the benchmark times the reference job: the oracle's
    ``pair_levels`` on a fixed pair of 8-state charts, pure Python on sets,
    dicts and tuples as the program is, but none of the program's code.
    ``scale()`` is ``REFERENCE_MS`` over the least of its last few times."""

    def __init__(self):
        rng = random.Random("reference")
        c1 = workloads.rand_chart(rng, 8)
        self.pair = (c1, workloads.perturbed(rng, c1))
        self.recent = collections.deque(maxlen=8)
        self.samples = []

    def tick(self):
        t0 = time.perf_counter_ns()
        oracle.pair_levels(*self.pair)
        ms = (time.perf_counter_ns() - t0) / 1e6
        self.recent.append(ms)
        self.samples.append(ms)

    def scale(self):
        return REFERENCE_MS / min(self.recent)


class SetupClock:
    """Wall times of fresh interpreters importing the command line, scaled
    to the reference speed.

    Each interpreter notes when its import has ended (the monotonic clock
    is the same in every process), then times the reference job itself,
    since it may run on another processor than the benchmark.  The samples
    are taken between queries, spread evenly over the measured time."""

    CHILD = ("import time, chartdist.cli\n"
             "done = time.perf_counter_ns()\n"
             f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
             "import run\n"
             "speed = run.Speed()\n"
             "for _ in range(8):\n"
             "    speed.tick()\n"
             "print(done, run.REFERENCE_MS / min(speed.samples))\n")

    def __init__(self, seconds):
        # the bytecode cache is always written, and kept out of the sources
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.every = seconds / SETUP_SAMPLES
        self.raw = []
        self.samples = []
        self.sample()  # writes the bytecode cache; not kept
        self.raw.clear()
        self.samples.clear()
        self.due = time.perf_counter()

    def sample(self):
        t0 = time.perf_counter_ns()
        out = subprocess.run([sys.executable, "-c", self.CHILD], env=self.env, cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        done, scale = out.split()
        self.raw.append((int(done) - t0) / 1e9)
        self.samples.append(self.raw[-1] * float(scale))

    def between(self):
        """Take a sample if one is due."""
        if time.perf_counter() >= self.due:
            self.sample()
            self.due = time.perf_counter() + self.every


def tamper(cert):
    """The certificate with its first coupling bound halved."""
    m = re.search(r"\(coupling (\S+)", cert)
    if m is None:
        return None
    low = Fraction(m.group(1)) / 2
    return cert[:m.start(1)] + str(low) + cert[m.end(1):]


class Runner:
    """Runs queries through the command line and judges their outputs."""

    def __init__(self, queries, cli):
        self.queries = queries
        self.cli = cli
        self.pinned = {}      # query index -> stdout seen (and judged) first
        self.wrong = []       # queries that gave a wrong answer
        self.errors = {}      # query index -> exception name
        self.problems = []    # failed self-checks of the benchmark

    def argv(self, q):
        out = []
        for a in q.argv:
            if isinstance(a, CertOf):
                cert = self.pinned.get(a.index)
                if cert is None:
                    return None
                a = tamper(cert.strip()) if a.tamper else cert.strip()
                if a is None:
                    return None
            out.append(a)
        return out

    def call(self, argv, tracer=None, qid=None):
        """(exit code or exception name, stdout, elapsed ns)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.begin_query(qid)
            t0 = time.perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except Exception as e:  # a crash is a failed query, not a stop
                code = type(e).__name__
            elapsed = time.perf_counter_ns() - t0
            if tracer is not None:
                elapsed = tracer.end_query()
        return code, out.getvalue(), elapsed

    def run(self, q, tracer=None):
        """(ok, elapsed ns or None, stdout) for one query."""
        argv = self.argv(q)
        if argv is None:
            self.errors[q.index] = "no certificate to check"
            return False, None, ""
        code, stdout, elapsed = self.call(argv, tracer, q.index)
        if isinstance(code, str):
            self.errors[q.index] = code
            return False, elapsed, stdout
        if q.index in self.pinned:
            ok = code == q.code and stdout == self.pinned[q.index]
        else:
            ok = code == q.code and self.judge(q, stdout)
            if ok:
                self.pinned[q.index] = stdout
        if not ok and q.index not in self.wrong:
            self.wrong.append(q.index)
        return ok, elapsed, stdout

    @staticmethod
    def judge(q, stdout):
        if q.stdout is not None:
            return stdout == q.stdout
        if q.verify is not None:
            return q.verify(stdout)
        # a derived certificate; the check query after it judges its bound
        return stdout.startswith("(")


class Pass:
    """Latencies and outcomes of one pass over the batch."""

    def __init__(self):
        self.latency_ms = {}          # query index -> ms, for every query that ran
        self.scaled_ms = {}           # the same at the reference speed
        self.ok = 0
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    @property
    def busy_ms(self):
        """Time spent in queries, at the reference speed."""
        return sum(self.scaled_ms.values())


def run_pass(runner, tracer=None, deadline=None, speed=None, between=None):
    """One pass over the batch; with a deadline, it stops there, incomplete.
    With a ``speed``, latencies are also scaled to the reference speed.
    ``between`` is called before each query, outside its timing."""
    p = Pass()
    for q in runner.queries:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if speed is not None:
            speed.tick()
        if between is not None:
            between()
        ok, elapsed, stdout = runner.run(q, tracer)
        p.attempted += 1
        p.output_bytes += len(stdout.encode())
        if ok:
            p.ok += 1
        else:
            p.failed += 1
        if elapsed is not None:
            p.latency_ms[q.index] = elapsed / 1e6
            if speed is not None:
                p.scaled_ms[q.index] = elapsed / 1e6 * speed.scale()
    return p


def query_best(passes, queries, scaled=True):
    """Per query, its least latency over the passes, at the reference speed
    or as measured.  Each pass runs a query at another moment, and the least
    of its latencies is the one least slowed by the rest of the machine."""
    out = {}
    for q in queries:
        seen = [(p.scaled_ms if scaled else p.latency_ms)[q.index]
                for p in passes if q.index in p.latency_ms]
        if seen:
            out[q.index] = min(seen)
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_passes(runner, seconds, speed, between=None):
    """Passes until the time is up.  The first two always run to their end,
    so that every latency is the best of two or more."""
    t0 = time.perf_counter()
    passes = [run_pass(runner, speed=speed, between=between) for _ in range(2)]
    while time.perf_counter() - t0 < seconds:
        passes.append(run_pass(runner, deadline=t0 + seconds, speed=speed,
                               between=between))
    return passes


def timings(runner, passes, setup, scaled):
    """setup_s, queries_per_s and latency_p50_ms and _p90_ms, from the
    per-query bests."""
    best = query_best(passes, runner.queries, scaled)
    lat = list(best.values())
    good = [i for i in best if i not in runner.errors and i not in runner.wrong]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "queries_per_s": metric(len(good) * 1000 / sum(lat), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat, n=10)[8], "ms"),
    }


def end_to_end(runner, seconds):
    speed = Speed()
    clock = SetupClock(seconds)
    passes = timed_passes(runner, seconds, speed, clock.between)
    print(f"{len(passes)} passes over {len(runner.queries)} queries, the last "
          f"cut at the deadline; {len(clock.samples)} set-up samples; "
          f"reference job median {statistics.median(speed.samples):.4f} ms")
    raw = timings(runner, passes, clock.raw, scaled=False)
    print("as measured: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in raw.items()))
    metrics = timings(runner, passes, clock.samples, scaled=True)
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return passes, metrics


def per_layer(runner, seconds, workload, seed):
    """Alternate untraced and traced passes; counts must repeat exactly in
    every traced pass, and every output must match the untraced one."""
    tracer = tracing.Tracer()
    plain, traced, counts, self_ns = [], [], None, []
    first_spans = None
    speed = Speed()
    t0 = time.perf_counter()
    while True:
        plain.append(run_pass(runner, speed=speed))
        tracer.reset()
        tracer.install()
        try:
            p = run_pass(runner, tracer, speed=speed)
        finally:
            tracer.uninstall()
        traced.append(p)
        walls = {}
        for span in tracer.spans:
            if span[0] == "query":
                walls[span[4]] = span[2] - span[1]
        calls, own = tracing.summarize(tracer.spans, walls, runner.problems)
        these = {f"{n}.calls": calls.get(n, 0) for n in tracing.SPAN_NAMES}
        these.update({n: tracer.counts.get(n, 0) for n in tracing.COUNT_NAMES})
        these["cli.output_bytes"] = p.output_bytes
        if counts is None:
            counts, first_spans = these, tracer.spans
        elif these != counts:
            changed = sorted(k for k in these if these[k] != counts[k])
            runner.problems.append(f"counts changed between traced passes: {changed}")
        self_ns.append(own)
        if time.perf_counter() - t0 >= seconds:
            break
    tracing.write_spans(TRACES / f"{workload}-seed{seed}.jsonl", first_spans)

    n_queries = len(runner.queries)
    refinements = (counts["bisim.coarsest_partition.calls"]
                   + counts["bisim.stratified_level.calls"])
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(counts[f"{name}.calls"], "count")
        ms = statistics.median(own.get(name, 0) for own in self_ns) / 1e6
        metrics[f"{name}.self_ms"] = metric(ms, "ms")
    for name in tracing.COUNT_NAMES:
        metrics[name] = metric(counts[name], "count")
    metrics["bisim.refinements_per_query"] = metric(refinements / n_queries, "count")
    metrics["derive.interprets_per_query"] = metric(
        counts["diagram.interpret.calls"] / n_queries, "count")
    metrics["cli.output_bytes"] = metric(counts["cli.output_bytes"], "B")
    best = query_best(plain, runner.queries)
    for cmd in COMMANDS:
        lat = [ms for i, ms in best.items() if runner.queries[i].cmd == cmd]
        metrics[f"cli.{cmd}.p50_ms"] = metric(statistics.median(lat) if lat else 0, "ms")
    overhead = (statistics.median(p.busy_ms for p in traced)
                / statistics.median(p.busy_ms for p in plain)) - 1
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    print(f"{len(traced)} traced and {len(plain)} untraced passes")
    return plain + traced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "chartdist" / "cli.py").is_file():
        print(f"error: no chartdist sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chartdist
    import chartdist.cli

    t0 = time.perf_counter()
    def diagram_distance(text1, text2):
        return chartdist.diagram_distance(chartdist.parse_term(text1),
                                          chartdist.parse_term(text2))

    queries, probes, digest = workloads.build(args.workload, args.seed, diagram_distance)
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries and "
          f"{len(probes)} probes, inputs sha256 {digest}, "
          f"references in {time.perf_counter() - t0:.2f} s")
    prober = Runner(probes, chartdist.cli)
    run_pass(prober)  # once, not measured
    print(f"probes: {len(prober.errors)} of {len(probes)} failed")
    runner = Runner(queries, chartdist.cli)
    run_pass(runner)  # untimed: judges every output once and pins it
    if args.trace:
        passes, metrics = per_layer(runner, args.seconds, args.workload, args.seed)
        metrics["probe.failed"] = metric(len(prober.errors), "count")
    else:
        passes, metrics = end_to_end(runner, args.seconds)
    for what, r in (("query", runner), ("probe", prober)):
        for i in r.wrong:
            q = r.queries[i]
            print(f"wrong answer: {what} {i} ({q.family} {q.cmd})", file=sys.stderr)
        for i, name in sorted(r.errors.items()):
            q = r.queries[i]
            print(f"failed: {what} {i} ({q.family} {q.cmd}): {name}", file=sys.stderr)
    for problem in runner.problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.wrong and not prober.wrong and not runner.problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
