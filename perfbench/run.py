#!/usr/bin/env python3
"""Benchmark of the ``ott`` proof checker, end to end and layer by layer.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload script --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``layers.py``) with the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``.  Every line but the last is for
people; the last is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Each run builds its inputs ``SETUP_REPEATS`` times (the builds must agree),
starts one child process that runs a single pass for ``peak_rss_mb``, makes
one warm-up pass, then repeats closed-loop passes for ``--seconds``.  Every
build and every pass is bracketed by two probes of the machine's speed, and
its times are brought to a reference speed (see ``speed_factor``).  Each
timed stretch of a pass is then taken at its median over the passes (see
``end_to_end``); set-up time is the import plus the median of the builds.
Every pass is checked against the workload's known answers, and its
behavioural fingerprint must repeat exactly in every pass, traced or not;
otherwise ``correct`` is false and the exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"  # generated scripts and span dumps

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150

# A probe times a fixed job of its own REFERENCE_REPEATS times and keeps the
# fastest (see ``reference_ns``); REFERENCE_NS is the probe on the 2-core
# machine the baseline was recorded on, in its usual state.
REFERENCE_REPEATS = 10
REFERENCE_NS = 3_000_000
# The job's memory-bound half walks a fixed pseudo-random cycle through
# PROBE_SLOTS machine words (32 MB, past the private caches).
PROBE_SLOTS = 1 << 22
PROBE_STEPS = 10_000
TIME_UNITS = {"s", "ms", "ns"}

# Traced counts that must repeat exactly from pass to pass.
FINGERPRINT_KEYS = (
    "checker.steps", "checker.check_calls", "checker.infer_calls",
    "kernel.eq_lazy_calls", "kernel.eq_lazy_steps", "kernel.inst_calls",
    "kernel.inst_nodes", "derived.elab_calls", "derived.recheck_calls",
    "derived.emitted_nodes", "surface.core_nodes", "surface.print_chars",
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


def import_ott():
    """Import the checkout's ``ott`` and the workloads; return the seconds
    the imports took."""
    if not (SRC / "ott" / "__init__.py").is_file():
        raise BenchError(f"no ott package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import ott  # noqa: F401
    import workloads  # noqa: F401
    elapsed = perf_counter() - t0
    if Path(ott.__file__).resolve().parent != SRC / "ott":
        raise BenchError(f"imported ott from {ott.__file__}, not from {SRC}")
    return elapsed


_cycle = None
_slot = 0  # where the next chase starts, so that it walks slots not in cache


def probe_cycle():
    """The probe's cycle, built on first use: slot i holds the next slot
    of the full-period linear congruential sequence modulo PROBE_SLOTS."""
    global _cycle
    if _cycle is None:
        mask = PROBE_SLOTS - 1
        _cycle = array("q", ((i * 1_103_515_245 + 12_345) & mask for i in range(PROBE_SLOTS)))
    return _cycle


def reference_ns():
    """Time a fixed pure-Python job shaped like the checker's work: build a
    deep tuple tree, walk it with an explicit stack, churn a dict, and chase
    pointers through a working set larger than the private caches.  Its code
    never changes, so it slows only when the shared machine does: with the
    compute it shares with other tenants (the first half) and with the
    caches and memory it shares with them (the chase)."""
    global _slot
    cycle = probe_cycle()
    t0 = perf_counter_ns()
    t = (0,)
    for i in range(3000):
        t = (i % 7, t, (i, (i & 3,)))
    stack = [t]
    while stack:
        x = stack.pop()
        if len(x) > 1:
            stack.extend(x[1:])
    d = {}
    for i in range(3000):
        d[i & 255] = d.get((i * 13) & 255, 0) + 1
    i = _slot
    for _ in range(PROBE_STEPS):
        i = cycle[i]
    elapsed = perf_counter_ns() - t0
    _slot = i
    return elapsed


def probe():
    """How long the reference job takes now, at best (ns)."""
    return min(reference_ns() for _ in range(REFERENCE_REPEATS))


def speed_factor(before, after):
    """The factor that brings a time measured between two probes to the
    reference speed.  It depends on the machine alone, never on ott, so a
    change to ott moves its scaled times as much as its raw ones."""
    return REFERENCE_NS / ((before + after) / 2)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def own_peak_rss_kb():
    """This process's peak RSS (kB).  VmHWM counts only the pages of the
    program it runs; ``ru_maxrss`` would also count the parent's pages it
    had mapped before exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_child(workload, seed):
    """Peak RSS (MB) of a child process that builds and runs one pass of the
    workload; raises BenchError if the child fails."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--rss-child"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"rss child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return int(proc.stdout.split()[-1]) / 1024


class Run:
    """The passes of one invocation and everything judged about them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.fingerprints = set()
        self.problems = []

    def one_pass(self, before=None, after=None):
        """Run and verify one pass; ``before``/``after`` bracket the pass
        itself (not its verification) and ``after``'s result is returned.
        Every pass starts from a fresh collector state, so the garbage
        collections inside a pass fall on the same items in every pass.
        Probes just before and after the pass tell the machine's speed."""
        gc.collect()
        speed = probe()
        if before:
            before()
        p = self.workload.run_pass()
        extra = after() if after else None
        p.probes = (speed, probe())
        v = self.workload.verify(p)
        self.attempted += v.attempted
        self.failed += v.failed
        self.fingerprints.add(v.fingerprint)
        return p, v, extra

    def loop(self, seconds, minimum):
        passes = []
        deadline = perf_counter() + seconds
        while len(passes) < minimum or perf_counter() < deadline:
            passes.append(self.one_pass())
        return passes


def pass_factor(p):
    """The speed factor of a whole pass."""
    return speed_factor(*p.probes)


def duration(entry):
    """A pass's duration in seconds at the reference speed."""
    p = entry[0]
    return (p.end - p.start) * pass_factor(p) / 1e9


def scaled_segments(p):
    """The segments of a pass (see ``end_to_end``) at the reference speed.
    The speed can change within a pass, so each segment's probe is the two
    probes interpolated at the segment's middle."""
    marks = [p.start, *p.verdicts, p.end]
    before, after = p.probes
    out = []
    for a, b in zip(marks, marks[1:]):
        w = ((a + b) / 2 - p.start) / (p.end - p.start)
        out.append((b - a) * REFERENCE_NS / ((1 - w) * before + w * after))
    return out


def end_to_end(passes):
    """Timings robust to a shared machine whose speed drifts by tens of
    percent over seconds.  A pass is cut at its verdicts into segments: start
    to first verdict, each gap between verdicts, last verdict to end.  Each
    pass's segments are brought to the reference speed by its own probes.
    Every segment repeats in every pass, so each is taken at its median over
    the passes: ``first_verdict_s`` is the first, and the verdict percentiles
    are over the gaps.  ``run_s`` is the median scaled pass.  Returns the
    metrics and the number of gaps."""
    scaled = [scaled_segments(p) for p, _, _ in passes]
    typical = [statistics.median(column) for column in zip(*scaled)]
    gaps = typical[1:-1]
    return {
        "run_s": statistics.median(sum(segments) for segments in scaled) / 1e9,
        "first_verdict_s": typical[0] / 1e9,
        "verdict_p50_ms": percentile(gaps, 0.50) / 1e6,
        "verdict_p99_ms": percentile(gaps, 0.99) / 1e6,
    }, len(gaps)


def per_layer(run, untraced, traced, names, units):
    """The layer summary of the fastest traced pass (so its times add up),
    the per-judgement rows of the fastest untraced pass, each at the
    reference speed, and the tracing overhead: traced minus untraced
    ``run_s``."""
    for key in FINGERPRINT_KEYS:
        seen = {s.get(key, 0) for _, _, s in traced}
        if len(seen) > 1:
            run.problems.append(f"{key} differs between traced passes: {sorted(seen)}")
    best_traced = min(traced, key=duration)
    best_plain = min(untraced, key=duration)
    p, verified, summary = best_traced
    out = {name: summary.get(name, 0) for name in names}
    for name in names:
        if units[name] in TIME_UNITS:
            out[name] *= pass_factor(p)
        elif units[name] == "MB/s":
            out[name] /= pass_factor(p)
    rows = best_plain[1].extra.get("ns_per_step", {})
    for name in names:
        if name.startswith("checker.ns_per_step."):
            out[name] = rows.get(name.split(".", 2)[2], 0.0) * pass_factor(best_plain[0])
    out["cli.output_bytes"] = verified.extra.get("output_bytes", 0)
    out["trace.overhead_s"] = end_to_end(traced)[0]["run_s"] - end_to_end(untraced)[0]["run_s"]
    # what the benchmark counts itself must match what the wrappers counted
    for key, value in verified.extra.get("expect_traced", {}).items():
        if out[key] != value:
            run.problems.append(f"traced {key} {out[key]} differs from the untraced {value}")
    return out


def measure(args, bench):
    import layers
    import ott
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        if args.rss_child:
            # no probe here: its cycle would add to the peak RSS
            w = cls(args.seed, workdir)
            v = w.verify(w.run_pass())
            print(own_peak_rss_kb())
            return 0 if v.failed == 0 else 1

        speed = probe()
        import_s = args.import_s * speed_factor(speed, speed)
        setups, digests = [], []
        for _ in range(SETUP_REPEATS):
            speed = probe()
            t0 = perf_counter()
            w = cls(args.seed, workdir)
            elapsed = perf_counter() - t0
            setups.append(elapsed * speed_factor(speed, probe()))
            digests.append(w.digest())
        run = Run(w)
        if any(d != digests[0] for d in digests):
            run.problems.append("input generation is not deterministic for this seed")

        print(f"workload {args.workload} seed {args.seed}: {json.dumps(w.describe)}")
        print(f"backend {ott.BACKEND}, python {platform.python_version()}, "
              f"nproc {os.cpu_count()}")
        if args.trace == 0:
            try:
                rss = run_child(args.workload, args.seed)
            except (BenchError, subprocess.TimeoutExpired) as exc:
                run.problems.append(str(exc))
                rss = 0.0
            run.one_pass()  # warm-up: verified, not timed
            timed = run.loop(args.seconds, MIN_PASSES)
            metrics, samples = end_to_end(timed)
            metrics["setup_s"] = import_s + statistics.median(setups)
            metrics["peak_rss_mb"] = rss
            print(f"{len(timed)} timed passes; verdict percentiles over {samples} items")
            names = [m["name"] for m in bench["end_to_end"]]
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        else:
            run.one_pass()
            # untraced and traced passes alternate, so both see the same
            # machine and their difference is the tracing overhead
            tracer = layers.Tracer()

            def before():
                tracer.install(ott)
                tracer.begin()

            def after():
                tracer.end()
                tracer.remove()
                return layers.summarize(tracer.spans, tracer.gc_ns, tracer.gc_count)

            untraced, traced = [], []
            deadline = perf_counter() + args.seconds
            while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
                untraced.append(run.one_pass())
                try:
                    traced.append(run.one_pass(before, after))
                finally:
                    tracer.remove()
            layers.write_spans(WORK_DIR / f"trace-{args.workload}-{args.seed}.jsonl",
                               tracer.spans)
            names = [m["name"] for m in bench["per_layer"]]
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            metrics = per_layer(run, untraced, traced, names, units)
            timed = untraced + traced
            print(f"{len(untraced)} untraced and {len(traced)} traced passes; run_s "
                  f"{end_to_end(untraced)[0]['run_s']:.4f} untraced, "
                  f"{end_to_end(traced)[0]['run_s']:.4f} traced")
        if len(run.fingerprints) != 1:
            run.problems.append(f"fingerprint differs between passes: {len(run.fingerprints)} "
                                "distinct values")
        factors = sorted(pass_factor(p) for p, _, _ in timed)
        print(f"speed factors of the timed passes: {factors[0]:.4f} to {factors[-1]:.4f}, "
              f"median {statistics.median(factors):.4f}")
        fingerprint = next(iter(run.fingerprints))
        print(f"fingerprint {json.dumps(fingerprint[:2])}")
        for name in names:
            print(f"  {name:<34} {metrics[name]:>16.6f} {units[name]}")
        share = run.failed / run.attempted
        print(f"failed_share {share:.6f} ({run.failed} of {run.attempted} items)")
        for problem in run.problems:
            print(f"PROBLEM: {problem}")
        correct = run.failed == 0 and not run.problems
        print(json.dumps({
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            bench = json.load(handle)
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        args.import_s = import_ott()
    except (BenchError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return measure(args, bench)


if __name__ == "__main__":
    sys.exit(main())
