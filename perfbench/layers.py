"""Per-layer tracing from outside the ``ott`` package.

Nothing under ``src/ott`` is edited.  Instead, a traced pass replaces the
module attributes that callers go through (``ott.cli.parse``,
``ott.derived.check``, ``ott.kernel.eq_lazy`` ...) with timing wrappers and
puts the originals back afterwards.  Because every caller looks these names up
at call time, the wrappers see every call that crosses a layer boundary.

Two kinds of record are kept, all in memory until the pass ends:

* a **span** per call of a layer's public function: name, start, end and the
  span that was open when it started (its parent);
* **aggregates** for the hot kernel calls (``eq_lazy``, ``inst``), which run
  hundreds of thousands of times per pass: a per-parent-span counter of calls,
  nanoseconds and work units instead of one span each.

A span's self time is its duration minus the time covered by its child spans
and by the kernel aggregates charged to it.  Spans never overlap their
siblings: the checker is single-threaded, and the CLI's worker thread runs
while the calling thread waits in ``join``, so one shared span stack is
enough.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter_ns

# Kernel operations counted per parent span instead of spanned (they are hot).
KERNEL_OPS = ("eq_lazy", "inst")

# Elaborator entry points, wrapped wherever they are bound by name.
DERIVED_FUNCS = (
    "transport", "symmetry", "transitivity", "congruence_app",
    "telescope_pi", "telescope_idrec", "telescope_idconv",
)
DERIVED_METHODS = ("lam", "app", "betaconv")

BOOKKEEPING = "trace.bookkeeping"


class Span:
    __slots__ = ("name", "start", "end", "parent", "units", "agg")

    def __init__(self, name, parent, start=0, end=0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.units = 0
        self.agg = {}  # op name -> [calls, ns, units]

    @property
    def duration(self):
        return self.end - self.start

    def has_ancestor(self, prefix):
        p = self.parent
        while p is not None:
            if p.name.startswith(prefix):
                return True
            p = p.parent
        return False


def self_times(spans):
    """Map each span to its duration minus its direct children's durations
    and minus the aggregated kernel/bookkeeping time charged to it."""
    covered = {id(s): 0 for s in spans}
    for s in spans:
        if s.parent is not None and id(s.parent) in covered:
            covered[id(s.parent)] += s.duration
    out = {}
    for s in spans:
        agg_ns = sum(a[1] for a in s.agg.values())
        out[id(s)] = s.duration - covered[id(s)] - agg_ns
    return out


class Tracer:
    """Installs the wrappers for one traced pass and records its spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.gc_ns = 0
        self.gc_count = 0
        self._gc_started = 0
        self._saved = []  # (owner, attribute, original), in install order

    # -- pass boundaries -------------------------------------------------
    def begin(self):
        self.spans = []
        self.gc_ns = 0
        self.gc_count = 0
        root = Span("pass", None, perf_counter_ns())
        # the wrappers hold this list object, so it is refilled, never replaced
        self.stack.clear()
        self.stack.append(root)
        gc.callbacks.append(self._on_gc)
        return root

    def end(self):
        root = self.stack.pop()
        root.end = perf_counter_ns()
        gc.callbacks.remove(self._on_gc)
        self.spans.append(root)
        if self.stack:
            raise RuntimeError("unbalanced span stack at end of pass")
        return root

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_started
            self.gc_count += 1

    # -- wrappers --------------------------------------------------------
    def _replace(self, owner, attr, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name, measure=None):
        stack = self.stack

        def wrapped(*args, **kwargs):
            span = Span(name, stack[-1])
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            if measure is not None:
                b0 = perf_counter_ns()
                span.units = measure(span, args, out)
                charge(stack[-1], BOOKKEEPING, perf_counter_ns() - b0, 0)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _aggregated(self, fn, name):
        stack = self.stack

        def wrapped(*args):
            t0 = perf_counter_ns()
            out = fn(*args)
            dt = perf_counter_ns() - t0
            acc = stack[-1].agg.get(name)
            if acc is None:
                stack[-1].agg[name] = [1, dt, out[1]]
            else:
                acc[0] += 1
                acc[1] += dt
                acc[2] += out[1]
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self, ott):
        """Wrap every layer boundary of the imported ``ott`` package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        cli, checker, derived, kernel = ott.cli, ott.checker, ott.derived, ott.kernel
        size = kernel.size
        elab_result = derived.ElabResult
        tele = derived.TelescopePi

        def input_nodes(x):
            if isinstance(x, tele):
                return sum(size(e) for e in x.delta) + size(x.body)
            if isinstance(x, tuple) and x and isinstance(x[0], int):
                return size(x)
            if isinstance(x, (tuple, list)):
                return sum(input_nodes(e) for e in x)
            return 0

        def elab_measure(span, args, out):
            # only the outermost elaborator call counts as "emitted": nested
            # ones are intermediate terms of that call
            if isinstance(out, elab_result) and not span.has_ancestor("derived."):
                return (sum(input_nodes(a) for a in args), size(out.term))
            return None

        self._replace(cli, "main", self._spanned(cli.main, "cli.main"))
        self._replace(cli, "parse", self._spanned(
            cli.parse, "surface.parse", lambda s, a, out: len(a[0])))
        self._replace(cli, "to_core", self._spanned(
            cli.to_core, "surface.to_core", lambda s, a, out: size(out)))
        self._replace(cli, "print_term", self._spanned(
            cli.print_term, "surface.print", lambda s, a, out: len(out)))
        steps = lambda s, a, out: out.steps  # noqa: E731
        for owner in (cli, checker, derived):
            self._replace(owner, "check", self._spanned(owner.check, "checker.check", steps))
        for owner in (cli, checker):
            self._replace(owner, "infer", self._spanned(owner.infer, "checker.infer"))
        for op in KERNEL_OPS:
            self._replace(kernel, op, self._aggregated(getattr(kernel, op), "kernel." + op))
        for owner in (cli, derived):
            for fname in DERIVED_FUNCS:
                self._replace(owner, fname, self._spanned(
                    getattr(owner, fname), "derived." + fname, elab_measure))
        for meth in DERIVED_METHODS:
            self._replace(tele, meth, self._spanned(
                tele.__dict__[meth], "derived.TelescopePi." + meth, elab_measure))

    def remove(self):
        """Put every original attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def charge(span, name, ns, units):
    acc = span.agg.get(name)
    if acc is None:
        span.agg[name] = [1, ns, units]
    else:
        acc[0] += 1
        acc[1] += ns
        acc[2] += units


def summarize(spans, gc_ns=0, gc_count=0):
    """Per-layer metrics of one traced pass (times in seconds)."""
    selfs = self_times(spans)
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    emitted = inputs = 0
    for s in spans:
        name = s.name
        outermost = not s.has_ancestor(name)
        if name == "cli.main":
            add("cli.self_s", selfs[id(s)])
        elif name.startswith("surface."):
            short = name.split(".", 1)[1]
            if outermost:
                add(f"surface.{short}_s", s.duration)
            if short == "parse":
                add("surface.parse_bytes", s.units)
            elif short == "to_core":
                add("surface.core_nodes", s.units)
            elif short == "print":
                add("surface.print_chars", s.units)
        elif name == "checker.check":
            add("checker.check_s", s.duration)
            add("checker.check_calls", 1)
            add("checker.steps", s.units)
            add("checker.self_s", selfs[id(s)])
            if s.has_ancestor("derived."):
                add("derived.recheck_calls", 1)
                add("derived.recheck_s", s.duration)
        elif name == "checker.infer":
            add("checker.infer_s", s.duration)
            add("checker.infer_calls", 1)
        elif name.startswith("derived."):
            add("derived.self_s", selfs[id(s)])
            if not s.has_ancestor("derived."):
                add("derived.elab_s", s.duration)
                add("derived.elab_calls", 1)
                if s.units:
                    inputs += s.units[0]
                    emitted += s.units[1]
        for op, (calls, ns, units) in s.agg.items():
            if op.startswith("kernel."):
                add(f"{op}_s", ns)
                add(f"{op}_calls", calls)
                add(f"{op}_{'steps' if op == 'kernel.eq_lazy' else 'nodes'}", units)

    out = {k: (v / 1e9 if k.endswith("_s") else v) for k, v in m.items()}
    parse_s = out.get("surface.parse_s", 0)
    out["surface.parse_mb_per_s"] = (
        out.get("surface.parse_bytes", 0) / parse_s / 1e6 if parse_s else 0.0)
    steps = out.get("checker.steps", 0)
    out["checker.ns_per_step"] = out.get("checker.check_s", 0) * 1e9 / steps if steps else 0.0
    out["derived.emitted_nodes"] = emitted
    out["derived.growth"] = emitted / inputs if inputs else 0.0
    out["runtime.gc_s"] = gc_ns / 1e9
    out["runtime.gc_collections"] = gc_count
    return out


def write_spans(path, spans):
    """Dump one pass's span tree as JSON lines (parents before children are
    not guaranteed; join on ``id``/``parent``)."""
    ids = {id(s): i for i, s in enumerate(spans)}
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            units = s.units if not isinstance(s.units, tuple) else list(s.units)
            handle.write(json.dumps({
                "id": ids[id(s)],
                "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "self_ns": selfs[id(s)],
                "units": units,
                "agg": s.agg,
            }) + "\n")
