"""Seeded workloads for the ``ott`` benchmark, with known answers.

Each workload is built from a seed (the same seed gives the same inputs),
carries the verdict every item must get, and runs as a closed loop: the next
item is handed to ``ott`` only after the previous verdict is in.  The
expected answers are written down here, never taken from the checker:

``script``
    A ``.ott`` script of many small items run in-process through
    ``ott.cli.main(["--json", "check", path])``.  Every template below states
    its verdict (and, for ``infer``/``elab``, the printed type); a fixed share
    of the items are known rejections.  Postulates and definitions are
    scattered through the file, so per-item costs that grow with the number
    of declared names show.
``large-terms``
    ``ott.checker.check`` on eight large judgements: the four families of
    ``ott.bench`` at 2^17 nodes, the 2^4400-valued refl rejection, the
    accepted tower at ``Nat``, a rejection whose mismatch is the last node
    compared, and a judgement over a context of 1000 entries with far
    variable lookups.  Verdicts are fixed by construction.
``elab``
    Library calls into ``ott.derived``: ``transport`` over a family with 4096
    ``app`` links, a chain of 31 ``transitivity`` calls, and
    ``telescope_pi(...).betaconv`` for telescope lengths 1..8.  The expected
    stated type of every result is built by hand.

All generators run in time linear in their output: sizes are tracked while
terms grow, never recomputed.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from time import perf_counter_ns

import ott.bench
import ott.checker
import ott.cli
import ott.derived
from ott.checker import HasType
from ott.kernel import CONST
from ott.terms import (
    App, Const, Id, Lambda, NatRec, NatTy, Pi, Refl, Succ, Var, Zero, size,
)

# -- term utilities ---------------------------------------------------------


def same(a, b):
    """Syntactic identity of two core terms, decided by the benchmark itself
    (iteratively: the terms are deep)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if len(x) != len(y) or x[0] != y[0]:
            return False
        if x[0] <= CONST:
            if x[1:] != y[1:]:
                return False
        else:
            stack.extend(zip(x[1:], y[1:]))
    return True


def _nat(k):
    t = Zero
    for _ in range(k):
        t = Succ(t)
    return t


class Pass:
    """Timestamps of one closed-loop pass (perf_counter_ns) and its raw
    outcome, which ``Workload.verify`` judges after timing has stopped.
    ``probes`` are the machine's speed just before and after the pass, which
    the runner measures and sets."""

    __slots__ = ("start", "verdicts", "end", "outcome", "probes")

    def __init__(self, start, verdicts, end, outcome, probes=None):
        self.start = start
        self.verdicts = verdicts
        self.end = end
        self.outcome = outcome
        self.probes = probes


class Verified:
    """What one pass produced, judged against the known answers.

    ``fingerprint`` holds the behavioural counts visible at the benchmark's
    own boundary; it must repeat exactly across passes and with tracing on.
    """

    def __init__(self, attempted, failed, fingerprint, extra=None):
        self.attempted = attempted
        self.failed = failed
        self.fingerprint = fingerprint
        self.extra = extra or {}


# -- script -------------------------------------------------------------------

SCRIPT_ITEMS = 10_000
DECL_EVERY = 25  # one postulate or def after every 25 verdict items
_NAMES = "xyzuvwpqrstmnk"

# (count per 100 items, template, item kind, verdict, printed type or None).
# Slots: {x} {y} {z} {p} binder names, {c} a declared constant, {d} a def.
_TEMPLATES = (
    (8, "check [{x} : A, {y} : A] Ctxt", "check", "accept", None),
    (8, "check [{x} : A, {y} : A] |- Id(A, {x}, {y}) Type", "check", "accept", None),
    (10, "check [{x} : A] |- refl(A, {x}) : Id(A, {x}, {x})", "check", "accept", None),
    (10, "check [] |- app{{A, {z}.A}}(idA, {c}) : A", "check", "accept", None),
    (8, "check [] |- {d} : A", "check", "accept", None),
    (8, "check [] |- betaconv{{A, {x}.A}}({c}, {x}.{x})"
        " : Id(A, app{{A, {x}.A}}(lam({x} : A -> A) {x}, {c}), {c})", "check", "accept", None),
    (8, "check [] |- natrec{{{x}.Nat}}(zero, {x} {y}.succ({y}), succ(succ(zero))) : Nat",
        "check", "accept", None),
    (8, "check [{x} : A, {y} : A, {p} : Id(A, {x}, {y})] |- {p} : Id(A, {x}, {y})",
        "check", "accept", None),
    (6, "infer [{x} : A] |- refl(A, {x})", "infer", "accept", "Id(A, {x}, {x})"),
    (6, "infer [{x} : A, {y} : A, {p} : Id(A, {x}, {y})]"
        " |- idrec{{A, {x} {y} {z}.Id(A, {y}, {x})}}({x}, {y}, {p}, {x}.refl(A, {x}))",
        "infer", "accept", "Id(A, {y}, {x})"),
    (4, "elab [{x} : A, {y} : A, {p} : Id(A, {x}, {y})] |- symmetry(A, {x}, {y}, {p})",
        "elab", "accept", "Id(A, {y}, {x})"),
    (4, "elab [{x} : A, {y} : A, {p} : Id(A, {x}, {y})]"
        " |- transport{{A, {z}.Id(A, {z}, {z})}}({x}, {y}, {p}, refl(A, {x}))",
        "elab", "accept", "Id(A, {y}, {y})"),
    # known rejections: 12 per 100
    (3, "check [{x} : A, {y} : A] |- refl(A, {x}) : Id(A, {x}, {y})", "check", "reject", None),
    (3, "check [{x} : A] |- {x} Type", "check", "reject", None),
    (2, "check [] |- app{{A, {z}.A}}(idA, {c}) : Nat", "check", "reject", None),
    (2, "infer [{x} : A] |- app{{A, {z}.A}}({x}, {x})", "infer", "reject", None),
    (2, "elab [{x} : A, {y} : A, {p} : Id(A, {x}, {y})] |- symmetry(A, {y}, {x}, {p})",
        "elab", "reject", None),
)
assert sum(t[0] for t in _TEMPLATES) == 100

_PRELUDE = (
    "postulate A : Type",
    "postulate a : A",
    "def idA : Pi(x : A) A := lam(x : A -> A) x",
    "postulate c0 : A",
    "def d0 : A := app{A, x.A}(idA, c0)",
)


def script_text(seed, items=SCRIPT_ITEMS):
    """The script and, per verdict line it must print, the expected
    ``(item, verdict, printed type or None)``."""
    if items % 100:
        raise ValueError("script item count must be a multiple of 100")
    rng = random.Random(seed)
    order = [t for t in _TEMPLATES for _ in range(t[0] * items // 100)]
    rng.shuffle(order)
    lines = list(_PRELUDE)
    consts, defs = ["c0"], ["d0"]
    expected = []
    for i, (_, template, kind, verdict, printed) in enumerate(order):
        if i and i % DECL_EVERY == 0:
            if len(consts) <= len(defs):
                name = f"c{len(consts)}"
                lines.append(f"postulate {name} : A")
                consts.append(name)
            else:
                name = f"d{len(defs)}"
                lines.append(f"def {name} : A := app{{A, x.A}}(idA, {rng.choice(consts)})")
                defs.append(name)
        x, y, z, p = rng.sample(_NAMES, 4)
        slots = dict(x=x, y=y, z=z, p=p, c=rng.choice(consts), d=rng.choice(defs))
        lines.append(template.format(**slots))
        expected.append((kind, verdict, printed.format(**slots) if printed else None))
    return "\n".join(lines) + "\n", expected


class _LineSink:
    """Stands in for stdout: keeps the text and stamps each completed line."""

    def __init__(self):
        self.chunks = []
        self.stamps = []

    def write(self, s):
        self.chunks.append(s)
        if s.endswith("\n"):
            self.stamps.append(perf_counter_ns())
        return len(s)

    def flush(self):
        pass

    def text(self):
        return "".join(self.chunks)


class ScriptWorkload:
    name = "script"
    EXIT_CODE = 1  # the script holds known rejections

    def __init__(self, seed, workdir, items=SCRIPT_ITEMS):
        self.text, self.expected = script_text(seed, items)
        self.path = os.path.join(workdir, f"script-{seed}.ott")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(self.text)
        self.describe = {
            "items": len(self.expected),
            "declarations": self.text.count("\npostulate ") + self.text.count("\ndef "),
            "input_bytes": len(self.text.encode()),
        }

    def digest(self):
        return self.text

    def run_pass(self):
        sink = _LineSink()
        with contextlib.redirect_stdout(sink):
            start = perf_counter_ns()
            code = ott.cli.main(["--json", "check", self.path])
            end = perf_counter_ns()
        return Pass(start, sink.stamps, end, (code, sink.text()))

    def verify(self, p):
        code, text = p.outcome
        attempted = len(self.expected)
        try:
            records = [json.loads(line) for line in text.splitlines()]
        except ValueError:  # a line that is not a JSON record
            records = []
        if code != self.EXIT_CODE or len(records) != attempted:
            return Verified(attempted, attempted, ("broken", code, len(records)))
        failed = 0
        fingerprint = []
        for rec, (kind, verdict, printed) in zip(records, self.expected):
            shown = rec.get("inferred", rec.get("stated_type"))
            if rec.get("item") != kind or rec.get("verdict") != verdict or (
                    printed is not None and shown != printed):
                failed += 1
            fingerprint.append(rec.get("steps", 0))
        return Verified(attempted, failed, (code, sum(fingerprint), tuple(fingerprint)),
                        {"output_bytes": len(text.encode())})


# -- large-terms --------------------------------------------------------------

LARGE_NODES = 2 ** 17
TOWER_LEVELS = 4400  # huge1 encodes 2^4401
LAST_NODE_TOWER = 2 ** 15
DEEP_CONTEXT = 1000

_TWO = _nat(2)
_DOUBLE_STEP = NatRec(NatTy, _TWO, Succ(Var(0)), Var(0))  # scase: ih + 2
_SUCC_VAR = Succ(Var(0))
_SMALL = {k: _nat(k) for k in (1, 2, 3)}


def exp_tower(levels):
    """A closed Nat term of 3 + 11*levels nodes whose value is 2^(levels+1)."""
    t = _TWO
    for _ in range(levels):
        t = NatRec(NatTy, Zero, _DOUBLE_STEP, t)
    return t, 3 + 11 * levels


def add_tower(rng, target, base=_TWO):
    """A closed Nat sum of small seeded numerals, grown until it has about
    ``target`` nodes; returns the term, its size and the numerals used."""
    t, n, ks = base, size(base), []
    while n < target - 8:
        k = rng.randint(1, 3)
        t = NatRec(NatTy, _SMALL[k], _SUCC_VAR, t)
        n += k + 5
        ks.append(k)
    return t, n, ks


def _tower_from(ks, base):
    t = base
    for k in ks:
        t = NatRec(NatTy, _SMALL[k], _SUCC_VAR, t)
    return t


class LargeTermsWorkload:
    name = "large-terms"

    def __init__(self, seed, workdir=None):
        rng = random.Random(seed)
        self.sig = ott.bench.bench_signature()
        items = []
        for family in ott.bench.FAMILIES:
            cfg = ott.bench.BenchConfig(family, sizes=(LARGE_NODES,), seed=seed)
            ((_, judgement),) = ott.bench.generate_family(cfg)
            items.append((family, judgement, "accept"))
        huge1, n1 = exp_tower(TOWER_LEVELS)
        huge2, _, _ = add_tower(rng, n1)
        items.append(("huge-refl", HasType((), Refl(NatTy, huge1), Id(NatTy, huge1, huge2)),
                      "reject"))
        items.append(("huge-nat", HasType((), huge1, NatTy), "accept"))
        # two towers equal but for the base numeral, 2 against 3: the first
        # difference is the last node of a left-to-right walk
        _, _, ks = add_tower(rng, LAST_NODE_TOWER)
        left, right = _tower_from(ks, _TWO), _tower_from(ks, _nat(3))
        items.append(("last-node", HasType((), Refl(NatTy, left), Id(NatTy, left, right)),
                      "reject"))
        # a deep context of A/Nat entries; the looked-up variable is one of
        # the outermost eight and has type A
        far = DEEP_CONTEXT - 1 - rng.randrange(8)
        ctx = [NatTy if rng.random() < 0.5 else Const("A") for _ in range(DEEP_CONTEXT)]
        ctx[DEEP_CONTEXT - 1 - far] = Const("A")
        items.append(("deep-context",
                      HasType(tuple(ctx), Refl(Const("A"), Var(far)),
                              Id(Const("A"), Var(far), Var(far))),
                      "accept"))
        self.items = items
        self.sizes = [sum(size(e) for e in j.ctx) + size(j.term) + size(j.ty)
                      for _, j, _ in items]
        if not (0.9 * n1 < size(huge2) < 1.1 * n1):
            raise AssertionError("huge2 does not match huge1's size")
        self.describe = {"items": len(items), "input_nodes": sum(self.sizes)}

    def digest(self):
        return tuple(self.sizes), tuple(name for name, _, _ in self.items)

    def run_pass(self):
        sig = self.sig
        reports = []
        stamps = []
        start = perf_counter_ns()
        for _, judgement, _ in self.items:
            try:
                reports.append(ott.checker.check(sig, judgement))
            except Exception as exc:  # noqa: BLE001 - a crash is a wrong verdict
                reports.append(exc)
            stamps.append(perf_counter_ns())
        return Pass(start, stamps, perf_counter_ns(), reports)

    def verify(self, p):
        failed = 0
        fingerprint = []
        per_item = {}
        for (name, _, verdict), report in zip(self.items, p.outcome):
            if isinstance(report, Exception) or report.verdict != verdict:
                failed += 1
                fingerprint.append(None)
                continue
            fingerprint.append(report.steps)
            per_item[name] = report.nanoseconds / report.steps
        total = sum(s or 0 for s in fingerprint)
        return Verified(len(self.items), failed, (total, tuple(fingerprint)),
                        {"ns_per_step": per_item, "expect_traced": {"checker.steps": total}})


# -- elab ---------------------------------------------------------------------

TRANSPORT_LINKS = 4096
CHAIN_PATHS = 32
TELESCOPE_MAX = 8


class ElabWorkload:
    name = "elab"

    def __init__(self, seed, workdir=None):
        rng = random.Random(seed)
        a = Const("A")
        self.A = a
        consts = [f"e{j}" for j in range(TELESCOPE_MAX)]
        sig = ott.bench.bench_signature()
        for name in consts:
            sig = sig.with_const(name, a)
        self.sig = sig
        items = []

        # transport over x. Id(A, chain(x), chain(x)), chain = 4096 seeded
        # applications of the identity or a constant function
        funs = (Lambda(a, a, Var(0)), Lambda(a, a, Const("c")))
        links = [rng.choice(funs) for _ in range(TRANSPORT_LINKS)]

        def chain(v):
            t = v
            for f in links:
                t = App(a, a, f, t)
            return t

        ctx = (a, a, Id(a, Var(1), Var(0)))  # x, y, p : x = y
        x, y, p = Var(2), Var(1), Var(0)
        family = Id(a, chain(Var(0)), chain(Var(0)))
        items.append(("transport", ("transport", ctx, a, family, x, y, p,
                                    Refl(a, chain(x))), Id(a, chain(y), chain(y))))

        # transitivity chain over x0..xk and p_i : x_{i-1} = x_i
        k = CHAIN_PATHS
        entries = [a] * (k + 1)
        for i in range(1, k + 1):
            depth = len(entries)
            entries.append(Id(a, Var(depth - i), Var(depth - 1 - i)))
        self.chain_ctx = tuple(entries)
        n = len(entries)
        self.xv = lambda j: Var(n - 1 - j)
        self.pv = lambda i: Var(n - 1 - k - i)
        for i in range(1, k):
            items.append((f"transitivity-{i}", ("transitivity", i),
                          Id(a, self.xv(0), self.xv(i + 1))))

        # telescope computation witnesses over (A,)*L with result type A;
        # every annotation is closed, so the expected type is the plain spine
        for length in range(1, TELESCOPE_MAX + 1):
            args = tuple(Const(rng.choice(consts)) for _ in range(length))
            j = rng.randrange(length)
            suffix = [a]  # suffix[i]: the product over entries i..
            for _ in range(length):
                suffix.insert(0, Pi(a, suffix[0]))
            fun = Var(j)
            for level in range(length - 1, -1, -1):
                fun = Lambda(a, suffix[level + 1], fun)
            spine = fun
            for level, arg in enumerate(args):
                spine = App(a, suffix[level + 1], spine, arg)
            items.append((f"telescope-{length}", ("betaconv", (a,) * length, Var(j), args),
                          Id(a, spine, args[length - 1 - j])))
        self.items = items
        self.input_nodes = (size(family) + size(items[0][1][7])
                            + sum(size(e) for e in self.chain_ctx))
        self.describe = {"items": len(items), "input_nodes": self.input_nodes,
                         "transport_family_nodes": size(family)}

    def digest(self):
        return self.input_nodes, tuple(size(want) for _, _, want in self.items)

    def run_pass(self):
        derived = ott.derived
        sig, a = self.sig, self.A
        results = []
        stamps = []
        start = perf_counter_ns()
        acc = self.pv(1)
        for name, call, _ in self.items:
            try:
                if call[0] == "transitivity":  # next link of the chain
                    i = call[1]
                    out = derived.transitivity(sig, self.chain_ctx, a, self.xv(0), self.xv(i),
                                               self.xv(i + 1), acc, self.pv(i + 1))
                    acc = out.term
                elif call[0] == "transport":
                    out = derived.transport(sig, *call[1:])
                else:
                    _, delta, body, args = call
                    out = derived.telescope_pi(sig, (), delta, a).betaconv(body, args)
            except Exception as exc:  # noqa: BLE001 - a crash is a wrong verdict
                out = exc
            results.append(out)
            stamps.append(perf_counter_ns())
        return Pass(start, stamps, perf_counter_ns(), results)

    def verify(self, p):
        failed = 0
        emitted = []
        for (_, _, want), out in zip(self.items, p.outcome):
            if isinstance(out, Exception) or not same(out.stated_type, want):
                failed += 1
                emitted.append(None)
            else:
                emitted.append(size(out.term))
        total = sum(e or 0 for e in emitted)
        return Verified(len(self.items), failed, (total, tuple(emitted)),
                        {"expect_traced": {"derived.emitted_nodes": total}})


WORKLOADS = {
    "script": ScriptWorkload,
    "large-terms": LargeTermsWorkload,
    "elab": ElabWorkload,
}
