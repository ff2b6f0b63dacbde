"""Command-line front door: run check scripts and the scaling benchmark.

Every script item emits at most one record, built in one place, ``_record``;
an accepted ``postulate`` or ``def`` emits none.  ``_run_item`` counts a
rejection and hands the record to ``_emit``, the one printer.

Exit codes: 0 all verdicts accept, 1 at least one verification failure,
2 syntax or name error, 3 usage or I/O error (a closed standard output among
them).  Any nesting depth that the checker accepts is accepted.  ``--json``
switches every command to a line-delimited record stream; ``--steps`` adds
the instrumented counters to the human-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import DEFAULT_SIZES, FAMILIES, BenchConfig, run_bench
from .checker import CtxtWF, HasType, InferFailure, TypeWF, check, infer
from .derived import (
    ElabError, congruence_app, symmetry, telescope_idconv, telescope_idrec,
    telescope_pi, transitivity, transport,
)
from .surface import (
    CheckItem, Definition, ElabItem, ParseError, Postulate, is_pair,
    located_item, parse, print_term, to_core,
)
from .terms import Signature

OK, FAIL, PARSE_ERROR, USAGE = 0, 1, 2, 3


def _truncate(text: str, limit: int = 200) -> str:
    if len(text) <= limit:
        return text
    return text[: limit - 12] + f" ...[{len(text)} chars]"


_RECORD_JSON = json.JSONEncoder(sort_keys=True)  # json.dumps's encoder, made once


def _emit(record: dict, args) -> None:
    # every record is built for this one call, so its display is cut in place
    display = record["display"] = _truncate(record["display"])
    if args.json:
        print(_RECORD_JSON.encode(record))
        return
    line = ("ok   " if record["verdict"] == "accept" else "FAIL ") + display
    if record["verdict"] == "reject" and "reason" in record:
        line += f"  -- {record['reason']} at {_RECORD_JSON.encode(record['locus'])}"
    if record.get("error"):
        line += f"  -- {record['error']}"
    if args.steps and "steps" in record:
        line += f"  [steps={record['steps']} ns={record['nanoseconds']}]"
    print(line)
    for extra in record.get("lines", ()):
        print(f"     {extra}")


class _ScriptState:
    def __init__(self):
        self.sig = Signature()
        self.defs: dict = {}
        self.failures = 0
        # every postulated or defined name, which printed binders avoid and
        # no later postulate or def may take
        self.reserved: set = set()


def _run_item(item, state: _ScriptState, args) -> None:
    """Run one item, then count its record if it rejects and emit it; an
    accepted declaration has none."""
    record = _record(item, state)
    if record is not None:
        if record["verdict"] == "reject":
            state.failures += 1
        _emit(record, args)


# Each elaborator by op, taking the item's resolved arguments after ``ctx``;
# looked up when called, so a wrapper on this module's names sees every call.
_ELABORATORS = {
    "transport": lambda *a: transport(*a),
    "symmetry": lambda *a: symmetry(*a),
    "transitivity": lambda *a: transitivity(*a),
    "congr_app": lambda *a: congruence_app(*a),
    "tele_pi": lambda *a: telescope_pi(*a),
    "tele_lam": lambda sig, ctx, delta, body, head: (
        telescope_pi(sig, ctx, delta, body).lam(head)),
    "tele_app": lambda sig, ctx, delta, body, head, fun_args: (
        telescope_pi(sig, ctx, delta, body).app(head, fun_args)),
    "tele_beta": lambda sig, ctx, delta, body, head, fun_args: (
        telescope_pi(sig, ctx, delta, body).betaconv(head, fun_args)),
    "tele_idrec": lambda *a: telescope_idrec(*a),
    "tele_idconv": lambda *a: telescope_idconv(*a),
}
# A check item's judgement form, applied to its context and terms.
_FORMS = {"ctxt": CtxtWF, "type": TypeWF, "term": HasType}


def _context_text(ctx, names, reserved) -> str:
    """``[x : A, y : B]``: each binder with its entry, printed over the
    binders before it."""
    return "[" + ", ".join(
        f"{name} : {print_term(entry, names[:i], reserved)}"
        for i, (name, entry) in enumerate(zip(names, ctx))) + "]"


def _record(item, state: _ScriptState):
    """The record of one item, or None for an accepted declaration.  Every
    name of the item is resolved before the state changes, so an unbound
    name raises with the item undone."""
    sig, defs, reserved = state.sig, state.defs, state.reserved
    if isinstance(item, (Postulate, Definition)):
        name = item.name
        if name in reserved:
            raise ValueError(f"duplicate declaration of {name!r}")
        if item.ty is None:  # an atomic type
            state.sig = sig.with_type(name)
        else:
            ty = to_core(item.ty, (), sig, defs)
            if isinstance(item, Postulate):
                kind, report = "postulate", check(sig, TypeWF((), ty))
            else:
                body = to_core(item.body, (), sig, defs)
                kind, report = "def", check(sig, HasType((), body, ty))
            if not report.ok:
                return {"item": kind, "display": f"{kind} {name}", **report.to_record()}
            if kind == "def":
                defs[name] = body
            else:
                state.sig = sig.with_const(name, ty)
        reserved.add(name)
        return None

    names, entries = [], []
    for binder, surface_ty in item.bindings:
        entries.append(to_core(surface_ty, names, sig, defs))
        names.append(binder)
    ctx, names = tuple(entries), tuple(names)
    if isinstance(item, ElabItem):
        call = []
        for arg in item.args:  # a (binders, term) pair, or a tuple of them
            pieces = []
            for binders, surface in (arg,) if is_pair(arg) else arg:
                pieces.append(to_core(surface, names + binders, sig, defs))
            call.append(pieces[0] if is_pair(arg) else tuple(pieces))
        try:
            result = _ELABORATORS[item.op](sig, ctx, *call)
        except ElabError as exc:
            return {"item": "elab", "display": f"elab {item.op}", "verdict": "reject",
                    "error": str(exc)}
        terms = [result.pi_type] if item.op == "tele_pi" else [result.term, result.stated_type]
    else:  # a check or infer item: its term before its type
        terms = []
        for surface in (item.term, item.ty) if isinstance(item, CheckItem) else (item.term,):
            if surface is not None:
                terms.append(to_core(surface, names, sig, defs))
    texts = []
    for term in terms:
        texts.append(print_term(term, names, reserved))
    shown = " : ".join(texts)

    if isinstance(item, ElabItem):
        record = {"item": "elab", "display": f"elab {item.op} => {shown}",
                  "verdict": "accept", "term": texts[0]}
        if len(texts) == 2:
            record.update(stated_type=texts[1], lines=[f"rechecked : {texts[1]}"])
        return record
    if isinstance(item, CheckItem):
        if item.form == "ctxt":
            shown = f"{_context_text(ctx, names, reserved)} Ctxt"
        else:
            shown = f"|- {shown} Type" if item.form == "type" else f"|- {shown}"
        report = check(sig, _FORMS[item.form](ctx, *terms))
        return {"item": "check", "display": f"check {shown}", **report.to_record()}
    report = check(sig, CtxtWF(ctx))
    if not report.ok:
        # the locus names a context entry, so the display shows the entries
        shown = f"{_context_text(ctx, names, reserved)} |- {shown}"
        return {"item": "infer", "display": f"infer {shown}", **report.to_record()}
    record = {"item": "infer", "display": f"infer |- {shown}"}
    try:
        ty = infer(sig, ctx, terms[0])
    except InferFailure as exc:
        record.update(verdict="reject", reason=exc.reason, locus=list(exc.locus))
    else:
        rendered = print_term(ty, names, reserved)
        record.update(verdict="accept", inferred=rendered, lines=[f": {rendered}"])
    return record


def run_script(path: str, args) -> int:
    try:
        with open(path, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    try:
        script = parse(text)
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return PARSE_ERROR
    state = _ScriptState()
    try:
        for at, item in enumerate(script.items):
            _run_item(item, state, args)
    except ParseError:
        # an unbound name, raised by to_core before the item checked or
        # emitted anything; the parsed item holds no positions, so resolve
        # it again as read on positioned tokens, to the same error
        try:
            _run_item(located_item(text, script, at), state, args)
        except ParseError as exc:
            print(f"{path}:{exc}", file=sys.stderr)
            return PARSE_ERROR
        raise AssertionError("an unbound name resolved when read again") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    return OK if state.failures == 0 else FAIL


def _cmd_bench(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(","))
    status = OK
    for family in FAMILIES if args.family == "all" else [args.family]:
        report = run_bench(BenchConfig(family, sizes, args.reps))
        if args.json:
            for row in report.rows:
                print(json.dumps({
                    "family": family, "backend": report.backend,
                    "size": row.judgement_size, "steps": row.median_steps,
                    "nanoseconds": row.median_ns,
                }, sort_keys=True))
            print(json.dumps({
                "family": family, "backend": report.backend,
                "slope": report.slope, "intercept": report.intercept,
                "passed": report.passed, "wall_slope": report.wall_slope,
            }, sort_keys=True))
        else:
            print(f"family {family} [{report.backend}]")
            for row in report.rows:
                line = f"  size {row.judgement_size:>8}  steps {row.median_steps:>10}"
                line += f"  wall {row.median_ns / 1e6:9.2f} ms"
                print(line)
            verdict = "PASS" if report.passed else "FAIL"
            print(f"  slope {report.slope:.3f}  ({verdict}, limit 2.3)")
            wall = "n/a" if report.wall_slope is None else f"{report.wall_slope:.3f}"
            print(f"  wall slope {wall}  (ns against steps, not gated)")
        if not report.passed:
            status = FAIL
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ott",
        description="Check proof scripts for the propositional-conversion "
                    "calculus and benchmark the checker.",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit line-delimited JSON records")
    parser.add_argument("--steps", action="store_true",
                        help="show step counters in human output")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", help="run a .ott script")
    p.add_argument("path")
    b = sub.add_parser("bench", help="run the scaling benchmark")
    b.add_argument("--family", default="all", choices=FAMILIES + ("all",))
    b.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES))
    b.add_argument("--reps", type=int, default=1)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0

    try:
        if args.command == "check":
            status = run_script(args.path, args)
        else:
            try:
                status = _cmd_bench(args)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = USAGE
        print(end="", flush=True)  # raises if the reader has gone; no stdout is ignored
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE
    return status


if __name__ == "__main__":
    sys.exit(main())
