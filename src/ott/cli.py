"""Command-line front door: run check scripts and the scaling benchmark.

Exit codes: 0 all verdicts accept, 1 at least one verification failure,
2 syntax or name error, 3 usage or I/O error.  Any nesting depth that the
checker accepts is accepted.  ``--json`` switches every command to a
line-delimited record stream; ``--steps`` adds the instrumented counters to
the human-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import DEFAULT_SIZES, FAMILIES, BenchConfig, run_bench
from .checker import CtxtWF, HasType, InferFailure, TypeWF, check, infer
from .derived import (
    ElabError, congruence_app, symmetry, telescope_idconv, telescope_idrec,
    telescope_pi, transitivity, transport,
)
from .surface import (
    CheckItem, Definition, ElabItem, InferItem, ParseError, Postulate,
    parse, print_term, to_core,
)
from .terms import Signature

OK, FAIL, PARSE_ERROR, USAGE = 0, 1, 2, 3


def _truncate(text: str, limit: int = 200) -> str:
    if len(text) <= limit:
        return text
    return text[: limit - 12] + f" ...[{len(text)} chars]"


def _emit(record: dict, args) -> None:
    if "display" in record:
        record = dict(record)
        record["display"] = _truncate(record["display"])
    if args.json:
        print(json.dumps(record, sort_keys=True))
        return
    status = record.get("verdict", "ok")
    line = "ok   " if status in ("accept", "ok") else "FAIL "
    line += record.get("display", "")
    if status == "reject":
        line += f"  -- {record.get('reason')} at {record.get('locus')}"
    if record.get("error"):
        line += f"  -- {record['error']}"
    if getattr(args, "steps", False) and "steps" in record:
        line += f"  [steps={record['steps']} ns={record['nanoseconds']}]"
    print(line)
    for extra in record.get("lines", ()):
        print(f"     {extra}")


class _ScriptState:
    def __init__(self):
        self.sig = Signature()
        self.defs: dict = {}
        self.failures = 0
        # every postulated or defined name, which printed binders avoid
        self.reserved: set = set()

    def context_of(self, bindings):
        names: list = []
        entries = []
        for name, surface_ty in bindings:
            entries.append(to_core(surface_ty, names, self.sig, self.defs))
            names.append(name)
        return tuple(entries), tuple(names)


def _run_item(item, state: _ScriptState, args) -> None:
    sig = state.sig
    if isinstance(item, Postulate):
        if item.ty is None:
            state.sig = sig.with_type(item.name)
            state.reserved.add(item.name)
            return
        core = to_core(item.ty, [], sig, state.defs)
        report = check(sig, TypeWF((), core))
        if not report.ok:
            state.failures += 1
            _emit({"item": "postulate", "display": f"postulate {item.name}",
                   **report.to_record()}, args)
            return
        state.sig = sig.with_const(item.name, core)
        state.reserved.add(item.name)
        return
    if isinstance(item, Definition):
        ty = to_core(item.ty, [], sig, state.defs)
        body = to_core(item.body, [], sig, state.defs)
        report = check(sig, HasType((), body, ty))
        if not report.ok:
            state.failures += 1
            _emit({"item": "def", "display": f"def {item.name}",
                   **report.to_record()}, args)
            return
        state.defs[item.name] = body
        state.reserved.add(item.name)
        return
    if isinstance(item, CheckItem):
        ctx, names = state.context_of(item.bindings)
        if item.form == "ctxt":
            judgement = CtxtWF(ctx)
            shown = f"check [{', '.join(names)}] Ctxt"
        elif item.form == "type":
            ty = to_core(item.ty, names, sig, state.defs)
            judgement = TypeWF(ctx, ty)
            shown = f"check |- {print_term(ty, names, state.reserved)} Type"
        else:
            term = to_core(item.term, names, sig, state.defs)
            ty = to_core(item.ty, names, sig, state.defs)
            judgement = HasType(ctx, term, ty)
            shown = (
                f"check |- {print_term(term, names, state.reserved)}"
                f" : {print_term(ty, names, state.reserved)}"
            )
        report = check(sig, judgement)
        if not report.ok:
            state.failures += 1
        _emit({"item": "check", "display": shown, **report.to_record()}, args)
        return
    if isinstance(item, InferItem):
        ctx, names = state.context_of(item.bindings)
        term = to_core(item.term, names, sig, state.defs)
        ctx_report = check(sig, CtxtWF(ctx))
        shown = f"infer |- {print_term(term, names, state.reserved)}"
        if not ctx_report.ok:
            state.failures += 1
            _emit({"item": "infer", "display": shown,
                   **ctx_report.to_record()}, args)
            return
        try:
            ty = infer(sig, ctx, term)
        except InferFailure as exc:
            state.failures += 1
            _emit({"item": "infer", "display": shown, "verdict": "reject",
                   "reason": exc.reason, "locus": list(exc.locus)}, args)
            return
        rendered = print_term(ty, names, state.reserved)
        _emit({"item": "infer", "display": shown, "verdict": "accept",
               "inferred": rendered, "lines": [f": {rendered}"]}, args)
        return
    if isinstance(item, ElabItem):
        _run_elab(item, state, args)
        return
    raise AssertionError(f"unhandled item {item!r}")


def _run_elab(item: ElabItem, state: _ScriptState, args) -> None:
    sig = state.sig
    ctx, names = state.context_of(item.bindings)
    payload = item.payload
    reserved = state.reserved

    def core(surface, extra=()):
        return to_core(surface, list(names) + list(extra), sig, state.defs)

    shown = f"elab {item.op}"
    try:
        if item.op in ("transport", "congr_app"):
            over = core(payload["over"])
            family = core(payload["family"], (payload["binder"],))
            terms = [core(t) for t in payload["terms"]]
            if item.op == "transport":
                result = transport(sig, ctx, over, family, *terms)
            else:
                result = congruence_app(sig, ctx, over, family, *terms)
        elif item.op == "symmetry":
            result = symmetry(sig, ctx, *[core(t) for t in payload["terms"]])
        elif item.op == "transitivity":
            result = transitivity(sig, ctx, *[core(t) for t in payload["terms"]])
        elif item.op in ("tele_pi", "tele_lam", "tele_app", "tele_beta"):
            tele_names: list = []
            entries = []
            for bname, bty in payload["tele"]:
                entries.append(core(bty, tele_names))
                tele_names.append(bname)
            body = core(payload["body"], tele_names)
            product = telescope_pi(sig, ctx, tuple(entries), body)
            if item.op == "tele_pi":
                rendered = print_term(product.pi_type, names, reserved)
                _emit({"item": "elab", "display": f"{shown} => {rendered}",
                       "verdict": "accept", "term": rendered}, args)
                return
            if item.op == "tele_lam":
                result = product.lam(core(payload["head"], tele_names))
            else:
                fun_args = [core(t) for t in payload["args"]]
                if item.op == "tele_app":
                    result = product.app(core(payload["head"]), fun_args)
                else:
                    result = product.betaconv(
                        core(payload["head"], tele_names), fun_args
                    )
        else:  # tele_idrec / tele_idconv
            over = core(payload["over"])
            xyu = payload["xyu"]
            tele_names = list(xyu)
            entries = []
            for bname, bty in payload["tele"]:
                entries.append(core(bty, tele_names))
                tele_names.append(bname)
            motive = core(payload["motive"], tele_names)
            base_scope = payload["base_binders"]
            base = core(payload["base"], base_scope)
            ends = [core(t) for t in payload["ends"]]
            fun_args = [core(t) for t in payload["args"]]
            if item.op == "tele_idrec":
                result = telescope_idrec(
                    sig, ctx, over, tuple(entries), motive,
                    ends[0], ends[1], ends[2], fun_args, base,
                )
            else:
                result = telescope_idconv(
                    sig, ctx, over, tuple(entries), motive,
                    ends[0], fun_args, base,
                )
    except (ElabError, ParseError) as exc:
        state.failures += 1
        _emit({"item": "elab", "display": shown, "verdict": "reject",
               "error": str(exc)}, args)
        return
    term_text = print_term(result.term, names, reserved)
    type_text = print_term(result.stated_type, names, reserved)
    _emit({
        "item": "elab", "display": f"{shown} => {term_text} : {type_text}",
        "verdict": "accept", "term": term_text, "stated_type": type_text,
        "lines": [f"rechecked : {type_text}"],
    }, args)


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
        for item in script.items:
            _run_item(item, state, args)
    except ParseError as exc:
        # name-resolution errors surface during item processing
        print(f"{path}:{exc}", file=sys.stderr)
        return PARSE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    return OK if state.failures == 0 else FAIL


def _cmd_bench(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(","))
    status = OK
    for family in FAMILIES if args.family == "all" else [args.family]:
        report = run_bench(BenchConfig(family, sizes, args.reps, args.seed))
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
    for name in ("check", "infer", "elab"):
        p = sub.add_parser(name, help=f"run a .ott script (emphasis: {name} items)")
        p.add_argument("path")
    b = sub.add_parser("bench", help="run the scaling benchmark")
    b.add_argument("--family", default="all", choices=FAMILIES + ("all",))
    b.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES))
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--reps", type=int, default=1)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0

    if args.command != "bench":
        return run_script(args.path, args)
    try:
        return _cmd_bench(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
