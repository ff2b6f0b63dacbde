"""The judgement checker: context/type/term checking in quadratic time.

The top-level ``check`` decomposes a judgement the way the complexity
argument does: first the context is validated entry by entry, then the
candidate type under the promise that the context is fine, then the term
under the promise that the type is fine.  The stages are obligations on one
stack, seeded in that order, so a stage runs only once every stage before it
has passed; a stage may answer arbitrarily when its promise is violated, so
external callers only get the safe composition.

Type synthesis has no rules of its own.  ``infer`` builds the conclusion of
the one rule that fits the term's head constructor, and ``_run`` checks it
exactly as ``check`` would a ``HasType`` judgement with that type, so every
premise comes from the same rule table and ``infer`` never returns a type
that ``check`` rejects.

Under the promises, each constructor is handled by exactly one rule, so the
checker makes one equality comparison against the stated result type plus a
fixed set of recursive calls, and never re-derives a premise that unique
derivability already guarantees.  In particular both computation constructors
(`betaconv`, `idconv`, and their Nat analogues) are pure comparisons with
zero recursive calls.  Every rule's comparison happens at one site in
``_run``.  A leaf (a constant or a one-slot node such as ``Nat``), bare or
under a substitution, is decided there inline and charged the one step
``eq_lazy`` would charge; everything else goes to the lazy environment
comparator, so the cost of a comparison is bounded by the size of the input
type, not by the size of any substituted form.  The materializations are the
eliminators' motive instances for their premises, whose size the cost budget
explicitly covers; a closed leaf motive is its own instance, charged what
``inst`` would charge.

There is no normalization, reduction or conversion checking anywhere in this
module: equality of types is syntactic equality, full stop.

``CheckReport.steps`` is a deterministic work counter: one unit per processed
obligation, per comparison step, per variable-lookup hop and per materialized
node.  The benchmark gates on it instead of wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from . import kernel as _k
from .kernel import (
    APP, BETA, CLO, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
    NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
)
from .terms import Context, Signature, Term

__all__ = [
    "CheckReport", "Judgement", "CtxtWF", "TypeWF", "HasType",
    "check", "check_ctxt", "infer", "InferFailure",
]


@dataclass(frozen=True)
class CtxtWF:
    ctx: Context


@dataclass(frozen=True)
class TypeWF:
    ctx: Context
    ty: Term


@dataclass(frozen=True)
class HasType:
    ctx: Context
    term: Term
    ty: Term


Judgement = Union[CtxtWF, TypeWF, HasType]


@dataclass(frozen=True)
class CheckReport:
    verdict: str  # "accept" or "reject"
    reason: Optional[str]
    locus: Optional[tuple]
    steps: int
    nanoseconds: int

    @property
    def ok(self) -> bool:
        return self.verdict == "accept"

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "locus": list(self.locus) if self.locus is not None else None,
            "steps": self.steps,
            "nanoseconds": self.nanoseconds,
        }


class InferFailure(Exception):
    def __init__(self, reason: str, locus: tuple = ()):
        super().__init__(f"{reason} at {list(locus)}")
        self.reason = reason
        self.locus = locus


_TYPE = 0
_TERM = 1
_NAT = (NAT,)

# Task tuples: (kind, ctx cons-list, subject, target-or-None, path cons-list).
# The context is a linked list (entry, parent) with the innermost entry at the
# head, so extending it is O(1); looking up index i walks i links and the
# walk is charged to the step counter.


def _cons_ctx(ctx: Context):
    c = None
    for ty in ctx:
        c = (ty, c)
    return c


def _path(p) -> tuple:
    out = []
    while p is not None:
        out.append(p[0])
        p = p[1]
    out.reverse()
    return tuple(out)


def _run(sig: Signature, stack: list):
    """Process obligations depth-first; first failure wins.

    Returns (ok, reason, locus-path, steps).
    """
    consts = sig.constants
    atomics = sig.atomic_types
    steps = 0
    while stack:
        kind, ctx, t, target, path = stack.pop()
        steps += 1
        tag = t[0]
        if kind == _TYPE:
            if tag == PI:
                stack.append((_TYPE, (t[1], ctx), t[2], None, (1, path)))
                stack.append((_TYPE, ctx, t[1], None, (0, path)))
            elif tag == ID:
                stack.append((_TERM, ctx, t[3], t[1], (2, path)))
                stack.append((_TERM, ctx, t[2], t[1], (1, path)))
                stack.append((_TYPE, ctx, t[1], None, (0, path)))
            elif tag != NAT and not (tag == CONST and t[1] in atomics):
                return False, "not a type", _path(path), steps
            continue

        # term against target.  Each rule pushes its premises and names the
        # type its conclusion states, ``expected`` (standing under the
        # substitution ``env`` when that is not None), and the reason a
        # mismatch gives; the one comparison after the rules decides it.
        env = None
        if tag == VAR:
            i = t[1]
            entry = ctx
            hops = 0
            while entry is not None and hops < i:
                entry = entry[1]
                hops += 1
            steps += hops
            if entry is None or i < 0:
                return False, "unbound variable", _path(path), steps
            expected, env = entry[0], (0, (), i + 1)
            why = "variable type mismatch"
        elif tag == CONST:
            expected = consts.get(t[1])
            if expected is None:
                return False, "not a term constant", _path(path), steps
            why = "constant type mismatch"
        elif tag == LAM:
            a, b, body = t[1], t[2], t[3]
            stack.append((_TERM, (a, ctx), body, b, (2, path)))
            expected = (PI, a, b)
            why = "lambda against non-matching type"
        elif tag == APP:
            a, b, fun, arg = t[1], t[2], t[3], t[4]
            stack.append((_TERM, ctx, arg, a, (3, path)))
            stack.append((_TERM, ctx, fun, (PI, a, b), (2, path)))
            stack.append((_TYPE, (a, ctx), b, None, (1, path)))
            stack.append((_TYPE, ctx, a, None, (0, path)))
            expected, env = b, (0, (arg,), 0)
            why = "application result mismatch"
        elif tag == BETA:
            a, b, arg, body = t[1], t[2], t[3], t[4]
            sub = (0, (arg,), 0)
            expected = (
                ID,
                (CLO, b, sub),
                (APP, a, b, (LAM, a, b, body), arg),
                (CLO, body, sub),
            )
            why = "betaconv type mismatch"
        elif tag == REFL:
            a, point = t[1], t[2]
            stack.append((_TERM, ctx, point, a, (1, path)))
            expected = (ID, a, point, point)
            why = "refl type mismatch"
        elif tag == IDREC:
            # premises that need instances of ``over`` and the motive are
            # pushed after the comparison, so a rejection substitutes nothing
            a, p, lhs, rhs, pth, base = t[1], t[2], t[3], t[4], t[5], t[6]
            expected, env = p, (0, (pth, rhs, lhs), 0)
            why = "idrec result mismatch"
        elif tag == IDCONV:
            a, p, point, base = t[1], t[2], t[3], t[4]
            rfl = (REFL, a, point)
            expected = (
                ID,
                (CLO, p, (0, (rfl, point, point), 0)),
                (IDREC, a, p, point, point, rfl, base),
                (CLO, base, (0, (point,), 0)),
            )
            why = "idconv type mismatch"
        elif tag == ZERO:
            expected = _NAT
            why = "zero against non-Nat type"
        elif tag == SUCC:
            # the premise reads t[1], so it is pushed after the comparison
            expected = _NAT
            why = "succ against non-Nat type"
        elif tag == NATREC:
            p, z, s, scrut = t[1], t[2], t[3], t[4]
            expected, env = p, (0, (scrut,), 0)
            why = "natrec result mismatch"
        elif tag == NATCONVZERO:
            p, z, s = t[1], t[2], t[3]
            expected = (
                ID,
                (CLO, p, (0, ((ZERO,),), 0)),
                (NATREC, p, z, s, (ZERO,)),
                z,
            )
            why = "natconv_zero type mismatch"
        elif tag == NATCONVSUCC:
            p, z, s, m = t[1], t[2], t[3], t[4]
            expected = (
                ID,
                (CLO, p, (0, ((SUCC, m),), 0)),
                (NATREC, p, z, s, (SUCC, m)),
                (CLO, s, (0, ((NATREC, p, z, s, m), m), 0)),
            )
            why = "natconv_succ type mismatch"
        else:
            return False, "no term-level rule for this constructor", _path(path), steps

        # The one comparison site.  A leaf (a constant or a one-slot node
        # such as Nat) is unchanged by any substitution, so it is decided
        # here in one head step, exactly as ``eq_lazy`` takes and charges it;
        # anything else goes to ``eq_lazy``.
        etag = expected[0]
        if etag == CONST or len(expected) == 1 and etag != VAR and etag != CLO:
            steps += 1
            if etag != target[0] or etag == CONST and expected[1] != target[1]:
                return False, why, _path(path), steps
        else:
            if env is not None:
                expected = (CLO, expected, env)
            eq, c = _k.eq_lazy(expected, target)
            steps += c
            if not eq:
                return False, why, _path(path), steps

        if tag == IDREC:
            # a closed leaf is its own instance, charged 1 per ``inst`` it
            # replaces, as ``inst`` charges it
            atag = a[0]
            if atag == CONST or len(a) == 1 and atag != VAR and atag != CLO:
                a1 = a2 = a
                steps += 2
            else:
                a1, c1 = _k.inst(a, (), 1, 0)
                a2, c2 = _k.inst(a, (), 2, 0)
                steps += c1 + c2
            ptag = p[0]
            if ptag == CONST or len(p) == 1 and ptag != VAR and ptag != CLO:
                minst = p
                steps += 1
            else:
                minst, c3 = _k.inst(p, ((REFL, a1, (VAR, 0)), (VAR, 0), (VAR, 0)), 1, 0)
                steps += c3
            ctx3 = ((ID, a2, (VAR, 1), (VAR, 0)), (a1, (a, ctx)))
            stack.append((_TERM, (a, ctx), base, minst, (5, path)))
            stack.append((_TERM, ctx, pth, (ID, a, lhs, rhs), (4, path)))
            stack.append((_TERM, ctx, rhs, a, (3, path)))
            stack.append((_TERM, ctx, lhs, a, (2, path)))
            stack.append((_TYPE, ctx3, p, None, (1, path)))
            stack.append((_TYPE, ctx, a, None, (0, path)))
        elif tag == NATREC:
            ptag = p[0]
            if ptag == CONST or len(p) == 1 and ptag != VAR and ptag != CLO:
                pz = ps = p
                steps += 2
            else:
                pz, c1 = _k.inst(p, ((ZERO,),), 0, 0)
                ps, c2 = _k.inst(p, ((SUCC, (VAR, 1)),), 2, 0)
                steps += c1 + c2
            stack.append((_TERM, ctx, scrut, _NAT, (3, path)))
            stack.append((_TERM, (p, (_NAT, ctx)), s, ps, (2, path)))
            stack.append((_TERM, ctx, z, pz, (1, path)))
            stack.append((_TYPE, (_NAT, ctx), p, None, (0, path)))
        elif tag == SUCC:
            stack.append((_TERM, ctx, t[1], _NAT, (0, path)))
    return True, None, None, steps


def _seed_judgement(j: Judgement) -> list:
    """Build the initial obligation stack: context entries first, then the
    type stage, then the term stage (later stages are not reached if an
    earlier one fails)."""
    ctx = j.ctx
    # prefixes[i] is the cons list of ctx[:i]; each one extends the one
    # before, so the entries share one list instead of a copy each
    prefixes = [None]
    for ty in ctx:
        prefixes.append((ty, prefixes[-1]))
    full = prefixes[-1]
    stack = []
    if isinstance(j, HasType):
        stack.append((_TERM, full, j.term, j.ty, ("term", None)))
        stack.append((_TYPE, full, j.ty, None, ("type", None)))
    elif isinstance(j, TypeWF):
        stack.append((_TYPE, full, j.ty, None, ("type", None)))
    for i in range(len(ctx) - 1, -1, -1):
        stack.append((_TYPE, prefixes[i], ctx[i], None, (("ctx", i), None)))
    return stack


def check(sig: Signature, j: Judgement) -> CheckReport:
    """Decide a judgement from scratch; the safe, promise-free entry point."""
    t0 = time.perf_counter_ns()
    ok, reason, locus, steps = _run(sig, _seed_judgement(j))
    ns = time.perf_counter_ns() - t0
    if ok:
        return CheckReport("accept", None, None, steps, ns)
    return CheckReport("reject", reason, locus, steps, ns)


def check_ctxt(sig: Signature, ctx: Context) -> CheckReport:
    """Decide that ``ctx`` is a well-formed context."""
    return check(sig, CtxtWF(ctx))


# Type synthesis.  Uniqueness of types makes the result canonical: the one
# type the checker would accept.  ``infer`` builds the conclusion of the one
# rule that fits the head constructor and ``_run`` checks it: first that the
# conclusion is a type, then the term against it, which verifies every
# premise, since nothing has been promised about the pieces.

def infer(sig: Signature, ctx: Context, a: Term) -> Term:
    """Return the unique type of ``a`` over ``ctx`` (which must be
    well-formed), or raise InferFailure.  What it returns is a type that
    ``check(sig, HasType(ctx, a, ty))`` accepts."""
    c = _cons_ctx(ctx)
    ty = _conclusion(sig, c, a)
    ok, reason, locus, _ = _run(sig, [
        (_TERM, c, a, ty, ("term", None)),
        (_TYPE, c, ty, None, ("type", None)),
    ])
    if not ok:
        raise InferFailure(reason, locus)
    return ty


def _conclusion(sig: Signature, ctx, a: Term) -> Term:
    """The type in the conclusion of the rule for the head of ``a``, built
    from its annotations alone; no premise is checked here."""
    tag = a[0]
    if tag == VAR:
        i = a[1]
        entry = ctx
        while entry is not None and i > 0:
            entry = entry[1]
            i -= 1
        if entry is None or a[1] < 0:
            raise InferFailure("unbound variable", ("term",))
        return _k.inst(entry[0], (), a[1] + 1, 0)[0]
    if tag == CONST:
        declared = sig.constants.get(a[1])
        if declared is None:
            raise InferFailure("not a term constant", ("term",))
        return declared
    if tag == LAM:
        return (PI, a[1], a[2])
    if tag == APP:
        return _inst(a[2], a[4])
    if tag == BETA:
        dom, cod, arg, body = a[1], a[2], a[3], a[4]
        lam = (LAM, dom, cod, body)
        return (ID, _inst(cod, arg), (APP, dom, cod, lam, arg), _inst(body, arg))
    if tag == REFL:
        return (ID, a[1], a[2], a[2])
    if tag == IDREC:
        return _inst(a[2], a[5], a[4], a[3])
    if tag == IDCONV:
        over, motive, point, base = a[1], a[2], a[3], a[4]
        rfl = (REFL, over, point)
        rec = (IDREC, over, motive, point, point, rfl, base)
        return (ID, _inst(motive, rfl, point, point), rec, _inst(base, point))
    if tag == ZERO or tag == SUCC:
        return (NAT,)
    if tag == NATREC:
        return _inst(a[1], a[4])
    if tag == NATCONVZERO:
        motive, z, s = a[1], a[2], a[3]
        return (ID, _inst(motive, (ZERO,)), (NATREC, motive, z, s, (ZERO,)), z)
    if tag == NATCONVSUCC:
        motive, z, s, m = a[1], a[2], a[3], a[4]
        rec = (NATREC, motive, z, s, m)
        succ_rec = (NATREC, motive, z, s, (SUCC, m))
        return (ID, _inst(motive, (SUCC, m)), succ_rec, _inst(s, rec, m))
    raise InferFailure("no term-level rule for this constructor", ("term",))


def _inst(t: Term, *terms: Term) -> Term:
    """``t`` with its free indices ``0..n-1`` replaced by ``terms``, the
    first of them for index 0."""
    return _k.inst(t, terms, 0, 0)[0]
