"""The judgement checker: context/type/term checking in quadratic time.

The top-level ``check`` decomposes a judgement the way the complexity
argument does: first the context is validated entry by entry, then the
candidate type under the promise that the context is fine, then the term
under the promise that the type is fine.  The stages are obligations on one
stack, seeded in that order, so a stage runs only once every stage before it
has passed; a stage may answer arbitrarily when its promise is violated, so
external callers only get the safe composition.

There is one rule table, the term branch of ``_run``, and type synthesis
reads its conclusions from it.  Each rule names the type its conclusion
states, and a term obligation with no target stops at the comparison site
and returns that type, with the substitutions the rule states applied.
``infer`` seeds one such obligation, then checks the type it gets back
exactly as ``check`` would a ``HasType`` judgement with that type, so every
premise comes from the same rules and ``infer`` never returns a type that
``check`` rejects.

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
node.  The benchmark gates on it instead of wall time.  The quadratic bound is
on this counter, in the judgement's tree size: the nodes of its context
entries, term and type, a shared subterm counted at each occurrence.  The
types of the signature's constants do not count, since a comparison costs at
most its target's size plus one and every target is built from the judgement.

Numerals.  A literal is a chain of successors, and a successor's one
premise, its predecessor against ``Nat``, is always the next obligation
``_run`` pops.  A successor premise passes that comparison in its one head
step, so the successor rule walks its predecessor chain in place: while the
predecessor is a successor with no entry in the certificate index, it
charges the two steps the loop would (the obligation and its head
comparison) and descends.  It pushes only the first node that is not such
a successor, which is decided, or discharged, as any obligation is.  Steps,
verdicts, reasons and loci are those of one obligation per successor.  The
walk is made only on a plain ``list`` stack: ``_decide``'s locus rerun, and
a stack that counts what it hands out, see every obligation.

Loci.  An obligation carries only its slot, its index among its parent's
premises or, for a stage's seed, the stage's name, so the run that decides a
verdict allocates no path.  ``_run`` returns the failing slot and leaves its
stack as it was at the failure.  ``_decide`` is the one place a stack is
run: it runs a copy of its seeds and turns a failing slot into a locus.  A
failing seed is its own locus; below a stage's root, ``_decide`` runs that
one stage again on a stack that keeps the path of each obligation it hands
out.  Verdicts are deterministic, so the rerun fails at the same
obligation.  Only a rejection pays for it, and its steps are not charged.

Certificates.  ``certify`` is ``check`` that, when it accepts a ``HasType``
judgement whose term is not a leaf, or a ``TypeWF`` judgement whose type has
more nodes than its context has entries plus one, also returns a
``Certificate`` for it, which this module files in its one index under the
subject object (the term, or the type) for exactly as long as the caller
holds the certificate.  An object certified more than once keeps every
live certificate filed under it, oldest first, and the oldest live one is
the one a lookup reads, so the object stays indexed while any lives.
``instantiate`` issues the other kind: from a certified ``delta, x : T |- B
type``, a context ``ctx`` that is ``delta`` followed by ``k`` more entries
and a component ``s`` of type ``T`` weakened by ``k`` over ``ctx``, it
writes the instance ``B[s]`` (the other variables weakened by ``k``) and
certifies ``TypeWF(ctx, instance)``.  That is the admissible substitution
rule after weakening, so it costs the comparison of ``delta`` with the front
of ``ctx``, the check of ``s`` and the instance's tree size, but no walk of
``B``; it writes only the nodes above ``B``'s variables and shares the rest
of ``B``.  It checks neither ``ctx`` nor ``T``: the certificate promises
that the instance is a type provided ``ctx`` is well-formed, which is
exactly the promise a type obligation already runs under.  Plain ``check``
and ``infer`` issue none, and only this module enters one into the index.

An instance's certificate records its provenance ``(B, s, k, n)``: it is
``inst(B, (s,), k, 0)`` for the family object ``B``, whose free variables
are among the ``n + 1`` of ``delta, x`` (``n = |delta|``).  A type that
``certify`` certifies over a context with at least one entry is the
identity instance of itself, ``(B, Var 0, 1, n)``.  The comparison at
``_run``'s comparison site passes the index to ``eq_lazy``, and when it
meets an instance ``X`` under a closure environment ``E`` against a live
instance ``Y`` of the same ``B`` object, it first compares their
components: ``s_X`` under ``E`` against ``s_Y``, and for each outer
variable ``i`` from 1 to ``n``, ``Var(i - 1 + k_X)`` under ``E`` against
``Var(i - 1 + k_Y)``, each by a call to itself without the index.
Substitution is structural, so if those match, ``X`` under ``E`` is ``Y``;
if one differs, one more such call walks the pair as it would have been
walked, so ``eq_lazy``'s answer never changes.  ``instantiate`` records no
provenance for a component with more nodes than the instance (the family
does not use its variable).

The motive of an identity eliminator is written at reflexivity for its
base's premise.  When the motive object has a live ``TypeWF`` certificate,
``_run`` leaves that instance unwritten and gives the base's obligation the
closure ``(CLO, motive, env)`` as its target, marked with a private object
so that no closure in the input is taken for one.  Where the base's rule
states a type with no substitution of its own, the comparison site
compares that type against the closure with the sides swapped; anything
else, and a mismatch there, writes the instance then, charged the nodes
``inst`` charges, and compares as before.  A closure in the stated type,
the input's or a conversion rule's, never matches a swapped comparison, so
it meets the same comparison as without the certificate.

``_run`` consults the index at one site, once per obligation and before
it splits on the obligation's kind.  A term obligation with a target whose
subject has a ``HasType`` certificate, or a type obligation whose subject
has a ``TypeWF`` one, under the same ``Signature`` object, is discharged by
comparison instead of its rule: its context against the certificate's,
entry by entry, and for a term its target against the certificate's type.
No term rule's subject is a ``Pi`` or an ``Id``, so an object is never
both, and a certificate of one kind never discharges an obligation of the
other.  A comparison costs what ``eq_lazy`` charges with the obligation's
side as the target, where a closure never matches; on a mismatch those
steps are charged and the rule is applied as before.  ``check`` makes the
same test on a whole ``HasType`` judgement before seeding any stage.

A certificate from ``certify`` is also filed in the same index under its
context, while that has entries.  ``check`` seeds the context stage only
for the entries after the longest prefix of the judgement's context that
is, entry object by entry object, the context of a live one under the same
``Signature`` object, and charges one step per entry of that prefix, each
compared by identity.  Entry ``i`` is well-formed exactly when the entries
before it are and it is a type over them, so a certified prefix would pass
its stage again, and a failure after it keeps its reason and its ``("ctx",
i)`` locus.  A certificate from ``instantiate`` promises nothing about its
context and is not filed under it.  A prefix is looked up by its last
entry object and its length, each length once, longest first; a
certificate found there is compared entry by entry with the prefix,
charged one step per entry whether or not it matches.  An entry's stage
costs at least one step, so a discharged prefix never costs more than its
stage.  A certificate is refused there only when its context shares the
prefix's last entry object at the same position but not an earlier one;
with at most one refusal per length, refusals cost at most ``len(ctx) *
(len(ctx) + 1) / 2`` steps, within the quadratic bound.

A ``HasType`` judgement on a leaf term gets a certificate from ``certify``
only for its context, over one with entries: it is filed under its
context alone, never under its term, so it discharges no term obligation.
A leaf's rule costs what a discharge would, which is why its subject is
not indexed; that reason does not reach its context, whose stage costs at
least a step per entry, so a leaf precondition, a variable for a path,
spares the context stage of every later judgement over its context.

A verdict is a pure function of the obligation, and a certificate's
judgement passed the stages an obligation of its kind is promised, so a
discharged obligation is one the rule would have accepted: verdicts, reasons
and loci never depend on which certificates are live, only steps do.  The
quadratic argument still holds.  Each comparison stops at the first mismatch
and walks no further than the obligation's own context and target, whose
sizes are linear in the input, so an obligation costs at most a linear
number of extra steps, and there is at most one obligation per input node.
A component comparison costs at most ``n + size(s_Y) + 1`` steps.  ``Y``
has more than ``n`` nodes (it is certified) and at least as many as
``s_Y`` (a larger component gets no provenance), and ``Y`` is the part of
the comparison's target it stands against, so both terms are linear in the
input.  No pair inside a component comparison, or inside the walk that
follows a failed one, is tested again, so the tested pairs of one
comparison are disjoint subterms of its target and the comparison stays
linear in its target.  With no live certificate ``check`` and ``_run`` make
no lookup at all, and ``eq_lazy`` gets no index.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from functools import partial
from operator import is_
from typing import Optional, Tuple, Union

from . import kernel as _k
from .kernel import (
    APP, BETA, CLO, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
    NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
)
from .terms import Context, Signature, Term

__all__ = [
    "CheckReport", "Judgement", "CtxtWF", "TypeWF", "HasType",
    "check", "infer", "InferFailure", "Certificate", "certify",
    "instantiate",
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
    """A verdict, the reason and locus of a rejection, the steps charged and
    the wall time.  The locus is the path of slots from the failing stage's
    name down to the obligation that failed.  ``steps`` counts the work
    that decides the verdict; ``nanoseconds`` is the whole call."""
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


# ``Certificate._spine`` before ``instantiate`` has built it
_UNBUILT = object()


@dataclass(frozen=True, eq=False)
class Certificate:
    """A ``HasType`` or ``TypeWF`` judgement the kernel accepted under
    ``sig``.  ``certify`` makes one for a judgement that passed every stage;
    ``instantiate`` makes a ``conditional`` one, for ``TypeWF(ctx,
    instance)`` provided ``ctx`` is well-formed.  While it lives, an
    obligation of the same kind (a term obligation for ``HasType``, a type
    obligation for ``TypeWF``) on the same subject object that matches it is
    discharged by comparison, and, unless it is ``conditional``, ``check``
    skips the context stage of its context's entries in a judgement whose
    context starts with those entry objects.

    ``provenance`` is None for a term.  For a type it is ``(B, s, k, n)``
    when the type is ``inst(B, (s,), k, 0)`` for the family object ``B``
    over ``n`` entries and one binder: an instance from ``instantiate``, or
    ``(B, Var 0, 1, n)`` for a type ``certify`` certified over ``n + 1``
    entries, the family as its own identity instance.  ``eq_lazy``
    compares two live instances of one family object by these components
    before walking them, and a live ``TypeWF`` certificate on an identity
    eliminator's motive lets ``_run`` leave the motive at reflexivity
    unwritten."""
    sig: Signature
    judgement: Union[HasType, TypeWF]
    conditional: bool = False
    provenance: Optional[tuple] = None
    # the family's open spine, ``_kernel.open_spine``'s size and post-order
    # instruction list (None for a closed family), which ``instantiate``
    # builds on its first instance and keeps here, so that it dies with the
    # certificate
    _spine: object = field(default=_UNBUILT, init=False, repr=False)


# The certificate index: a key -> weak references to the live certificates
# filed under it, oldest first.  A certificate is filed under ``id`` of its
# subject (the term, or the type), if it has one, and, if it is from
# ``certify`` over a context with entries, under ``(id(last entry), number
# of entries)``, which ``check`` looks a judgement's context up by, prefix by
# prefix.  A certificate holds its judgement, so no id is reused while a key
# can be read; a reference goes when its certificate dies, and a key with
# its last.  Threads share it without a lock: a race between filing and
# forgetting under one key can only drop a reference, which costs steps
# later and never a verdict, because a lookup trusts nothing but a live
# certificate that it compares.
_certificates: dict = {}


def _forget(key, ref):
    refs = _certificates.get(key)
    if refs is not None and ref in refs:
        refs.remove(ref)
        if not refs:
            _certificates.pop(key, None)


def _certified_prefix(sig: Signature, ctx: Context):
    """(m, steps): the length of the longest prefix of ``ctx`` that is,
    entry object by entry object, the context of a live certificate from
    ``certify`` under ``sig``, and the steps charged for finding it.  Each
    length is looked up once, longest first, so there are at most
    ``len(ctx)`` lookups; the newest certificate under ``sig`` found at a
    length is compared with that prefix by identity, charged one step per
    entry."""
    steps = 0
    for m in range(len(ctx), 0, -1):
        for ref in reversed(_certificates.get((id(ctx[m - 1]), m), ())):
            cert = ref()
            if cert is not None and cert.sig is sig:
                steps += m
                if all(map(is_, cert.judgement.ctx, ctx)):
                    return m, steps
                break
    return 0, steps


def _live(certs, sig, t, kind):
    """The oldest live certificate filed for the object ``t``, if it is of
    class ``kind`` (``HasType`` or ``TypeWF``) under ``sig``, else None."""
    for ref in certs.get(id(t), ()):
        cert = ref()
        if cert is not None:
            return cert if cert.sig is sig and cert.judgement.__class__ is kind else None
    return None


_TYPE = 0
_TERM = 1
_NAT = (NAT,)
# The last slot of the closure that ``_run``'s IDREC rule gives its base's
# obligation as the target, the motive at reflexivity left unwritten.  No
# input holds this object, so a closure in the input is never taken for it.
_UNWRITTEN = object()

# Task tuples: (kind, ctx cons-list, subject, target-or-None, slot).
# The context is a linked list (entry, parent) with the innermost entry at the
# head, so extending it is O(1); looking up index i walks i links and the
# walk is charged to the step counter.  The slot is a premise's index in its
# parent, or a stage's name for a stage's seed: "term", "type", ("ctx", i)
# or "component".  A task holds no path: ``_run`` returns the failing slot,
# and ``_decide`` finds the rest by running the failing stage again on a
# ``_Paths`` stack, which keeps the path of what it hands out.


def _cons_ctx(ctx: Context):
    c = None
    for ty in ctx:
        c = (ty, c)
    return c


class _Paths(list):
    """An obligation stack that keeps the path of the obligation it last
    handed out.  ``depths`` runs beside the stack and holds each entry's
    number of ancestors; ``path`` holds the slots from the seed down to the
    last obligation popped.  Only ``pop`` is overridden: the entries pushed
    since the last pop are the premises of the obligation it handed out, so
    their depth is the length of ``path``, and the top one is handed out
    next, below that obligation; ``depths`` gets the others."""

    def __init__(self, seed):
        super().__init__((seed,))
        self.depths = [0]
        self.path: list = []

    def pop(self, _pop=list.pop):
        depths, path = self.depths, self.path
        pushed = len(self) - len(depths)
        if not pushed:
            del path[depths.pop():]
        elif pushed > 1:
            depths.extend((len(path),) * (pushed - 1))
        task = _pop(self)
        path.append(task[4])
        return task


def _decide(sig: Signature, seeds: list):
    """``_run`` on a copy of ``seeds``: (ok, reason, what, steps).  On
    acceptance ``what`` is what ``_run`` returns, the type an ``infer`` seed
    concludes or None; on a rejection it is the failing obligation's locus.
    A failed seed is its own locus.  Otherwise the seeds still at the bottom
    of the stack (the entries whose slot is not an ``int``) are those below
    the failing stage's, and that one stage is run again, uncharged, on a
    stack that keeps paths.  Verdicts are deterministic, so it fails at the
    same obligation."""
    stack = list(seeds)
    ok, reason, what, steps = _run(sig, stack)
    if ok:
        return ok, reason, what, steps
    if what.__class__ is not int:
        return ok, reason, (what,), steps
    m = 0
    while m < len(stack) and stack[m][4].__class__ is not int:
        m += 1
    paths = _Paths(seeds[m])
    _run(sig, paths)
    return ok, reason, tuple(paths.path), steps


def _apply(clo):
    """The term that a rule's closure ``(CLO, body, (lift, terms, outer))``
    stands for."""
    lift, terms, outer = clo[2]
    return _k.inst(clo[1], terms, outer, lift)[0]


def _matches(j, ctx, target):
    """(equal, steps): whether the obligation ``ctx |- _ : target`` (``ctx``
    a cons list) has the context and type of the ``HasType`` judgement
    ``j``, or, with ``target`` None, the obligation ``ctx |- _ type`` the
    context of the ``TypeWF`` judgement ``j``; the target first, then the
    entries innermost first, each stopping at the first difference."""
    steps = 0
    if target is not None:
        # a motive left unwritten is compared with the sides swapped
        eq, steps = (_k.eq_lazy(target, j.ty) if target[-1] is _UNWRITTEN
                     else _k.eq_lazy(j.ty, target))
        if not eq:
            return False, steps
    entries = j.ctx
    i = len(entries)
    while i and ctx is not None:
        i -= 1
        eq, c = _k.eq_lazy(entries[i], ctx[0])
        steps += c
        if not eq:
            return False, steps
        ctx = ctx[1]
    return i == 0 and ctx is None, steps


def _run(sig: Signature, stack: list):
    """Process obligations depth-first; first failure wins.

    Returns (ok, reason, slot, steps), where slot is the failing
    obligation's, or None on acceptance, except that a term obligation with
    no target returns (True, None, the type its rule concludes, steps) once
    its head rule has run.  A rejection leaves ``stack`` as it was at the
    failure, which ``_decide`` reads.
    """
    consts = sig.constants
    atomics = sig.atomic_types
    certs = _certificates or None
    # whether this run has left a motive unwritten (IDREC)
    unwritten = False
    steps = 0
    while stack:
        kind, ctx, t, target, slot = stack.pop()
        steps += 1
        tag = t[0]
        # a certified subject is discharged by comparison: a type, or a term
        # with a target.  A variable or a constant is a leaf, which never
        # has a certificate; the tag is tested by equality, so a malformed
        # one meets its rule as it would with no certificate live
        if (certs is not None and tag != VAR and tag != CONST
                and (kind == _TYPE or target is not None) and id(t) in certs):
            cert = _live(certs, sig, t, TypeWF if kind == _TYPE else HasType)
            if cert is not None:
                eq, c = _matches(cert.judgement, ctx, target)
                steps += c
                if eq:
                    continue
        if kind == _TYPE:
            if tag == PI:
                stack.append((_TYPE, (t[1], ctx), t[2], None, 1))
                stack.append((_TYPE, ctx, t[1], None, 0))
            elif tag == ID:
                stack.append((_TERM, ctx, t[3], t[1], 2))
                stack.append((_TERM, ctx, t[2], t[1], 1))
                stack.append((_TYPE, ctx, t[1], None, 0))
            elif tag != NAT and not (tag == CONST and t[1] in atomics):
                return False, "not a type", slot, steps
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
                return False, "unbound variable", slot, steps
            expected, env = entry[0], (0, (), i + 1)
            why = "variable type mismatch"
        elif tag == CONST:
            expected = consts.get(t[1])
            if expected is None:
                return False, "not a term constant", slot, steps
            why = "constant type mismatch"
        elif tag == LAM:
            a, b, body = t[1], t[2], t[3]
            stack.append((_TERM, (a, ctx), body, b, 2))
            expected = (PI, a, b)
            why = "lambda against non-matching type"
        elif tag == APP:
            a, b, fun, arg = t[1], t[2], t[3], t[4]
            stack.append((_TERM, ctx, arg, a, 3))
            stack.append((_TERM, ctx, fun, (PI, a, b), 2))
            stack.append((_TYPE, (a, ctx), b, None, 1))
            stack.append((_TYPE, ctx, a, None, 0))
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
            stack.append((_TERM, ctx, point, a, 1))
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
            return False, "no term-level rule for this constructor", slot, steps

        # The one comparison site.  An obligation with no target (``infer``
        # seeds one) ends the run here with the type the rule concludes, its
        # own substitutions applied (``env``, or the closures a conversion
        # rule builds; NATCONVZERO's right side is the input's ``z``).
        if target is None:
            if env is not None:
                expected = _apply((CLO, expected, env))
            elif tag == BETA or tag == IDCONV or tag == NATCONVZERO or tag == NATCONVSUCC:
                rhs = expected[3] if tag == NATCONVZERO else _apply(expected[3])
                expected = (ID, _apply(expected[1]), expected[2], rhs)
            return True, None, expected, steps
        # A motive at reflexivity that IDREC left unwritten.  An
        # ``expected`` with no environment of its own is compared against it
        # with the sides swapped, where a closure in ``expected`` never
        # matches; anything else, or a mismatch there, writes the motive as
        # IDREC would have, charged the same nodes, and compares as below,
        # so the verdict is the same.
        swapped = False
        if unwritten and target[-1] is _UNWRITTEN:
            if env is None:
                swapped, c = _k.eq_lazy(target, expected, certs)
                steps += c
            if not swapped:
                lift, terms, outer = target[2]
                target, c = _k.inst(target[1], terms, outer, lift)
                steps += c
        # A leaf (a constant or a one-slot node such as Nat) is unchanged by
        # any substitution, so it is decided here in one head step, exactly
        # as ``eq_lazy`` takes and charges it, one object on both sides
        # first; anything else goes to ``eq_lazy``.
        etag = expected[0]
        if swapped:
            pass
        elif etag == CONST or len(expected) == 1 and etag != VAR and etag != CLO:
            steps += 1
            if expected is not target and (
                    etag != target[0] or etag == CONST and expected[1] != target[1]):
                return False, why, slot, steps
        else:
            if env is not None:
                expected = (CLO, expected, env)
            eq, c = _k.eq_lazy(expected, target, certs)
            steps += c
            if not eq:
                return False, why, slot, steps

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
                refl = ((REFL, a1, (VAR, 0)), (VAR, 0), (VAR, 0))
                if certs is not None and _live(certs, sig, p, TypeWF) is not None:
                    # the base's target stays a closure until it is compared
                    minst = (CLO, p, (0, refl, 1), _UNWRITTEN)
                    unwritten = True
                else:
                    minst, c3 = _k.inst(p, refl, 1, 0)
                    steps += c3
            ctx3 = ((ID, a2, (VAR, 1), (VAR, 0)), (a1, (a, ctx)))
            stack.append((_TERM, (a, ctx), base, minst, 5))
            stack.append((_TERM, ctx, pth, (ID, a, lhs, rhs), 4))
            stack.append((_TERM, ctx, rhs, a, 3))
            stack.append((_TERM, ctx, lhs, a, 2))
            stack.append((_TYPE, ctx3, p, None, 1))
            stack.append((_TYPE, ctx, a, None, 0))
        elif tag == NATREC:
            ptag = p[0]
            if ptag == CONST or len(p) == 1 and ptag != VAR and ptag != CLO:
                pz = ps = p
                steps += 2
            else:
                pz, c1 = _k.inst(p, ((ZERO,),), 0, 0)
                ps, c2 = _k.inst(p, ((SUCC, (VAR, 1)),), 2, 0)
                steps += c1 + c2
            stack.append((_TERM, ctx, scrut, _NAT, 3))
            stack.append((_TERM, (p, (_NAT, ctx)), s, ps, 2))
            stack.append((_TERM, ctx, z, pz, 1))
            stack.append((_TYPE, (_NAT, ctx), p, None, 0))
        elif tag == SUCC:
            # the one premise is the next obligation popped, so on a plain
            # stack an uncertified successor premise is taken here, charged
            # its obligation and its head comparison, and the chain's first
            # other node is pushed
            t = t[1]
            if stack.__class__ is list:
                while t[0] == SUCC and (certs is None or id(t) not in certs):
                    steps += 2
                    t = t[1]
            stack.append((_TERM, ctx, t, _NAT, 0))
    return True, None, None, steps


def _seed_judgement(j: Judgement, start: int = 0) -> list:
    """Build the initial obligation stack: context entries from ``start``
    on first, then the type stage, then the term stage (later stages are not
    reached if an earlier one fails)."""
    ctx = j.ctx
    # prefixes[i] is the cons list of ctx[:i]; each one extends the one
    # before, so the entries share one list instead of a copy each
    prefixes = [None]
    for ty in ctx:
        prefixes.append((ty, prefixes[-1]))
    full = prefixes[-1]
    stack = []
    if isinstance(j, HasType):
        stack.append((_TERM, full, j.term, j.ty, "term"))
        stack.append((_TYPE, full, j.ty, None, "type"))
    elif isinstance(j, TypeWF):
        stack.append((_TYPE, full, j.ty, None, "type"))
    for i in range(len(ctx) - 1, start - 1, -1):
        stack.append((_TYPE, prefixes[i], ctx[i], None, ("ctx", i)))
    return stack


def check(sig: Signature, j: Judgement) -> CheckReport:
    """Decide a judgement from scratch; the safe, promise-free entry point.
    A ``HasType`` judgement that a live certificate matches is accepted by
    comparison, without its stages.  The context stage checks only the
    entries after the longest prefix of the context that is the context of
    a live certificate from ``certify``."""
    t0 = time.perf_counter_ns()
    eq, cmp_steps = False, 0
    if _certificates and isinstance(j, HasType):
        cert = _live(_certificates, sig, j.term, HasType)
        if cert is not None:
            eq, cmp_steps = _matches(cert.judgement, _cons_ctx(j.ctx), j.ty)
    if eq:
        ok, reason, locus, steps = True, None, None, 1
    else:
        start, c = _certified_prefix(sig, j.ctx) if _certificates and j.ctx else (0, 0)
        ok, reason, locus, steps = _decide(sig, _seed_judgement(j, start))
        cmp_steps += c
    return CheckReport("accept" if ok else "reject", reason, locus,
                       steps + cmp_steps, time.perf_counter_ns() - t0)


def _issue(sig: Signature, j, subject: Optional[Term], conditional=False,
           provenance=None) -> Certificate:
    """A certificate for ``j``, filed in the index for as long as the
    caller holds it: under ``subject`` unless that is None, and, unless it
    is ``conditional``, under its context if that has entries."""
    cert = Certificate(sig, j, conditional, provenance)
    keys = [] if subject is None else [id(subject)]
    if not conditional and j.ctx:
        keys.append((id(j.ctx[-1]), len(j.ctx)))
    for key in keys:
        _certificates.setdefault(key, []).append(weakref.ref(cert, partial(_forget, key)))
    return cert


def _exceeds(t: Term, bound: int) -> bool:
    """Whether ``t`` has more than ``bound`` nodes; walks at most
    ``bound + 1`` of them."""
    stack = [t]
    while stack:
        x = stack.pop()
        bound -= 1
        if bound < 0:
            return True
        if x[0] > CONST and len(x) > 1:
            stack.extend(x[1:])
    return False


def certify(sig: Signature, j: Union[HasType, TypeWF]
            ) -> Tuple[CheckReport, Optional[Certificate]]:
    """``check(sig, j)``, and on acceptance a certificate for ``j``, which
    the kernel indexes for as long as the caller holds it, or None.  A type
    gets one if it has more nodes than its context has entries plus one,
    since a discharge compares every entry and could cost as much as the
    rules.  A term that is not a leaf gets one; a leaf gets one only over a
    context with entries, and it is indexed by that context alone: a leaf's
    rule costs what discharging it would, but the context stage it spares
    a later judgement costs at least a step per entry.  A type over a
    context with at least one entry is the identity instance of itself as
    a family, ``B[Var 0]`` with the other variables weakened by 1, and its
    certificate records that provenance."""
    report = check(sig, j)
    if not report.ok:
        return report, None
    provenance = None
    if isinstance(j, HasType):
        t = j.term
        if t[0] == VAR or t[0] == CONST or len(t) == 1:
            return report, _issue(sig, j, None) if j.ctx else None
    else:
        t = j.ty
        if not _exceeds(t, len(j.ctx) + 1):
            return report, None
        if j.ctx:
            provenance = (t, (VAR, 0), 1, len(j.ctx) - 1)
    return report, _issue(sig, j, t, provenance=provenance)


def instantiate(cert: Certificate, ctx: Context, s: Term
                ) -> Tuple[CheckReport, Optional[Term], Optional[Certificate]]:
    """The instance of a certified family at ``s``, typed by the
    substitution rule instead of by the rules for its constructors.

    ``cert`` is a certificate from ``certify`` for ``TypeWF(delta + (T,),
    B)``; a conditional one would not show that ``T`` is a type.  If ``ctx``
    is ``delta`` followed by ``k`` more entries and ``s`` has type ``T``
    weakened by ``k`` over ``ctx``, then ``B`` under the environment
    ``(0, (s,), k)``, ``s`` for its last entry's variable and the others
    weakened past the ``k`` entries, is a type over ``ctx`` provided ``ctx``
    is well-formed, the promise a type obligation runs under.

    Returns ``(report, instance, certificate)``: on acceptance the instance
    and a conditional certificate for ``TypeWF(ctx, instance)``, which, as
    with ``certify``, an instance with no more nodes than ``ctx`` has
    entries plus one does not get; on rejection None for both.  The
    report's steps count the comparison of ``delta`` with the front of
    ``ctx``, the check of ``s`` and the instance's tree size, so the cost is
    linear in ``delta``, ``s`` and the instance, never a walk of ``B``.
    Only the instance's open spine is written: the nodes above an
    occurrence of a variable of ``B``; every closed subterm is ``B``'s own
    object.  The spine is found on the certificate's first instance, as a
    list of post-order instructions, one per open node or escaping
    variable, and kept by the certificate; that walk is not charged, since
    ``certify`` charged a walk of ``B`` already.  Each instance is then one
    pass over the list that writes one node per instruction, and ``inst``
    writes each escaping variable.  A closed ``B`` is written in full.
    """
    t0 = time.perf_counter_ns()
    j = cert.judgement
    if j.__class__ is not TypeWF or not j.ctx or cert.conditional:
        raise ValueError("instantiate needs a certified TypeWF judgement over a binder")
    entries = j.ctx
    n = len(entries) - 1
    k = len(ctx) - n
    ok, steps, i = k >= 0, 1, 0
    # delta is the front of ctx, compared entry by entry as ``_matches`` does
    while ok and i < n:
        ok, c = _k.eq_lazy(entries[i], ctx[i])
        steps += c
        i += 1
    if not ok:
        reason = "context does not extend the family's"
        locus = (("ctx", i - 1 if k >= 0 else len(ctx)),)
    else:
        # s against T weakened by k, as one term obligation under the type
        # stage's promise that ctx is well-formed and the target a type
        target, c = _k.inst(entries[n], (), k, 0)
        seed = (_TERM, _cons_ctx(ctx), s, target, "component")
        ok, reason, locus, c2 = _decide(cert.sig, [seed])
        steps += c + c2
    if not ok:
        ns = time.perf_counter_ns() - t0
        return CheckReport("reject", reason, locus, steps, ns), None, None
    spine = cert._spine
    if spine is _UNBUILT:
        # two threads may both get here, and build equal spines
        spine = _k.open_spine(j.ty)
        object.__setattr__(cert, "_spine", spine)
    if spine is None:
        out, nodes = _k.inst(j.ty, (s,), k, 0)
    else:
        out, nodes = _k.inst_open(j.ty, spine, (s,), k)
    steps += nodes
    issued = None
    if nodes > len(ctx) + 1:
        # a component larger than the instance is one the family does not
        # use; comparing it could cost more than walking the instance
        provenance = None if _exceeds(s, nodes) else (j.ty, s, k, n)
        issued = _issue(cert.sig, TypeWF(ctx, out), out, True, provenance)
    ns = time.perf_counter_ns() - t0
    return CheckReport("accept", None, None, steps, ns), out, issued


# Type synthesis.  Uniqueness of types makes the result canonical: the one
# type the checker would accept.  ``infer`` reads it off the rule in ``_run``
# for the head constructor, then checks it as ``check`` would: first that it
# is a type, then the term against it, which verifies every premise, since
# nothing has been promised about the pieces.

def infer(sig: Signature, ctx: Context, a: Term) -> Term:
    """Return the unique type of ``a`` over ``ctx`` (which must be
    well-formed), or raise InferFailure.  What it returns is a type that
    ``check(sig, HasType(ctx, a, ty))`` accepts."""
    c = _cons_ctx(ctx)
    ok, reason, ty, _ = _decide(sig, [(_TERM, c, a, None, "term")])
    if not ok:
        raise InferFailure(reason, ty)
    ok, reason, locus, _ = _decide(
        sig, [(_TERM, c, a, ty, "term"), (_TYPE, c, ty, None, "type")])
    if not ok:
        raise InferFailure(reason, locus)
    return ty
