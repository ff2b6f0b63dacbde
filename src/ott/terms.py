"""Core syntax: terms, contexts, signatures, telescopes.

There is one tree type for terms and types alike; the judgement forms, not
the syntax, distinguish them.  Every constructor is fully annotated (an
application records domain, codomain family, function and argument), which is
what makes each judgement derivable by at most one rule and type synthesis
deterministic.  Binding is pure de Bruijn: index 0 is the innermost binder
and no name data exists in core terms; names live only in the surface syntax.

A ``Context`` is a tuple of types, outermost first; entry ``i`` may only
mention entries before it, and ``(VAR, k)`` refers to ``ctx[len(ctx)-1-k]``.
A ``Telescope`` is the same shape used as a dependent domain block.  All
values here are immutable and safe to share across concurrent checks.
"""

from __future__ import annotations

from . import kernel as _k
from .kernel import (
    APP, BETA, CLO, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
    NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
)

Term = tuple
Context = tuple
Telescope = tuple

__all__ = [
    "Term", "Context", "Telescope", "Signature",
    "Var", "Const", "Pi", "Lambda", "App", "BetaConv", "Id", "Refl",
    "IdRec", "IdConv", "NatTy", "Zero", "Succ", "NatRec", "NatConvZero",
    "NatConvSucc", "size", "syntactic_equal",
]


def Var(index: int) -> Term:
    return (VAR, index)


def Const(name: str) -> Term:
    return (CONST, name)


def Pi(domain: Term, codomain: Term) -> Term:
    return (PI, domain, codomain)


def Lambda(domain: Term, codomain: Term, body: Term) -> Term:
    return (LAM, domain, codomain, body)


def App(domain: Term, codomain: Term, fun: Term, arg: Term) -> Term:
    return (APP, domain, codomain, fun, arg)


def BetaConv(domain: Term, codomain: Term, arg: Term, body: Term) -> Term:
    return (BETA, domain, codomain, arg, body)


def Id(over: Term, lhs: Term, rhs: Term) -> Term:
    return (ID, over, lhs, rhs)


def Refl(over: Term, point: Term) -> Term:
    return (REFL, over, point)


def IdRec(over: Term, motive: Term, lhs: Term, rhs: Term, path: Term, base: Term) -> Term:
    return (IDREC, over, motive, lhs, rhs, path, base)


def IdConv(over: Term, motive: Term, point: Term, base: Term) -> Term:
    return (IDCONV, over, motive, point, base)


NatTy: Term = (NAT,)
Zero: Term = (ZERO,)


def Succ(pred: Term) -> Term:
    return (SUCC, pred)


def NatRec(motive: Term, zcase: Term, scase: Term, scrutinee: Term) -> Term:
    return (NATREC, motive, zcase, scase, scrutinee)


def NatConvZero(motive: Term, zcase: Term, scase: Term) -> Term:
    return (NATCONVZERO, motive, zcase, scase)


def NatConvSucc(motive: Term, zcase: Term, scase: Term, pred: Term) -> Term:
    return (NATCONVSUCC, motive, zcase, scase, pred)


def size(t: Term) -> int:
    """Number of tree nodes in ``t``."""
    return _k.size(t)


def syntactic_equal(s: Term, t: Term) -> bool:
    """Tree identity.  The traversal stops at the first mismatch, so its cost
    is bounded by the smaller term; no notion of reduction is involved."""
    eq, _ = _k.eq_lazy(s, t)
    return eq


class Signature:
    """Globally declared atomic types and typed constants.

    The pure calculus has no closed types at all (a dependent product needs a
    type to quantify over, an identity type needs terms), so any interesting
    check happens over postulated atoms and constants.  Constants behave like
    context variables with fixed declared types: each name is declared exactly
    once and a constant's type may only mention earlier declarations, which
    preserves the one-rule-per-judgement property the checker relies on.

    Instances are immutable; ``with_type``/``with_const`` return extensions.
    """

    __slots__ = ("atomic_types", "constants", "order")

    def __init__(self, atomic_types=(), constants=(), order=()):
        self.atomic_types = frozenset(atomic_types)
        self.constants = dict(constants)
        self.order = tuple(order)

    def _check_fresh(self, name: str) -> None:
        if name in self.atomic_types or name in self.constants:
            raise ValueError(f"duplicate signature entry {name!r}")

    def with_type(self, name: str) -> "Signature":
        self._check_fresh(name)
        return Signature(self.atomic_types | {name}, self.constants, self.order + (name,))

    def with_const(self, name: str, ty: Term) -> "Signature":
        self._check_fresh(name)
        consts = dict(self.constants)
        consts[name] = ty
        return Signature(self.atomic_types, consts, self.order + (name,))

    def __contains__(self, name: str) -> bool:
        return name in self.atomic_types or name in self.constants

    def __repr__(self) -> str:
        return f"Signature(atomic={sorted(self.atomic_types)}, constants={sorted(self.constants)})"
