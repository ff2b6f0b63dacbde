"""Randomized generators for property tests: well-typed judgements, typed
context morphisms, and single-node type mutations.

The generator builds derivations, not raw trees, so everything it returns is
derivable by construction; tests then compare the checker's verdicts (and the
synthesizer's answers) against that ground truth.  Inhabitation is best
effort: ``random_term`` may return None for types it cannot populate within
its fuel, and callers fall back or retry.

``premise_count`` measures the promise discipline from outside the checker:
how many premises one rule pushes.
"""

from __future__ import annotations

import random

from .checker import _TERM, _TYPE, _cons_ctx, _run
from .kernel import APP, CONST, ID, IDREC, LAM, NAT, NATREC, PI, REFL, SUCC, VAR, ZERO
from .subst import shift
from . import kernel as _k
from .terms import Context, Signature, Term

__all__ = [
    "Generator", "default_signature", "mutations", "premise_count", "replace_at",
    "subterm_paths",
]


def default_signature() -> Signature:
    return Signature().with_type("A").with_const("a", (CONST, "A"))


def _inst(t, terms, outer=0, lift=0):
    out, _ = _k.inst(t, terms, outer, lift)
    return out


class Generator:
    def __init__(self, sig: Signature, rng: random.Random):
        self.sig = sig
        self.rng = rng

    # types -----------------------------------------------------------------

    def random_type(self, ctx: Context, fuel: int) -> Term:
        """A derivable type over ``ctx``."""
        atoms = [(CONST, n) for n in sorted(self.sig.atomic_types)] + [(NAT,)]
        if fuel <= 1:
            return self.rng.choice(atoms)
        roll = self.rng.random()
        if roll < 0.40:
            return self.rng.choice(atoms)
        if roll < 0.70:
            over = self.random_type(ctx, fuel // 2)
            lhs = self.random_term(ctx, over, fuel // 2)
            rhs = self.random_term(ctx, over, fuel // 2)
            if lhs is None:
                return self.rng.choice(atoms)
            if rhs is None or self.rng.random() < 0.4:
                rhs = lhs
            return (ID, over, lhs, rhs)
        dom = self.random_type(ctx, fuel // 2)
        cod = self.random_type(ctx + (dom,), fuel // 2)
        return (PI, dom, cod)

    def random_context(self, length: int, fuel: int = 4) -> Context:
        ctx: Context = ()
        for _ in range(length):
            ctx = ctx + (self.random_type(ctx, fuel),)
        return ctx

    # terms -----------------------------------------------------------------

    def _candidates(self, ctx: Context, ty: Term):
        n = len(ctx)
        out = []
        for i in range(n):
            if shift(ctx[n - 1 - i], i + 1) == ty:
                out.append((VAR, i))
        for name, declared in self.sig.constants.items():
            if declared == ty:
                out.append((CONST, name))
        return out

    def random_term(self, ctx: Context, ty: Term, fuel: int):
        """A derivable term of type ``ty`` over ``ctx``, or None."""
        base = self._base_term(ctx, ty, fuel)
        if base is None:
            return None
        while fuel > 2 and self.rng.random() < 0.35:
            wrapped = self._wrap(ctx, base, ty, fuel)
            if wrapped is None:
                break
            base = wrapped
            fuel //= 2
        return base

    def _base_term(self, ctx: Context, ty: Term, fuel: int):
        named = self._candidates(ctx, ty)
        if named and (fuel <= 1 or self.rng.random() < 0.5):
            return self.rng.choice(named)
        tag = ty[0]
        if tag == NAT:
            n = self.rng.randrange(0, max(1, fuel))
            t = (ZERO,)
            for _ in range(n):
                t = (SUCC, t)
            return t
        if tag == ID and ty[2] == ty[3]:
            return (REFL, ty[1], ty[2])
        if tag == PI:
            body = self.random_term(ctx + (ty[1],), ty[2], max(1, fuel - 1))
            if body is not None:
                return (LAM, ty[1], ty[2], body)
        if named:
            return self.rng.choice(named)
        return None

    def _wrap(self, ctx: Context, term: Term, ty: Term, fuel: int):
        """Dress a term in an elimination that lands back at the same type."""
        roll = self.rng.random()
        lifted = shift(ty, 1)
        if roll < 0.40:
            # apply the constant family at a random argument
            dom = self.random_type(ctx, max(1, fuel // 2))
            arg = self.random_term(ctx, dom, max(1, fuel // 2))
            if arg is None:
                return None
            return (APP, dom, lifted, (LAM, dom, lifted, shift(term, 1)), arg)
        if roll < 0.70:
            scrut = self.random_term(ctx, (NAT,), max(1, fuel // 2))
            if scrut is None:
                return None
            # recursor at the constant motive; the step case returns the
            # accumulated value
            return (NATREC, lifted, term, (VAR, 0), scrut)
        # eliminate a path from the context at the constant motive
        n = len(ctx)
        paths = []
        for i in range(n):
            entry = ctx[n - 1 - i]
            if entry[0] == ID:
                paths.append((i, shift(entry, i + 1)))
        if not paths:
            return None
        i, id_ty = self.rng.choice(paths)
        _, over, lhs, rhs = id_ty
        return (IDREC, over, shift(ty, 3), lhs, rhs, (VAR, i), shift(term, 1))

    def random_judgement(self, max_ctx=3, fuel=6):
        """A derivable (ctx, term, type) triple."""
        for _ in range(64):
            ctx = self.random_context(self.rng.randrange(0, max_ctx + 1))
            ty = self.random_type(ctx, fuel)
            term = self.random_term(ctx, ty, fuel)
            if term is not None:
                return ctx, term, ty
        raise AssertionError("generator starved; widen the signature")

    # context morphisms -----------------------------------------------------

    def random_projection_chain(self, fuel=4):
        """Contexts E >= Theta >= Delta >= Gamma with typed morphisms between
        them: projections whose components are sometimes replaced by other
        inhabitants of the required type."""
        from .subst import ContextMorphism

        gamma = self.random_context(self.rng.randrange(0, 3), fuel)

        def extend(base: Context) -> Context:
            out = base
            for _ in range(self.rng.randrange(0, 3)):
                out = out + (self.random_type(out, fuel),)
            return out

        def projection(source: Context, target: Context) -> ContextMorphism:
            # drop the extra entries; components are the target's variables,
            # except that some are swapped for other inhabitants of the
            # (already-substituted) entry type, which may force later
            # components to be generated too
            extra = len(source) - len(target)
            terms: list = []
            for i, entry in enumerate(target):
                expected = _inst(entry, tuple(reversed(terms)))
                var_pick = (VAR, len(target) - 1 - i + extra)
                var_ok = expected == shift(entry, len(target) - i + extra)
                pick = None
                if self.rng.random() < 0.35 or not var_ok:
                    pick = self.random_term(source, expected, fuel)
                if pick is None:
                    if not var_ok:
                        # pure projection is always a morphism
                        n = len(target)
                        return ContextMorphism(source, target, tuple(
                            (VAR, n - 1 - k + extra) for k in range(n)
                        ))
                    pick = var_pick
                terms.append(pick)
            return ContextMorphism(source, target, tuple(terms))

        delta = extend(gamma)
        theta = extend(delta)
        outer = extend(theta)
        f = projection(delta, gamma)
        g = projection(theta, delta)
        h = projection(outer, theta)
        return f, g, h


# single-node mutations ------------------------------------------------------

def subterm_paths(t: Term, path=()):
    yield path, t
    if t[0] > CONST and len(t) > 1:
        for i, child in enumerate(t[1:]):
            yield from subterm_paths(child, path + (i,))


def replace_at(t: Term, path, new: Term) -> Term:
    if not path:
        return new
    i = path[0]
    child = replace_at(t[1 + i], path[1:], new)
    return t[: 1 + i] + (child,) + t[2 + i:]


def mutations(t: Term):
    """Every single-node rewrite of ``t``: each position replaced by a leaf
    it does not already hold (and bumped indices for variables).  Every
    mutant differs syntactically from the original."""
    for path, node in subterm_paths(t):
        if node[0] == VAR:
            yield replace_at(t, path, (VAR, node[1] + 1))
        else:
            yield replace_at(t, path, (VAR, 0))
        replacement = (ZERO,) if node != (ZERO,) else (NAT,)
        yield replace_at(t, path, replacement)


# premise counts ---------------------------------------------------------------

class _PopDepths(list):
    """An obligation stack that records its depth before each pop."""

    def __init__(self, items):
        super().__init__(items)
        self.depths: list = []

    def pop(self, *args):
        self.depths.append(len(self))
        return super().pop(*args)


def premise_count(sig: Signature, ctx: Context, subject: Term, target=None) -> int:
    """The number of premises the rule for the head of ``subject`` pushes,
    checked as a type if ``target`` is None and as a term against ``target``
    otherwise.  On a stack that holds only this obligation, that is the
    depth at the second pop, or 0 if there is none.  Raises ValueError if
    the obligation or a premise is rejected."""
    kind = _TYPE if target is None else _TERM
    stack = _PopDepths([(kind, _cons_ctx(ctx), subject, target, None)])
    ok, reason, locus, _ = _run(sig, stack)
    if not ok:
        raise ValueError(f"{reason} at {list(locus)}")
    return stack.depths[1] if len(stack.depths) > 1 else 0
