"""Shifting, substitution, context morphisms and lazy comparison.

The checker never materializes a substituted type just to compare it against
an input: ``equal_under_subst`` walks the target and the unsubstituted source
simultaneously, expanding environment entries on demand, so a comparison
costs a constant times the target's size no matter how large the substituted
form would be.  Eager substitution exists too (``subst``, ``apply_morphism``)
for the places that genuinely build terms.

A ``ContextMorphism`` f : source -> target is a sequence of source-context
terms, one per target entry, outermost first (``terms[0]`` substitutes the
outermost target variable).  Composition is componentwise substitution; the
identity is the sequence of variables.  These are meta-level objects only;
environments and morphisms never appear inside a term.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel as _k
from .terms import Context, Term, Var


@dataclass(frozen=True)
class SubstEnv:
    """Simultaneous substitution: indices ``lift..lift+len(terms)-1`` map to
    ``terms`` (expressed outside all ``lift`` binders), indices below ``lift``
    are untouched, and indices above the block are renumbered by
    ``outer - len(terms)``."""

    lift: int
    terms: tuple
    outer: int

    def key(self):
        return (self.lift, self.terms, self.outer)


def subst_env(*terms: Term) -> SubstEnv:
    """Environment replacing indices ``0..n-1`` by ``terms`` and dropping the
    corresponding binders."""
    return SubstEnv(0, tuple(terms), 0)


def apply_env(t: Term, env: SubstEnv) -> Term:
    """Eagerly apply a substitution environment."""
    out, _ = _k.inst(t, env.terms, env.outer, env.lift)
    return out


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Adjust free indices >= cutoff by ``by``; bound indices are untouched.

    Raises ValueError if an index would go negative, which always signals an
    internal invariant violation rather than a user error.
    """
    out, _ = _k.inst(t, (), by, cutoff)
    return out


def subst(t: Term, a: Term, at: int = 0) -> Term:
    """Capture-avoiding replacement of index ``at`` by ``a``.

    ``a`` is expressed outside binder ``at``; indices above ``at`` drop by
    one, and ``a`` is shifted as binders are crossed.
    """
    out, _ = _k.inst(t, (a,), 0, at)
    return out


def equal_under_subst(t: Term, env: SubstEnv, target: Term) -> bool:
    """True iff eagerly applying ``env`` to ``t`` would equal ``target``.

    Never materializes the substitution; aborts at the first mismatch.
    """
    eq, _ = _k.eq_lazy((_k.CLO, t, env.key()), target)
    return eq


def equal_under_subst_steps(t: Term, env: SubstEnv, target: Term) -> tuple[bool, int]:
    """As ``equal_under_subst`` but also reports comparison steps, which never
    exceed the target's size plus one."""
    return _k.eq_lazy((_k.CLO, t, env.key()), target)


@dataclass(frozen=True)
class ContextMorphism:
    source: Context
    target: Context
    terms: tuple

    def __post_init__(self):
        if len(self.terms) != len(self.target):
            raise ValueError("morphism needs one term per target entry")


def identity(ctx: Context) -> ContextMorphism:
    n = len(ctx)
    return ContextMorphism(ctx, ctx, tuple(Var(n - 1 - i) for i in range(n)))


def empty_morphism(ctx: Context) -> ContextMorphism:
    """The unique morphism into the empty context."""
    return ContextMorphism(ctx, (), ())


def _max_free(t: Term) -> int:
    """Largest free index in ``t``, or -1 when closed."""
    best = -1
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        tag = node[0]
        if tag == _k.VAR:
            if node[1] >= depth:
                best = max(best, node[1] - depth)
        elif tag != _k.CONST and len(node) > 1:
            binders = _k.BINDERS[tag]
            for i, child in enumerate(node[1:]):
                stack.append((child, depth + binders[i]))
    return best


def apply_morphism(theta: Term, f: ContextMorphism) -> Term:
    """Generalized substitution of the morphism's terms for the target
    context's variables: ``terms[0]`` replaces the outermost variable.
    Raises ValueError if ``theta`` is not scoped over the target context."""
    if _max_free(theta) >= len(f.target):
        raise ValueError("scope mismatch: term has free indices outside the "
                         "morphism's target context")
    out, _ = _k.inst(theta, tuple(reversed(f.terms)), 0, 0)
    return out


def compose(f: ContextMorphism, g: ContextMorphism) -> ContextMorphism:
    """Componentwise substitution: ``(f . g).terms[i] = f.terms[i][g]``."""
    if g.target != f.source:
        raise ValueError("compose: source/target contexts do not match")
    return ContextMorphism(g.source, f.target, tuple(apply_morphism(t, g) for t in f.terms))
