"""Shifting, substitution and context morphisms: eager substitution, for
the places that build terms.

The checker never materializes a substituted type just to compare it against
an input: ``ott.kernel.eq_lazy`` walks the target and a closure node
``(CLO, t, (lift, terms, outer))`` simultaneously, expanding the substitution
on demand, so a comparison costs at most the target's size plus one.

A ``ContextMorphism`` f : source -> target is a sequence of source-context
terms, one per target entry, outermost first (``terms[0]`` substitutes the
outermost target variable).  Composition is componentwise substitution; the
identity is the sequence of variables.  These are meta-level objects only;
substitutions and morphisms never appear inside a term.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel as _k
from .terms import Context, Term, Var


def inst(t: Term, terms: tuple, outer: int = 0, lift: int = 0) -> Term:
    """Eagerly substitute: indices ``lift..lift+len(terms)-1`` map to
    ``terms`` (expressed outside all ``lift`` binders), indices below
    ``lift`` are untouched, and indices above the block are renumbered by
    ``outer - len(terms)``.  Calls ``ott.kernel.inst`` by attribute, so a
    wrapper installed there sees every call."""
    out, _ = _k.inst(t, terms, outer, lift)
    return out


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Adjust free indices >= cutoff by ``by``; bound indices are untouched.

    Raises ValueError if an index would go negative, which always signals an
    internal invariant violation rather than a user error.
    """
    return inst(t, (), by, cutoff)


def subst(t: Term, a: Term, at: int = 0) -> Term:
    """Capture-avoiding replacement of index ``at`` by ``a``.

    ``a`` is expressed outside binder ``at``; indices above ``at`` drop by
    one, and ``a`` is shifted as binders are crossed.
    """
    return inst(t, (a,), 0, at)


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
    return inst(theta, tuple(reversed(f.terms)))


def compose(f: ContextMorphism, g: ContextMorphism) -> ContextMorphism:
    """Componentwise substitution: ``(f . g).terms[i] = f.terms[i][g]``."""
    if g.target != f.source:
        raise ValueError("compose: source/target contexts do not match")
    return ContextMorphism(g.source, f.target, tuple(apply_morphism(t, g) for t in f.terms))
