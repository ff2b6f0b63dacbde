"""Shifting and substitution: eager substitution, for the places that
build terms.

The checker never materializes a substituted type just to compare it against
an input: ``ott.kernel.eq_lazy`` walks the target and a closure node
``(CLO, t, (lift, terms, outer))`` simultaneously, expanding the substitution
on demand, so a comparison costs at most the target's size plus one.
Substitutions are meta-level objects only; none appears inside a term.
"""

from __future__ import annotations

from . import kernel as _k
from .terms import Term


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
