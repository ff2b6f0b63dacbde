"""Stability of derivability under weakening and generalized substitution.

These are the admissible structural rules, realized as executable properties:
inserting a fresh entry anywhere in the context (with the matching shifts)
preserves every verdict, and so does transporting a judgement along a typed
context morphism, including morphisms extended pointwise under a tail of
extra entries.
"""

from ott.checker import HasType, check
from ott.subst import shift
from ott.terms import syntactic_equal

from generators import ContextMorphism, Generator, apply_morphism


def _weaken_context(ctx, position, entry):
    """Insert ``entry`` (expressed over ctx[:position]) at ``position``."""
    prefix = ctx[:position]
    suffix = tuple(
        shift(ty, 1, i) for i, ty in enumerate(ctx[position:])
    )
    return prefix + (entry,) + suffix


def test_weakening_preserves_judgements(sig, rng):
    gen = Generator(sig, rng)
    hits = 0
    while hits < 200:
        ctx, term, ty = gen.random_judgement()
        position = rng.randrange(0, len(ctx) + 1)
        entry = gen.random_type(ctx[:position], 3)
        cutoff = len(ctx) - position
        weak_ctx = _weaken_context(ctx, position, entry)
        weak_term = shift(term, 1, cutoff)
        weak_ty = shift(ty, 1, cutoff)
        assert check(sig, HasType(weak_ctx, weak_term, weak_ty)).ok, (
            ctx, term, ty, position, entry,
        )
        hits += 1


def test_weakening_preserves_rejections(sig, rng):
    gen = Generator(sig, rng)
    from generators import mutations

    hits = 0
    while hits < 100:
        ctx, term, ty = gen.random_judgement()
        bad_ty = next(iter(mutations(ty)))
        position = rng.randrange(0, len(ctx) + 1)
        entry = gen.random_type(ctx[:position], 3)
        cutoff = len(ctx) - position
        weak_ctx = _weaken_context(ctx, position, entry)
        assert not check(sig, HasType(
            weak_ctx, shift(term, 1, cutoff), shift(bad_ty, 1, cutoff)
        )).ok
        hits += 1


def _extend_pointwise(f: ContextMorphism, tail) -> ContextMorphism:
    """Extend a morphism with the identity on a tail of extra target entries:
    the new source carries the tail transported along ``f``."""
    source, target, terms = f.source, f.target, list(f.terms)
    for entry in tail:
        # entry is expressed over the current target; transport it
        transported = apply_morphism(entry, ContextMorphism(source, target, tuple(terms)))
        k = len(target)
        lifted = [shift(t, 1) for t in terms]
        target = target + (entry,)
        source = source + (transported,)
        terms = lifted + [  # the new variable maps to itself
            (0, 0)
        ]
    return ContextMorphism(source, target, tuple(terms))


def test_generalized_substitution_preserves_judgements(sig, rng):
    gen = Generator(sig, rng)
    hits = 0
    while hits < 150:
        f, _, _ = gen.random_projection_chain()
        ty = gen.random_type(f.target, 4)
        term = gen.random_term(f.target, ty, 4)
        if term is None:
            continue
        assert check(sig, HasType(f.target, term, ty)).ok
        moved_term = apply_morphism(term, f)
        moved_ty = apply_morphism(ty, f)
        assert check(sig, HasType(f.source, moved_term, moved_ty)).ok, (
            f, term, ty,
        )
        hits += 1


def test_generalized_substitution_under_extra_entries(sig, rng):
    gen = Generator(sig, rng)
    hits = 0
    while hits < 100:
        f, _, _ = gen.random_projection_chain()
        tail = tuple(gen.random_type(f.target, 3) for _ in range(rng.randrange(1, 3)))
        # the tail entries must be well-formed over the growing target
        grown = f.target
        ok = True
        for entry in tail:
            from ott.checker import TypeWF

            if not check(sig, TypeWF(grown, entry)).ok:
                ok = False
                break
            grown = grown + (entry,)
        if not ok:
            continue
        extended = _extend_pointwise(f, tail)
        ty = gen.random_type(extended.target, 4)
        term = gen.random_term(extended.target, ty, 4)
        if term is None:
            continue
        moved_term = apply_morphism(term, extended)
        moved_ty = apply_morphism(ty, extended)
        assert check(sig, HasType(extended.source, moved_term, moved_ty)).ok
        hits += 1


def test_morphism_application_agrees_with_iterated_single_subst(sig, rng):
    """Simultaneous substitution equals the fold of single substitutions."""
    from ott.subst import subst

    gen = Generator(sig, rng)
    for _ in range(200):
        f, _, _ = gen.random_projection_chain()
        theta = gen.random_type(f.target, 5)
        expected = theta
        n = len(f.terms)
        for i, t in enumerate(f.terms):
            # substitute the outermost remaining variable; the single
            # substitution lifts t over the inner binders itself
            expected = subst(expected, t, n - 1 - i)
        assert syntactic_equal(apply_morphism(theta, f), expected)