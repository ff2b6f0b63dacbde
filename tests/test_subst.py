import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from ott import kernel
from ott.subst import inst, shift, subst
from ott.terms import (
    Const, Id, Lambda, NatTy, Pi, Succ, Var, Zero, size, syntactic_equal,
)

from generators import (
    ContextMorphism, Generator, apply_morphism, compose, default_signature, identity,
)
from test_terms import terms

_BINDERS = kernel.BINDERS


def _naive_shift(t, by, cutoff=0):
    if t[0] == kernel.VAR:
        return (kernel.VAR, t[1] + by) if t[1] >= cutoff else t
    if t[0] == kernel.CONST or len(t) == 1:
        return t
    binders = _BINDERS[t[0]]
    return (t[0],) + tuple(
        _naive_shift(c, by, cutoff + binders[i]) for i, c in enumerate(t[1:])
    )


def _naive_subst(t, a, at):
    if t[0] == kernel.VAR:
        i = t[1]
        if i == at:
            return _naive_shift(a, at)
        return (kernel.VAR, i - 1) if i > at else t
    if t[0] == kernel.CONST or len(t) == 1:
        return t
    binders = _BINDERS[t[0]]
    return (t[0],) + tuple(
        _naive_subst(c, a, at + binders[i]) for i, c in enumerate(t[1:])
    )


def test_shift_trivial_cases():
    assert shift(Var(0), 1) == Var(1)
    assert shift(Lambda(Const("A"), Const("A"), Var(0)), 1) == \
        Lambda(Const("A"), Const("A"), Var(0))
    assert shift(Lambda(Const("A"), Const("A"), Var(1)), 1) == \
        Lambda(Const("A"), Const("A"), Var(2))


def test_shift_underflow_is_an_error():
    import pytest

    with pytest.raises(ValueError):
        shift(Var(0), -1)


@given(terms)
def test_shift_round_trip(t):
    assert shift(shift(t, 1), -1) == t
    assert shift(shift(t, 3, 1), -3, 1) == t


@given(terms, st.integers(0, 3), st.integers(0, 2))
def test_shift_matches_naive(t, by, cutoff):
    assert shift(t, by, cutoff) == _naive_shift(t, by, cutoff)


def test_subst_trivial_cases():
    assert subst(Var(0), Zero) == Zero
    assert subst(Var(1), Zero) == Var(0)
    assert subst(Var(0), Zero, 1) == Var(0)


@given(terms, terms, st.integers(0, 2))
def test_subst_matches_naive(t, a, at):
    assert subst(t, a, at) == _naive_subst(t, a, at)


@given(terms, terms)
def test_subst_cancels_shift(t, a):
    assert subst(shift(t, 1), a) == t


@given(terms, terms)
def test_subst_shift_commutation(t, a):
    # substituting below a fresh slot commutes with opening it
    assert shift(subst(t, a), 1, 0) == subst(shift(t, 1, 1), shift(a, 1, 0))


# lazy comparison ------------------------------------------------------------
#
# A substitution is the kernel's ``(lift, terms, outer)`` triple: ``inst``
# applies it eagerly, and ``kernel.eq_lazy`` compares the closure node
# ``(CLO, t, triple)`` against a target without building ``t``'s instance.


def _eager(t, env):
    lift, terms, outer = env
    return inst(t, terms, outer, lift)


def _lazy(t, env, target):
    """(equal, steps) of ``t`` under ``env`` against ``target``."""
    return kernel.eq_lazy((kernel.CLO, t, env), target)


@given(terms, terms, terms)
@settings(max_examples=150)
def test_equal_under_subst_matches_materialization(t, a, target):
    env = (0, (a,), 0)
    assert _lazy(t, env, target)[0] == syntactic_equal(_eager(t, env), target)


@given(terms, st.integers(0, 3), terms)
def test_equal_under_shift_matches_materialization(t, by, target):
    env = (0, (), by)
    assert _lazy(t, env, target)[0] == syntactic_equal(_eager(t, env), target)


def test_equal_under_subst_trivial():
    a = Succ(Zero)
    assert _lazy(Var(0), (0, (a,), 0), a)[0]
    eq, steps = _lazy(Var(0), (0, (Zero,), 0), Succ(Zero))
    assert not eq
    assert steps <= 2  # head mismatch is found immediately


@given(terms, terms, terms)
@settings(max_examples=200)
def test_equal_under_subst_cost_bounded_by_target(t, a, target):
    _, steps = _lazy(t, (0, (a,), 0), target)
    assert steps <= size(target) + 1


@given(terms, terms)
def test_equal_under_subst_cost_exact_on_success(t, a):
    target = _eager(t, (0, (a,), 0))
    eq, steps = _lazy(t, (0, (a,), 0), target)
    assert eq
    assert steps == size(target)


# context morphisms -----------------------------------------------------------


def _chain(seed):
    gen = Generator(default_signature(), random.Random(seed))
    return gen, gen.random_projection_chain()


def test_identity_is_neutral_trivial():
    ctx = (Const("A"), NatTy)
    ident = identity(ctx)
    assert ident.terms == (Var(1), Var(0))
    theta = Pi(Const("A"), Id(NatTy, Zero, Zero))
    assert apply_morphism(theta, ident) == theta


def test_apply_morphism_closed_term_under_empty_target():
    theta = Id(NatTy, Zero, Succ(Zero))
    bang = ContextMorphism((Const("A"),), (), ())
    assert apply_morphism(theta, bang) == theta


def test_morphism_laws_randomized():
    for seed in range(300):
        gen, (f, g, h) = _chain(seed)
        id_target = identity(f.target)
        id_source = identity(f.source)
        assert compose(id_target, f).terms == f.terms
        assert compose(f, id_source).terms == f.terms
        assert compose(f, compose(g, h)).terms == compose(compose(f, g), h).terms
        theta = gen.random_type(f.target, 5)
        lhs = apply_morphism(theta, compose(f, g))
        rhs = apply_morphism(apply_morphism(theta, f), g)
        assert syntactic_equal(lhs, rhs)
        term = gen.random_term(f.target, theta, 5)
        if term is not None:
            lhs = apply_morphism(term, compose(f, g))
            rhs = apply_morphism(apply_morphism(term, f), g)
            assert syntactic_equal(lhs, rhs)


def test_compose_requires_matching_contexts():
    import pytest

    f = identity((Const("A"),))
    g = identity((NatTy,))
    with pytest.raises(ValueError):
        compose(f, g)


# full-environment properties ---------------------------------------------------


def _naive_env(t, env, depth=0):
    """Reference semantics for a full ``(lift, terms, outer)`` substitution."""
    lift, terms, outer = env
    if t[0] == kernel.VAR:
        i = t[1]
        if i < lift + depth:
            return t
        if i - lift - depth < len(terms):
            return _naive_shift(terms[i - lift - depth], lift + depth)
        return (kernel.VAR, i - len(terms) + outer)
    if t[0] == kernel.CONST or len(t) == 1:
        return t
    binders = _BINDERS[t[0]]
    return (t[0],) + tuple(
        _naive_env(c, env, depth + binders[i]) for i, c in enumerate(t[1:])
    )


@given(terms, st.lists(terms, max_size=3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=300)
def test_apply_env_matches_reference_semantics(t, subs, lift, outer):
    env = (lift, tuple(subs), outer)
    assert _eager(t, env) == _naive_env(t, env)


@given(terms, st.lists(terms, max_size=3), st.integers(0, 2), st.integers(0, 2),
       terms)
@settings(max_examples=300)
def test_equal_under_general_env_matches_materialization(t, subs, lift, outer, target):
    env = (lift, tuple(subs), outer)
    assert _lazy(t, env, target)[0] == syntactic_equal(_eager(t, env), target)


@given(terms, st.lists(terms, min_size=1, max_size=3), st.integers(0, 2))
@settings(max_examples=200)
def test_equal_under_general_env_cost_bound(t, subs, lift):
    env = (lift, tuple(subs), 1)
    target = _eager(t, env)
    eq, steps = _lazy(t, env, target)
    assert eq
    assert steps == size(target)


@given(terms, st.lists(terms, max_size=3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=200)
def test_inst_count_is_output_size(t, subs, lift, outer):
    out, count = kernel.inst(t, tuple(subs), outer, lift)
    if not subs and outer == 0:
        assert out is t and count == 0  # identity: nothing materializes
    else:
        assert count == size(out)


# the open spine ---------------------------------------------------------------
#
# A family over a non-empty context binds its variable at index 0 and may
# mention the outer entries above it.  ``kernel.inst_open`` writes its
# instance along the spine that ``kernel.open_spine`` finds and keeps every
# closed child as the family's own object.


def _children(family, tree, out):
    """(family's child, output's child, binder depth, listed) for each child
    of each node on the spine ``tree``; ``listed`` says whether the spine
    lists the child as open."""
    found = []
    work = [(family, tree, out, 0)]
    while work:
        b, tr, o, d = work.pop()
        if not tr:  # an escaping variable
            continue
        listed = dict(zip(tr[0::2], tr[1::2]))
        binders = _BINDERS[b[0]]
        for k in range(1, len(b)):
            depth = d + binders[k - 1]
            found.append((b[k], o[k], depth, k in listed))
            if k in listed:
                work.append((b[k], listed[k], o[k], depth))
    return found


# a family whose every variable is bound inside it
closed_families = terms.map(lambda t: Pi(NatTy, Pi(NatTy, Pi(NatTy, t))))


@given(st.one_of(terms, closed_families), terms, st.integers(0, 3))
# the component under a binder, and the outer variables renumbered
@example(Pi(NatTy, Id(Var(2), Var(1), Pi(Var(0), Var(3)))), Lambda(NatTy, NatTy, Var(1)), 2)
@example(Pi(NatTy, Var(0)), Var(0), 0)  # a closed family
@settings(max_examples=300)
def test_inst_open_writes_the_instance_inst_writes(family, s, k):
    want, count = kernel.inst(family, (s,), k, 0)
    spine = kernel.open_spine(family)
    # a closed family is one that no substitution changes
    assert (spine is None) == (shift(family, 1) == family)
    if spine is None:
        return
    assert spine[0] == size(family)
    out, n = kernel.inst_open(family, spine, (s,), k)
    assert out == want and n == count == size(out)
    # the spine lists exactly the open children, and each closed one is kept
    for child, written, depth, listed in _children(family, spine[1], out):
        assert listed == (shift(child, 1, depth) != child)
        assert listed or written is child


def test_apply_morphism_rejects_out_of_scope_terms():
    import pytest

    f = identity((NatTy,))
    with pytest.raises(ValueError, match="scope mismatch"):
        apply_morphism(Var(1), f)
    # a bound occurrence at the same raw index is fine
    assert apply_morphism(Pi(NatTy, Var(1)), f) == Pi(NatTy, Var(1))
