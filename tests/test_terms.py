import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatConvSucc, NatConvZero,
    NatRec, NatTy, Pi, Refl, Signature, Succ, Var, Zero, size,
    syntactic_equal,
)

leaves = st.sampled_from(
    [Var(0), Var(1), Var(2), Const("A"), Const("a"), NatTy, Zero]
)


def _extend(children):
    return st.one_of(
        st.builds(Succ, children),
        st.builds(Pi, children, children),
        st.builds(Refl, children, children),
        st.builds(Id, children, children, children),
        st.builds(Lambda, children, children, children),
        st.builds(NatConvZero, children, children, children),
        st.builds(App, children, children, children, children),
        st.builds(BetaConv, children, children, children, children),
        st.builds(IdConv, children, children, children, children),
        st.builds(NatRec, children, children, children, children),
        st.builds(NatConvSucc, children, children, children, children),
        st.builds(IdRec, children, children, children, children, children, children),
    )


terms = st.recursive(leaves, _extend, max_leaves=30)


def _size_oracle(t):
    if len(t) == 1 or isinstance(t[1], (int, str)):
        return 1
    return 1 + sum(_size_oracle(c) for c in t[1:])


def _equal_oracle(s, t):
    if s[0] != t[0] or len(s) != len(t):
        return False
    if len(s) == 1:
        return True
    if isinstance(s[1], (int, str)):
        return s[1] == t[1]
    return all(_equal_oracle(a, b) for a, b in zip(s[1:], t[1:]))


def test_size_trivial_cases():
    assert size(Var(0)) == 1
    assert size(Id(NatTy, Zero, Zero)) == 4
    assert size(Succ(Succ(Zero))) == 3


@given(terms)
def test_size_matches_independent_traversal(t):
    assert size(t) == _size_oracle(t)


@given(terms)
def test_size_additive_and_positive(t):
    assert size(t) >= 1
    if t[0] > 1 and len(t) > 1:
        assert size(t) == 1 + sum(size(c) for c in t[1:])


def test_syntactic_equal_trivial_cases():
    assert syntactic_equal(Var(0), Var(0))
    assert not syntactic_equal(Zero, Succ(Zero))
    assert not syntactic_equal(Var(0), Var(1))
    assert not syntactic_equal(Const("A"), Const("a"))


@given(terms, terms)
def test_syntactic_equal_matches_recursive_oracle(s, t):
    assert syntactic_equal(s, t) == _equal_oracle(s, t)


@given(terms)
def test_syntactic_equal_reflexive(t):
    assert syntactic_equal(t, t)


@given(terms, terms)
def test_syntactic_equal_symmetric(s, t):
    assert syntactic_equal(s, t) == syntactic_equal(t, s)


@given(terms, terms, terms)
@settings(max_examples=60)
def test_syntactic_equal_transitive(s, t, u):
    if syntactic_equal(s, t) and syntactic_equal(t, u):
        assert syntactic_equal(s, u)


@given(terms)
def test_structural_identity_is_the_only_equality(t):
    # no reduction relation is ever consulted: adding one successor is enough
    assert not syntactic_equal(t, Succ(t))


def test_signature_extensions_leave_their_base_alone():
    """Two extensions of one signature see their own declarations only,
    and an extension's constants stay read-only."""
    base = Signature().with_type("A").with_const("a", Const("A"))
    left = base.with_const("b", Const("A"))
    right = base.with_type("B").with_const("b", Const("B"))
    assert dict(base.constants) == {"a": Const("A")} and base.atomic_types == {"A"}
    assert left.constants["b"] == Const("A") and left.atomic_types == {"A"}
    assert right.constants["b"] == Const("B") and right.atomic_types == {"A", "B"}
    for sig in (left, right, right.with_type("C")):
        with pytest.raises(TypeError):
            sig.constants["c"] = Const("A")
