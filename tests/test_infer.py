import random

import pytest

from ott.checker import HasType, InferFailure, check, infer
from ott.oracle import DerivationSpace
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatConvSucc, NatConvZero,
    NatRec, NatTy, Pi, Refl, Succ, Var, Zero, syntactic_equal,
)
from ott.subst import shift
from ott.testing import Generator, mutations

A = Const("A")
a = Const("a")


def test_infer_variable(sig):
    assert infer(sig, (A,), Var(0)) == A
    ctx = (A, Id(shift(A, 1), Var(0), Var(0)))
    assert infer(sig, ctx, Var(0)) == Id(A, Var(1), Var(1))


def test_infer_refl(sig):
    assert infer(sig, (A,), Refl(A, Var(0))) == Id(A, Var(0), Var(0))


def test_infer_app_materializes_codomain(sig):
    cod = Id(shift(A, 1), Var(0), Var(0))
    lam = Lambda(A, cod, Refl(shift(A, 1), Var(0)))
    assert infer(sig, (), App(A, cod, lam, a)) == Id(A, a, a)


def test_infer_idrec_instantiates_the_motive_at_path_and_endpoints(sig):
    # [x : A, y : A, p : Id(A, x, y)]
    #   |- idrec{A, x y u.Id(A, y, x)}(x, y, p, x.refl(A, x)) : Id(A, y, x)
    ctx = (A, A, Id(A, Var(1), Var(0)))
    motive = Id(A, Var(1), Var(2))
    term = IdRec(A, motive, Var(2), Var(1), Var(0), Refl(A, Var(0)))
    assert infer(sig, ctx, term) == Id(A, Var(1), Var(2))


def test_infer_conversions(sig):
    bc = BetaConv(A, A, a, Var(0))
    assert infer(sig, (), bc) == Id(A, App(A, A, Lambda(A, A, Var(0)), a), a)
    conv = NatConvSucc(NatTy, Zero, Succ(Var(0)), Zero)
    ty = infer(sig, (), conv)
    assert check(sig, HasType((), conv, ty)).ok


def _rejection(sig, ctx, term):
    with pytest.raises(InferFailure) as err:
        infer(sig, ctx, term)
    return err.value.reason, err.value.locus


def test_infer_failure_carries_reason(sig):
    # loci start at the stage root, as in check reports
    assert _rejection(sig, (), Var(3)) == ("unbound variable", ("term",))
    assert _rejection(sig, (A,), Var(-1)) == ("unbound variable", ("term",))
    assert _rejection(sig, (), Const("nope")) == ("not a term constant", ("term",))
    # types have no term-level type
    assert _rejection(sig, (), NatTy) == (
        "no term-level rule for this constructor", ("term",),
    )
    # head is not a function
    assert _rejection(sig, (), App(A, A, a, a)) == (
        "constant type mismatch", ("term", 2),
    )


def test_infer_never_disagrees_with_check(sig, rng):
    gen = Generator(sig, rng)
    for _ in range(300):
        ctx, term, ty = gen.random_judgement()
        inferred = infer(sig, ctx, term)
        assert syntactic_equal(inferred, ty)
        assert check(sig, HasType(ctx, term, inferred)).ok


def test_infer_rejects_conversion_witnesses_with_false_premises(sig):
    # a witness's premises are those of its stated equation: the body of the
    # beta redex, the identity eliminator's base, the recursor's step case;
    # the locus is the failing node inside the conclusion's type stage
    assert _rejection(sig, (), BetaConv(A, A, a, Zero)) == (
        "zero against non-Nat type", ("type", 1, 2, 2),
    )
    motive = Id(shift(A, 3), Var(2), Var(1))
    assert _rejection(sig, (), IdConv(A, motive, a, Zero)) == (
        "zero against non-Nat type", ("type", 1, 5),
    )
    assert _rejection(sig, (), NatConvSucc(NatTy, Zero, a, Zero)) == (
        "constant type mismatch", ("type", 1, 2),
    )
    # the same witnesses with true premises are inferred
    for term in (
        BetaConv(A, A, a, Var(0)),
        IdConv(A, motive, a, Refl(shift(A, 1), Var(0))),
        NatConvSucc(NatTy, Zero, Succ(Var(0)), Zero),
    ):
        assert check(sig, HasType((), term, infer(sig, (), term))).ok


def test_infer_and_check_agree_on_single_node_mutants(sig):
    # the generated judgements of acceptance criterion 4, and every
    # single-node mutant of their terms and of their types, each used as a term
    gen = Generator(sig, random.Random(404))
    inferred = accepted = 0
    for _ in range(1000):
        ctx, term, ty = gen.random_judgement()
        for m in (*mutations(term), *mutations(ty)):
            try:
                synthesized = infer(sig, ctx, m)
            except InferFailure:
                synthesized = None
            else:
                inferred += 1
                assert check(sig, HasType(ctx, m, synthesized)).ok, (ctx, m)
            if check(sig, HasType(ctx, m, ty)).ok:
                accepted += 1
                assert synthesized is not None and syntactic_equal(synthesized, ty)
    assert inferred > accepted > 0


def test_infer_returns_the_stored_type_of_every_enumerated_judgement(sig):
    # the completeness side of acceptance criterion 3
    roots = ((), (A,), (NatTy,))
    space = DerivationSpace(sig, max_term=10, roots=roots, rounds=6, slot_cap=12)
    for ctx, term, ty in space.all_term_judgements():
        assert syntactic_equal(infer(sig, ctx, term), ty), (ctx, term, ty)
