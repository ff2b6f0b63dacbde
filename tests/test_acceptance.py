"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as ``pytest tests/test_acceptance.py -v -s`` (the plain suite includes it
too).  Criteria and tolerances are pinned here, not configurable:

  1  scaling: fitted step slope within [0.9, 2.3] per family at sizes
     2^10..2^17, full run under 5 minutes
  2  fast non-derivability at ~1e5 nodes: reject under 1 second, steps linear
  3  checker/oracle agreement, bidirectional, >= 10^4 instances including
     every enumerated derivable judgement with terms up to size 10
  4  synthesis succeeds on 1000 generated terms; the checker accepts each
     inferred type and rejects every single-node mutation of it
  5  every emitted admissible-rule term rechecks at its stated type: 500
     randomized equality-reasoning instances plus all telescopes to length 3
  6  the four generalized-substitution laws on 1000 typed morphism triples
  7  per-rule recursive-call counts: 0 for computation rules, 4 for function
     elimination, 6 for identity elimination, 1 for introductions
"""

import random
import time

from ott.bench import BenchConfig, FAMILIES, run_bench
from ott.checker import HasType, check, infer
from ott.derived import (
    congruence_app, symmetry, telescope_idconv, telescope_idrec, telescope_pi,
    transitivity, transport,
)
from ott.oracle import DerivationSpace, all_terms
from ott.subst import shift, subst
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatConvZero, NatRec,
    NatTy, Pi, Refl, Signature, Succ, Var, Zero, size, syntactic_equal,
)

from generators import (
    Generator, apply_morphism, compose, default_signature, identity, mutations,
    premise_count,
)

A = Const("A")


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE PASS  {criterion}: {detail}")


def test_criterion_1_quadratic_scaling():
    started = time.monotonic()
    sizes = tuple(2 ** k for k in range(10, 18))
    slopes = {}
    for family in FAMILIES:
        report = run_bench(BenchConfig(family, sizes=sizes, repetitions=1))
        assert 0.9 <= report.slope <= 2.3, (family, report.slope)
        slopes[family] = round(report.slope, 3)
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"bench took {elapsed:.0f}s"
    _report("1 quadratic scaling",
            f"slopes {slopes} within [0.9, 2.3], bench {elapsed:.1f}s < 300s")


def _nat(n):
    t = Zero
    for _ in range(n):
        t = Succ(t)
    return t


def _add(x, y):
    return NatRec(NatTy, x, Succ(Var(0)), y)


def _mul(x, y):
    return NatRec(NatTy, Zero, NatRec(NatTy, shift(x, 2), Succ(Var(0)), Var(0)), y)


def _exp_tower(levels: int):
    """A closed Nat term of ~11*levels nodes whose value is 2^levels."""
    t = _nat(2)
    for _ in range(levels):
        t = _mul(_nat(2), t)
    return t


def _add_tower(node_budget: int):
    """A closed Nat term near the node budget whose value is merely linear."""
    t = _nat(2)
    n = size(t)
    grow = size(_add(_nat(2), Zero)) - size(Zero)  # nodes each level adds
    while n < node_budget - 8:
        t = _add(_nat(2), t)
        n += grow
    return t


def test_criterion_2_fast_non_derivability():
    sig = default_signature()
    # two syntactically distinct closed Nat expressions of ~5e4 nodes each:
    # one encodes 2^4400 (astronomically beyond any evaluator), the other a
    # small number; a normalizing checker would have to compute the former
    lhs = _exp_tower(4400)
    rhs = _add_tower(size(lhs))
    judgement = HasType((), Refl(NatTy, lhs), Id(NatTy, lhs, rhs))
    n = size(judgement.term) + size(judgement.ty)
    assert n > 100_000
    started = time.monotonic()
    report = check(sig, judgement)
    elapsed = time.monotonic() - started
    assert not report.ok
    assert report.reason == "refl type mismatch"
    assert elapsed < 1.0, f"rejection took {elapsed:.2f}s"

    # steps are linear in input size (the same shape at half the size costs
    # half the steps) ...
    small_lhs = _exp_tower(2200)
    small_rhs = _add_tower(size(small_lhs))
    small = HasType((), Refl(NatTy, small_lhs), Id(NatTy, small_lhs, small_rhs))
    small_n = size(small.term) + size(small.ty)
    small_report = check(sig, small)
    assert report.steps / small_report.steps < (n / small_n) * 1.2

    # ... and independent of the encoded value: checking the 2^4400 term
    # costs the same per node as checking an equal-sized term of tiny value
    huge_value = check(sig, HasType((), lhs, NatTy))
    tiny_value = check(sig, HasType((), rhs, NatTy))
    per_node_huge = huge_value.steps / size(lhs)
    per_node_tiny = tiny_value.steps / size(rhs)
    assert 0.8 < per_node_huge / per_node_tiny < 1.25

    _report("2 fast non-derivability",
            f"{n}-node refl judgement over a 2^4400-valued expression "
            f"rejected in {elapsed * 1000:.0f}ms; steps linear in size "
            f"({per_node_huge:.2f} vs {per_node_tiny:.2f} steps/node)")


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    sig = Signature().with_type("A").with_const("a", A)
    roots = ((), (A,), (NatTy,))
    instances = 0

    # completeness side: every enumerated derivable judgement (terms up to
    # size 10) is accepted by the checker
    big = DerivationSpace(sig, max_term=10, roots=roots, rounds=6, slot_cap=12)
    deepest = 0
    for ctx, term, ty in big.all_term_judgements():
        assert check(sig, HasType(ctx, term, ty)).ok, (ctx, term, ty)
        deepest = max(deepest, size(term))
        instances += 1
    assert deepest == 10

    # soundness side: on an exhaustive syntactic universe the verdicts agree
    # with the complete enumeration in both directions
    small = DerivationSpace(sig, max_term=5, roots=roots)
    universe = all_terms(4)
    candidates = [t for n in range(1, 5) for t in universe[n]]
    type_pool = sorted(
        {ty for ctx in roots for ty in small.types[ctx] if size(ty) <= 4},
        key=repr,
    )[:16]
    type_pool += [Var(0), Zero, Succ(Zero)]  # non-types must reject too
    for ctx in roots:
        for term in candidates:
            for ty in type_pool:
                judgement = HasType(ctx, term, ty)
                assert check(sig, judgement).ok == small.derivable(judgement)
                instances += 1

    elapsed = time.monotonic() - started
    assert instances >= 10_000
    assert elapsed < 600, f"oracle comparison took {elapsed:.0f}s"
    _report("3 oracle equivalence",
            f"{instances} instances agree (terms to size {deepest}), "
            f"{elapsed:.0f}s < 600s")


def test_criterion_4_uniqueness_of_types():
    sig = default_signature()
    gen = Generator(sig, random.Random(404))
    inferred_ok = accepted = mutants_rejected = mutants_total = 0
    for _ in range(1000):
        ctx, term, ty = gen.random_judgement()
        synthesized = infer(sig, ctx, term)
        assert syntactic_equal(synthesized, ty)
        inferred_ok += 1
        assert check(sig, HasType(ctx, term, synthesized)).ok
        accepted += 1
        for mutant in mutations(synthesized):
            assert not syntactic_equal(mutant, synthesized)
            assert not check(sig, HasType(ctx, term, mutant)).ok, (
                ctx, term, synthesized, mutant,
            )
            mutants_rejected += 1
            mutants_total += 1
    _report("4 uniqueness of types",
            f"1000/1000 inferred and accepted; "
            f"{mutants_rejected}/{mutants_total} single-node mutations rejected")


def _transport_instance(gen, rng, sig):
    base = gen.random_context(rng.randrange(0, 2))
    over = gen.random_type(base, 3)
    ctx = base + (over, shift(over, 1), Id(shift(over, 2), Var(1), Var(0)))
    lhs, rhs, path = Var(2), Var(1), Var(0)
    family = gen.random_type(ctx + (shift(over, 3),), 4)
    point = gen.random_term(ctx, subst(family, lhs), 5)
    if point is None:
        return None
    return ctx, shift(over, 3), family, lhs, rhs, path, point


def test_criterion_5_admissible_rules_recheck():
    sig = default_signature()
    rng = random.Random(505)
    gen = Generator(sig, rng)
    emitted = 0

    while emitted < 200:  # transport
        inst = _transport_instance(gen, rng, sig)
        if inst is None:
            continue
        ctx, over, family, lhs, rhs, path, point = inst
        result = transport(sig, ctx, over, family, lhs, rhs, path, point)
        assert syntactic_equal(result.stated_type, subst(family, rhs))
        emitted += 1

    for _ in range(100):  # symmetry and transitivity over postulated paths
        base = gen.random_context(rng.randrange(0, 2))
        over = gen.random_type(base, 3)
        ctx = base + (
            over, shift(over, 1), shift(over, 2),
            Id(shift(over, 3), Var(2), Var(1)),
            Id(shift(over, 4), Var(2), Var(1)),
        )
        x, y, z = Var(4), Var(3), Var(2)
        p, q = Var(1), Var(0)
        sym = symmetry(sig, ctx, shift(over, 5), x, y, p)
        emitted += 1
        tr = transitivity(sig, ctx, shift(over, 5), x, y, z, p, q)
        emitted += 1

    while emitted < 500:  # congruence at random functions
        base = gen.random_context(rng.randrange(0, 2))
        dom = gen.random_type(base, 3)
        cod = gen.random_type(base + (dom,), 3)
        pi = Pi(dom, cod)
        ctx = base + (pi, shift(pi, 1), Id(shift(pi, 2), Var(1), Var(0)))
        arg = gen.random_term(ctx, shift(dom, 3), 4)
        if arg is None:
            continue
        congruence_app(
            sig, ctx, shift(dom, 3), shift(cod, 3, 1),
            Var(2), Var(1), Var(0), arg,
        )
        emitted += 1

    # telescopes: every telescope of length <= 3 over a fixed entry pool,
    # formed over the identity-elimination context (x, y, x = y) so entries
    # may depend on the endpoints
    from itertools import product as iproduct

    from ott.subst import inst as dinst

    sig2 = Signature().with_type("A").with_const("a", A)
    a_const = Const("a")
    ctx3 = (A, shift(A, 1), Id(shift(A, 2), Var(1), Var(0)))
    tele_count = 0
    applied_count = 0

    def entry_pool(j):
        # entries over ctx3 plus j earlier telescope binders
        return (
            A,
            NatTy,
            Id(A, a_const, a_const),
            Id(A, Var(j + 2), Var(j + 1)),  # the endpoints' equality
        )

    def arg_for(concrete):
        # an inhabitant of an instantiated entry, over ctx3
        if concrete == A:
            return a_const
        if concrete == NatTy:
            return Zero
        if concrete[0] == 6 and concrete[2] == concrete[3]:
            return Refl(concrete[1], concrete[2])
        if concrete == Id(A, Var(2), Var(1)):
            return Var(0)
        return None

    telescopes = [()]
    for length in (1, 2, 3):
        for combo in iproduct(range(4), repeat=length):
            telescopes.append(tuple(entry_pool(j)[pick]
                                    for j, pick in enumerate(combo)))

    for delta in telescopes:
        product = telescope_pi(sig2, ctx3, delta, NatTy)
        lam = product.lam(Zero)
        emitted += 2  # the product type and the abstraction both recheck
        args = []
        for entry in delta:
            concrete = dinst(entry, tuple(reversed(args)))
            arg = arg_for(concrete)
            if arg is None:
                break
            args.append(arg)
        tele_count += 1
        if len(args) == len(delta):
            product.app(lam.term, args)
            product.betaconv(Zero, args)
            applied_count += 1
            emitted += 2

    assert tele_count == 1 + 4 + 16 + 64
    assert applied_count == tele_count  # the pool keeps every entry inhabitable
    _report("5 admissible rules recheck",
            f"{emitted} emissions rechecked at their stated types "
            f"({tele_count} telescopes to length 3)")


def test_criterion_5b_telescope_eliminators_recheck():
    """telescope_idrec over every telescope of length <= 3 from the same
    fixed pool (constant motive), plus dependent-motive spot checks; the
    computation witness is emitted for every telescope of length <= 2."""
    from itertools import product as iproduct

    from ott.subst import inst as dinst

    sig = default_signature()
    a_const = Const("a")
    rfl = Refl(A, a_const)

    def entry_pool(j):
        return (
            A,
            NatTy,
            Id(A, a_const, a_const),
            Id(A, Var(j + 2), Var(j + 1)),
        )

    def inhabit(concrete):
        if concrete == A:
            return a_const
        if concrete == NatTy:
            return Zero
        if concrete[0] == 6 and concrete[2] == concrete[3]:
            return Refl(concrete[1], concrete[2])
        raise AssertionError(f"pool entry not inhabitable: {concrete}")

    telescopes = [()]
    for length in (1, 2, 3):
        for combo in iproduct(range(4), repeat=length):
            telescopes.append(tuple(entry_pool(j)[pick]
                                    for j, pick in enumerate(combo)))

    eliminations = witnesses = 0
    for delta in telescopes:
        k = len(delta)
        args = []
        for j, entry in enumerate(delta):
            at_ends = dinst(entry, (rfl, a_const, a_const), 0, j)
            args.append(inhabit(dinst(at_ends, tuple(reversed(args)))))
        result = telescope_idrec(
            sig, (), A, delta, NatTy, a_const, a_const, rfl, args, Zero,
        )
        assert syntactic_equal(result.stated_type, NatTy)
        eliminations += 1
        if k <= 2:
            witness = telescope_idconv(sig, (), A, delta, NatTy, a_const,
                                       args, Zero)
            assert witness.stated_type[0] == 6  # an identity type
            witnesses += 1

    # dependent motives over a postulated path
    ctx = (A, A, Id(A, Var(1), Var(0)))
    x, y, p = Var(2), Var(1), Var(0)
    delta1 = (Id(shift(A, 3), Var(2), Var(1)),)
    motive1 = Id(shift(A, 4), Var(3), Var(2))
    dep = telescope_idrec(sig, ctx, A, delta1, motive1, x, y, p, (p,), Var(0))
    assert syntactic_equal(dep.stated_type, Id(A, x, y))
    dep_w = telescope_idconv(sig, ctx, A, delta1, motive1, x,
                             (Refl(A, x),), Var(0))
    assert syntactic_equal(dep_w.stated_type[1], Id(A, x, x))
    eliminations += 1
    witnesses += 1

    assert eliminations == 86
    assert witnesses == 22
    _report("5b telescope eliminators",
            f"{eliminations} eliminations and {witnesses} computation "
            f"witnesses rechecked over all telescopes to length 3")


def test_criterion_6_substitution_laws():
    sig = default_signature()
    rng = random.Random(606)
    gen = Generator(sig, rng)
    triples = 0
    while triples < 1000:
        f, g, h = gen.random_projection_chain()
        id_target = identity(f.target)
        id_source = identity(f.source)
        assert compose(id_target, f).terms == f.terms
        assert compose(f, id_source).terms == f.terms
        assert compose(f, compose(g, h)).terms == compose(compose(f, g), h).terms
        ty = gen.random_type(f.target, 5)
        assert syntactic_equal(
            apply_morphism(ty, compose(f, g)),
            apply_morphism(apply_morphism(ty, f), g),
        )
        term = gen.random_term(f.target, ty, 5)
        if term is None:
            continue
        assert syntactic_equal(
            apply_morphism(term, compose(f, g)),
            apply_morphism(apply_morphism(term, f), g),
        )
        triples += 1
    _report("6 substitution laws", "all four equations hold on 1000 triples")


def test_criterion_7_promise_discipline():
    sig = default_signature()
    a = Const("a")
    lam = Lambda(A, A, Var(0))
    motive = Id(A, Var(2), Var(1))
    base = Refl(A, Var(0))
    eliminator = IdRec(A, motive, a, a, Refl(A, a), base)
    counts = {
        "pi-comp (betaconv)": (
            BetaConv(A, A, a, Var(0)),
            Id(A, App(A, A, lam, a), a), 0),
        "id-comp (idconv)": (
            IdConv(A, motive, a, base),
            Id(Id(A, a, a), eliminator, Refl(A, a)), 0),
        "nat-comp (natconv_zero)": (
            NatConvZero(NatTy, Zero, Succ(Var(0))),
            Id(NatTy, NatRec(NatTy, Zero, Succ(Var(0)), Zero), Zero), 0),
        "pi-elim (app)": (App(A, A, lam, a), A, 4),
        "id-elim (idrec)": (eliminator, Id(A, a, a), 6),
        "pi-intro (lambda)": (lam, Pi(A, A), 1),
        "id-intro (refl)": (Refl(A, a), Id(A, a, a), 1),
        "nat-intro (succ)": (Succ(Zero), NatTy, 1),
    }
    for label, (term, ty, expected) in counts.items():
        actual = premise_count(sig, (), term, ty)
        assert actual == expected, (label, actual, expected)
    _report("7 promise discipline",
            "recursive-call counts: comp=0, pi-elim=4, id-elim=6, intro=1")
