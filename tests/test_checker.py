import random

from ott.checker import (
    CtxtWF, HasType, InferFailure, TypeWF, _case_recursion_count,
    _check_term_star, _check_type_star, _cons_ctx, _seed_judgement, check,
    check_ctxt, infer,
)
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatConvSucc, NatConvZero,
    NatRec, NatTy, Pi, Refl, Signature, Succ, Var, Zero, syntactic_equal,
)
from ott.subst import shift, subst
from ott.testing import Generator, mutations

A = Const("A")
a = Const("a")


def _nat(n):
    t = Zero
    for _ in range(n):
        t = Succ(t)
    return t


# context checking -------------------------------------------------------------


def test_empty_context_accepts(sig):
    assert check_ctxt(sig, ()).ok


def test_singleton_context_accepts(sig):
    assert check_ctxt(sig, (A,)).ok


def test_context_rejects_bad_entry_with_index(sig):
    report = check_ctxt(sig, (Id(A, Const("missing"), Const("missing")),))
    assert not report.ok
    assert report.locus[0] == ("ctx", 0)


def test_context_entry_may_use_earlier_entries(sig):
    ctx = (A, Id(shift(A, 1), Var(0), Var(0)))
    assert check_ctxt(sig, ctx).ok


def test_context_entry_cannot_see_later_entries(sig):
    ctx = (Id(shift(A, 1), Var(0), Var(0)), A)
    assert not check_ctxt(sig, ctx).ok


def test_context_entries_share_one_cons_list():
    # entry i is checked under ctx[:i], which is a tail of the whole
    # context's cons list: seeding builds n cells, not one list per entry
    n = 200
    ctx = tuple(A if k % 2 else NatTy for k in range(n))
    stack = _seed_judgement(HasType(ctx, Zero, NatTy))
    tails, cell = [], stack[0][1]
    while cell is not None:
        tails.append(cell)
        cell = cell[1]
    tails.append(None)
    assert len(tails) == n + 1
    for i in range(n):
        kind, prefix, entry, _, path = stack[len(stack) - 1 - i]
        assert path == (("ctx", i), None) and entry is ctx[i]
        assert prefix is tails[n - i]
        assert prefix == _cons_ctx(ctx[:i])


# type formation ---------------------------------------------------------------


def test_pi_formation(sig):
    assert check(sig, TypeWF((), Pi(A, A))).ok


def test_id_formation_three_premises(sig):
    assert check(sig, TypeWF((), Id(A, a, a))).ok


def test_id_formation_rejects_annotation_mismatch(sig):
    assert not check(sig, TypeWF((), Id(A, Zero, a))).ok


def test_terms_are_not_types(sig):
    assert not check(sig, TypeWF((), Zero)).ok
    assert not check(sig, TypeWF((), a)).ok
    assert not check(sig, TypeWF((), Var(0))).ok


# term checking, rule by rule ----------------------------------------------------


def test_variable_rule(sig):
    assert check(sig, HasType((A,), Var(0), A)).ok


def test_variable_rule_shifts_entry(sig):
    ctx = (A, Id(shift(A, 1), Var(0), Var(0)))
    # under [x : A, e : Id(A, x, x)], x is Var(1) at type A
    assert check(sig, HasType(ctx, Var(1), A)).ok
    assert check(sig, HasType(ctx, Var(0), Id(A, Var(1), Var(1)))).ok
    assert not check(sig, HasType(ctx, Var(0), Id(A, Var(0), Var(0)))).ok


def test_unbound_variable_rejected(sig):
    report = check(sig, HasType((), Var(0), A))
    assert not report.ok
    assert report.reason == "unbound variable"


def test_refl_accepts_and_rejects(sig):
    assert check(sig, HasType((), Refl(NatTy, Zero), Id(NatTy, Zero, Zero))).ok
    assert not check(sig, HasType((), Refl(NatTy, Zero), Id(NatTy, Zero, Succ(Zero)))).ok


def test_lambda_and_app(sig):
    lam = Lambda(A, A, Var(0))
    assert check(sig, HasType((), lam, Pi(A, A))).ok
    assert check(sig, HasType((), App(A, A, lam, a), A)).ok
    assert not check(sig, HasType((), App(A, A, lam, Zero), A)).ok


def test_dependent_app_result_is_substituted_codomain(sig):
    # f : Pi(x : A) Id(A, x, x) applied to a lands at Id(A, a, a)
    cod = Id(shift(A, 1), Var(0), Var(0))
    lam = Lambda(A, cod, Refl(shift(A, 1), Var(0)))
    assert check(sig, HasType((), App(A, cod, lam, a), Id(A, a, a))).ok
    assert not check(sig, HasType((), App(A, cod, lam, a), Id(A, a, Var(0)))).ok


def test_betaconv_exact_type(sig):
    bc = BetaConv(A, A, a, Var(0))
    stated = Id(A, App(A, A, Lambda(A, A, Var(0)), a), a)
    assert check(sig, HasType((), bc, stated)).ok
    assert not check(sig, HasType((), bc, Id(A, a, a))).ok


def test_idrec_and_idconv(sig):
    motive = Id(A, Var(2), Var(1))
    base = Refl(A, Var(0))
    eliminator = IdRec(A, motive, a, a, Refl(A, a), base)
    assert check(sig, HasType((), eliminator, Id(A, a, a))).ok
    witness = IdConv(A, motive, a, base)
    stated = Id(Id(A, a, a), eliminator, Refl(A, a))
    assert check(sig, HasType((), witness, stated)).ok


def test_nat_rules(sig):
    assert check(sig, HasType((), Zero, NatTy)).ok
    assert check(sig, HasType((), _nat(3), NatTy)).ok
    plus = NatRec(NatTy, _nat(2), Succ(Var(0)), _nat(2))
    assert check(sig, HasType((), plus, NatTy)).ok
    conv_z = NatConvZero(NatTy, _nat(2), Succ(Var(0)))
    assert check(sig, HasType(
        (), conv_z,
        Id(NatTy, NatRec(NatTy, _nat(2), Succ(Var(0)), Zero), _nat(2)),
    )).ok
    conv_s = NatConvSucc(NatTy, _nat(2), Succ(Var(0)), Zero)
    assert check(sig, HasType(
        (), conv_s,
        Id(NatTy,
           NatRec(NatTy, _nat(2), Succ(Var(0)), Succ(Zero)),
           Succ(NatRec(NatTy, _nat(2), Succ(Var(0)), Zero))),
    )).ok


def test_dependent_natrec(sig):
    # motive n. Id(Nat, n, n); zcase refl(Nat, zero); scase refl(Nat, succ n)
    motive = Id(NatTy, Var(0), Var(0))
    zcase = Refl(NatTy, Zero)
    scase = Refl(NatTy, Succ(Var(1)))
    rec = NatRec(motive, zcase, scase, _nat(2))
    assert check(sig, HasType((), rec, Id(NatTy, _nat(2), _nat(2)))).ok


def test_types_are_not_terms(sig):
    assert not check(sig, HasType((), NatTy, NatTy)).ok
    assert not check(sig, HasType((), Pi(A, A), NatTy)).ok
    assert not check(sig, HasType((), A, A)).ok


# staging ------------------------------------------------------------------------


def test_malformed_context_fails_first(sig):
    bad_ctx = (Zero,)
    report = check(sig, HasType(bad_ctx, Var(0), A))
    assert not report.ok
    assert report.locus[0] == ("ctx", 0)


def test_malformed_type_fails_before_term(sig):
    report = check(sig, HasType((), Refl(A, a), Zero))
    assert not report.ok
    assert report.locus[0] == "type"


def test_failure_locus_points_into_the_term(sig):
    term = Refl(A, Zero)  # zero is not in A
    report = check(sig, HasType((), term, Id(A, Zero, Zero)))
    assert not report.ok
    assert report.locus[0] == "type"  # the stated type is already bad
    report = _check_term_star(sig, (), term, Id(A, Zero, Zero))
    assert not report.ok


# promise-discipline call counts ---------------------------------------------------


def test_recursive_call_counts_per_rule(sig):
    lam = Lambda(A, A, Var(0))
    cases = [
        (App(A, A, lam, a), A, 4),
        (lam, Pi(A, A), 1),
        (Refl(A, a), Id(A, a, a), 1),
        (Succ(Zero), NatTy, 1),
        (BetaConv(A, A, a, Var(0)),
         Id(A, App(A, A, lam, a), a), 0),
        (NatRec(NatTy, Zero, Succ(Var(0)), Zero), NatTy, 4),
        (NatConvZero(NatTy, Zero, Succ(Var(0))),
         Id(NatTy, NatRec(NatTy, Zero, Succ(Var(0)), Zero), Zero), 0),
    ]
    motive = Id(A, Var(2), Var(1))
    base = Refl(A, Var(0))
    eliminator = IdRec(A, motive, a, a, Refl(A, a), base)
    cases.append((eliminator, Id(A, a, a), 6))
    cases.append((IdConv(A, motive, a, base),
                  Id(Id(A, a, a), eliminator, Refl(A, a)), 0))
    for term, ty, expected in cases:
        assert _case_recursion_count(sig, (), term, ty) == expected, term


def test_formation_rule_call_counts(sig):
    from ott.checker import _type_case_recursion_count

    assert _type_case_recursion_count(sig, (), Pi(A, A)) == 2
    assert _type_case_recursion_count(sig, (), Id(A, a, a)) == 3
    assert _type_case_recursion_count(sig, (), NatTy) == 0
    assert _type_case_recursion_count(sig, (), A) == 0


# determinism and reports -----------------------------------------------------------


def test_steps_deterministic(sig):
    j = HasType((), NatRec(NatTy, Zero, Succ(Var(0)), _nat(4)), NatTy)
    s1 = check(sig, j).steps
    s2 = check(sig, j).steps
    assert s1 == s2


def test_report_record_shape(sig):
    record = check(sig, HasType((), Zero, NatTy)).to_record()
    assert set(record) == {"verdict", "reason", "locus", "steps", "nanoseconds"}


def test_verdict_accept_iff_derivable_random(sig, rng):
    gen = Generator(sig, rng)
    for _ in range(200):
        ctx, term, ty = gen.random_judgement()
        assert check(sig, HasType(ctx, term, ty)).ok


# no reduction anywhere ---------------------------------------------------------------


def test_no_normalization_machinery():
    import inspect

    import ott.checker as checker_mod

    source = inspect.getsource(checker_mod)
    for word in ("normalize", "whnf", "reduce", "evaluate"):
        assert word not in source


def test_computationally_equal_but_distinct_terms_reject_fast(sig):
    # 2+2 and 4 as recursor expressions: equal after computation, distinct
    # syntactically, so the identity introduction rejects without computing
    two_plus_two = NatRec(NatTy, _nat(2), Succ(Var(0)), _nat(2))
    four = _nat(4)
    judgement = HasType((), Refl(NatTy, two_plus_two),
                        Id(NatTy, two_plus_two, four))
    report = check(sig, judgement)
    assert not report.ok
    assert report.reason == "refl type mismatch"


def test_quadratic_step_bound_with_one_fixed_constant(sig, rng):
    """steps(check(j)) <= C * size(j)^2 + C across the whole random suite,
    for the single constant C = 2 (measured worst ratio is 0.6, on the
    smallest judgements)."""
    from ott.terms import size as tsize

    C = 2
    gen = Generator(sig, rng)

    def within(j):
        n = sum(tsize(e) for e in j.ctx) + tsize(j.term) + tsize(j.ty)
        report = check(sig, j)
        assert report.steps <= C * n * n + C, (j, report.steps, n)

    for _ in range(500):
        ctx, term, ty = gen.random_judgement()
        within(HasType(ctx, term, ty))
        for mutant in mutations(ty):
            within(HasType(ctx, term, mutant))


def test_check_is_total_on_raw_syntax(sig):
    """Any well-arity tree in any position yields a verdict, never a crash."""
    import itertools

    from ott.oracle import all_terms

    universe = all_terms(3)
    pool = [t for n in (1, 2, 3) for t in universe[n]]
    sample = pool[:: max(1, len(pool) // 400)]
    for t1, t2 in itertools.islice(itertools.product(sample, sample), 4000):
        report = check(sig, HasType((), t1, t2))
        assert report.verdict in ("accept", "reject")


def test_concurrent_checks_share_a_signature(sig):
    """Checks are pure over immutable inputs: many threads, one signature,
    deterministic reports."""
    from concurrent.futures import ThreadPoolExecutor

    gen = Generator(sig, random.Random(99))
    jobs = [HasType(*gen.random_judgement()) for _ in range(120)]
    expected = [(check(sig, j).verdict, check(sig, j).steps) for j in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda j: (check(sig, j).verdict, check(sig, j).steps), jobs
        ))
    assert results == expected
