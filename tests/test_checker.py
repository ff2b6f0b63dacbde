import random

from ott.checker import (
    _TERM, CtxtWF, HasType, InferFailure, TypeWF, _cons_ctx, _run,
    _seed_judgement, check, check_ctxt, infer,
)
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatConvSucc, NatConvZero,
    NatRec, NatTy, Pi, Refl, Signature, Succ, Var, Zero, syntactic_equal,
)
from ott.kernel import APP, CLO, CONST, NAT, SUCC, VAR
from ott.subst import shift, subst
from ott.testing import Generator, mutations, premise_count

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


def test_negative_index_rejected(sig):
    report = check(sig, HasType((A,), Var(-1), A))
    assert not report.ok
    assert (report.reason, report.locus) == ("unbound variable", ("term",))


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
    # the term stage alone, under the promise that the type is fine
    ok, reason, _, _ = _run(sig, [(_TERM, _cons_ctx(()), term, Id(A, Zero, Zero), None)])
    assert not ok


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
        assert premise_count(sig, (), term, ty) == expected, term


def test_formation_rule_call_counts(sig):
    assert premise_count(sig, (), Pi(A, A)) == 2
    assert premise_count(sig, (), Id(A, a, a)) == 3
    assert premise_count(sig, (), NatTy) == 0
    assert premise_count(sig, (), A) == 0


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


# step fingerprint ----------------------------------------------------------------
#
# The exact (verdict, reason, locus, steps) of a fixed set of judgements,
# recorded before leaf comparisons and substitutions were decided inline in
# ``_run``.  Step counts are the checker's behavioural fingerprint: a kernel
# change that moves one of them must say why, here and in CHANGES.md.

B = Const("B")
c = Const("c")
_TWO = _nat(2)
_DOUBLE = NatRec(NatTy, _TWO, Succ(Var(0)), Var(0))  # step case: ih + 2


def _tower(ks, base):
    # a closed sum of small numerals over ``base``
    t = base
    for k in ks:
        t = NatRec(NatTy, _nat(k), Succ(Var(0)), t)
    return t


def _fingerprint_signature():
    return (
        Signature().with_type("A").with_type("B")
        .with_const("c", A).with_const("n", NatTy)
        .with_const("f", Pi(A, A))
    )


def _fingerprint_cases():
    """Name -> judgement, checked under ``_fingerprint_signature()``."""
    from ott.bench import FAMILIES, BenchConfig, generate_family

    cases = {}
    for family in FAMILIES:
        ((_, j),) = generate_family(BenchConfig(family, sizes=(2 ** 12,)))
        cases[family] = j
    huge = _TWO
    for _ in range(40):
        huge = NatRec(NatTy, Zero, _DOUBLE, huge)
    sums = [1 + (7 * i) % 3 for i in range(70)]
    cases["huge-refl"] = HasType(
        (), Refl(NatTy, huge), Id(NatTy, huge, _tower(sums, _TWO)))
    cases["huge-nat"] = HasType((), huge, NatTy)
    left, right = _tower(sums, _TWO), _tower(sums, _nat(3))
    cases["last-node"] = HasType((), Refl(NatTy, left), Id(NatTy, left, right))
    ctx = tuple(A if k % 3 else NatTy for k in range(200))
    far = 197  # ctx[2], at type A
    cases["deep-context"] = HasType(ctx, Refl(A, Var(far)), Id(A, Var(far), Var(far)))
    lam = Lambda(A, A, Var(0))
    motive = Id(A, Var(2), Var(1))
    base = Refl(A, Var(0))
    rec = IdRec(A, motive, c, c, Refl(A, c), base)
    step = Succ(Var(0))
    rejections = {
        "not a type": HasType((), c, c),
        "unbound variable": HasType((A, NatTy), Var(2), A),
        "variable type mismatch": HasType((A,), Var(0), NatTy),
        "not a term constant": HasType((), A, A),
        "constant type mismatch": HasType((), c, B),
        "lambda against non-matching type": HasType((), lam, Pi(A, B)),
        "application result mismatch": HasType((), App(A, A, lam, c), B),
        "betaconv type mismatch": HasType(
            (), BetaConv(A, A, c, Var(0)), Id(A, c, c)),
        "refl type mismatch": HasType((A,), Refl(A, c), Id(A, c, Var(0))),
        "idrec result mismatch": HasType((), rec, NatTy),
        "idconv type mismatch": HasType(
            (), IdConv(A, motive, c, base), Id(Id(A, c, c), rec, rec)),
        "zero against non-Nat type": HasType((), Zero, A),
        "succ against non-Nat type": HasType((), Succ(Zero), A),
        "natrec result mismatch": HasType((), NatRec(NatTy, Zero, step, Zero), A),
        "natconv_zero type mismatch": HasType(
            (), NatConvZero(NatTy, Zero, step), Id(NatTy, Zero, Zero)),
        "natconv_succ type mismatch": HasType(
            (), NatConvSucc(NatTy, Zero, step, Zero), Id(NatTy, Zero, Zero)),
        "no term-level rule for this constructor": HasType((), NatTy, NatTy),
    }
    for reason, j in rejections.items():
        cases["reject: " + reason] = j
    # the leaf paths of the closure rules, accepted, and a closed-leaf
    # motive under both eliminators
    cases["leaf: var"] = HasType((NatTy, A), Var(1), NatTy)
    cases["leaf: app, unbound head"] = HasType((), App(A, A, Var(0), c), A)
    cases["leaf: app under f"] = HasType((), App(A, A, Const("f"), c), A)
    cases["leaf: idrec"] = HasType((), IdRec(A, NatTy, c, c, Refl(A, c), Zero), NatTy)
    cases["leaf: natrec"] = HasType((), NatRec(A, c, Var(0), Const("n")), A)
    return cases


FINGERPRINT = {
    'app-chain': ('accept', None, None, 5853),
    'lambda-chain': ('accept', None, None, 4157),
    'idrec-tower': ('accept', None, None, 11917),
    'conv-heavy': ('accept', None, None, 8197),
    'huge-refl': ('reject', 'refl type mismatch', ('term',), 2471),
    'huge-nat': ('accept', None, None, 967),
    'last-node': ('reject', 'refl type mismatch', ('term',), 3099),
    'deep-context': ('accept', None, None, 804),
    'reject: not a type': ('reject', 'not a type', ('type',), 1),
    'reject: unbound variable': ('reject', 'unbound variable', ('term',), 6),
    'reject: variable type mismatch': ('reject', 'variable type mismatch', ('term',), 4),
    'reject: not a term constant': ('reject', 'not a term constant', ('term',), 2),
    'reject: constant type mismatch': ('reject', 'constant type mismatch', ('term',), 3),
    'reject: lambda against non-matching type': ('reject', 'lambda against non-matching type', ('term',), 7),
    'reject: application result mismatch': ('reject', 'application result mismatch', ('term',), 3),
    'reject: betaconv type mismatch': ('reject', 'betaconv type mismatch', ('term',), 10),
    'reject: refl type mismatch': ('reject', 'refl type mismatch', ('term',), 12),
    'reject: idrec result mismatch': ('reject', 'idrec result mismatch', ('term',), 3),
    'reject: idconv type mismatch': ('reject', 'idconv type mismatch', ('term',), 106),
    'reject: zero against non-Nat type': ('reject', 'zero against non-Nat type', ('term',), 3),
    'reject: succ against non-Nat type': ('reject', 'succ against non-Nat type', ('term',), 3),
    'reject: natrec result mismatch': ('reject', 'natrec result mismatch', ('term',), 3),
    'reject: natconv_zero type mismatch': ('reject', 'natconv_zero type mismatch', ('term',), 10),
    'reject: natconv_succ type mismatch': ('reject', 'natconv_succ type mismatch', ('term',), 10),
    'reject: no term-level rule for this constructor': ('reject', 'no term-level rule for this constructor', ('term',), 2),
    'leaf: var': ('accept', None, None, 6),
    'leaf: app, unbound head': ('reject', 'unbound variable', ('term', 2), 6),
    'leaf: app under f': ('accept', None, None, 11),
    'leaf: idrec': ('accept', None, None, 21),
    'leaf: natrec': ('accept', None, None, 12),
}


def test_step_fingerprint_is_pinned():
    sig = _fingerprint_signature()
    cases = _fingerprint_cases()
    assert set(cases) == set(FINGERPRINT)
    reasons = {name[len("reject: "):] for name in cases if name.startswith("reject: ")}
    assert len(reasons) == 17
    for name, j in cases.items():
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus, r.steps) == FINGERPRINT[name], name


# differential: the checker loop against the one it replaced ---------------------
#
# ``reference_run`` is ``_run`` as it was when every comparison and every
# substitution was a kernel call (its test-only trace hook left out).  The
# current loop decides leaf comparisons and substitutions inline; it must
# return the same (ok, reason, locus, steps), or raise the same exception
# type, on every input, malformed ones included.  The one intended
# difference is a negative variable index, which the reference accepts.


def reference_run(sig, stack):
    from ott import kernel as _k
    from ott.checker import _TERM, _TYPE, _path
    from ott.kernel import (
        APP, BETA, CLO, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
        NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
    )

    consts = sig.constants
    atomics = sig.atomic_types
    steps = 0
    while stack:
        kind, ctx, t, target, path = stack.pop()
        steps += 1
        tag = t[0]
        if kind == _TYPE:
            if tag == PI:
                stack.append((_TYPE, (t[1], ctx), t[2], None, (1, path)))
                stack.append((_TYPE, ctx, t[1], None, (0, path)))
            elif tag == ID:
                stack.append((_TERM, ctx, t[3], t[1], (2, path)))
                stack.append((_TERM, ctx, t[2], t[1], (1, path)))
                stack.append((_TYPE, ctx, t[1], None, (0, path)))
            elif tag == NAT:
                pass
            elif tag == CONST and t[1] in atomics:
                pass
            else:
                return False, "not a type", _path(path), steps
            continue

        if tag == VAR:
            i = t[1]
            entry = ctx
            hops = 0
            while entry is not None and hops < i:
                entry = entry[1]
                hops += 1
            steps += hops
            if entry is None:
                return False, "unbound variable", _path(path), steps
            eq, c = _k.eq_lazy((CLO, entry[0], (0, (), i + 1)), target)
            steps += c
            if not eq:
                return False, "variable type mismatch", _path(path), steps
        elif tag == CONST:
            declared = consts.get(t[1])
            if declared is None:
                return False, "not a term constant", _path(path), steps
            eq, c = _k.eq_lazy(declared, target)
            steps += c
            if not eq:
                return False, "constant type mismatch", _path(path), steps
        elif tag == LAM:
            a, b, body = t[1], t[2], t[3]
            eq, c = _k.eq_lazy((PI, a, b), target)
            steps += c
            if not eq:
                return False, "lambda against non-matching type", _path(path), steps
            stack.append((_TERM, (a, ctx), body, b, (2, path)))
        elif tag == APP:
            a, b, fun, arg = t[1], t[2], t[3], t[4]
            eq, c = _k.eq_lazy((CLO, b, (0, (arg,), 0)), target)
            steps += c
            if not eq:
                return False, "application result mismatch", _path(path), steps
            stack.append((_TERM, ctx, arg, a, (3, path)))
            stack.append((_TERM, ctx, fun, (PI, a, b), (2, path)))
            stack.append((_TYPE, (a, ctx), b, None, (1, path)))
            stack.append((_TYPE, ctx, a, None, (0, path)))
        elif tag == BETA:
            a, b, arg, body = t[1], t[2], t[3], t[4]
            sub = (0, (arg,), 0)
            expected = (
                ID, (CLO, b, sub), (APP, a, b, (LAM, a, b, body), arg), (CLO, body, sub),
            )
            eq, c = _k.eq_lazy(expected, target)
            steps += c
            if not eq:
                return False, "betaconv type mismatch", _path(path), steps
        elif tag == REFL:
            a, point = t[1], t[2]
            eq, c = _k.eq_lazy((ID, a, point, point), target)
            steps += c
            if not eq:
                return False, "refl type mismatch", _path(path), steps
            stack.append((_TERM, ctx, point, a, (1, path)))
        elif tag == IDREC:
            a, p, lhs, rhs, pth, base = t[1], t[2], t[3], t[4], t[5], t[6]
            eq, c = _k.eq_lazy((CLO, p, (0, (pth, rhs, lhs), 0)), target)
            steps += c
            if not eq:
                return False, "idrec result mismatch", _path(path), steps
            a1, c1 = _k.inst(a, (), 1, 0)
            a2, c2 = _k.inst(a, (), 2, 0)
            minst, c3 = _k.inst(p, ((REFL, a1, (VAR, 0)), (VAR, 0), (VAR, 0)), 1, 0)
            steps += c1 + c2 + c3
            ctx3 = ((ID, a2, (VAR, 1), (VAR, 0)), (a1, (a, ctx)))
            stack.append((_TERM, (a, ctx), base, minst, (5, path)))
            stack.append((_TERM, ctx, pth, (ID, a, lhs, rhs), (4, path)))
            stack.append((_TERM, ctx, rhs, a, (3, path)))
            stack.append((_TERM, ctx, lhs, a, (2, path)))
            stack.append((_TYPE, ctx3, p, None, (1, path)))
            stack.append((_TYPE, ctx, a, None, (0, path)))
        elif tag == IDCONV:
            a, p, point, base = t[1], t[2], t[3], t[4]
            rfl = (REFL, a, point)
            expected = (
                ID,
                (CLO, p, (0, (rfl, point, point), 0)),
                (IDREC, a, p, point, point, rfl, base),
                (CLO, base, (0, (point,), 0)),
            )
            eq, c = _k.eq_lazy(expected, target)
            steps += c
            if not eq:
                return False, "idconv type mismatch", _path(path), steps
        elif tag == ZERO:
            eq, c = _k.eq_lazy((NAT,), target)
            steps += c
            if not eq:
                return False, "zero against non-Nat type", _path(path), steps
        elif tag == SUCC:
            eq, c = _k.eq_lazy((NAT,), target)
            steps += c
            if not eq:
                return False, "succ against non-Nat type", _path(path), steps
            stack.append((_TERM, ctx, t[1], (NAT,), (0, path)))
        elif tag == NATREC:
            p, z, s, scrut = t[1], t[2], t[3], t[4]
            eq, c = _k.eq_lazy((CLO, p, (0, (scrut,), 0)), target)
            steps += c
            if not eq:
                return False, "natrec result mismatch", _path(path), steps
            pz, c1 = _k.inst(p, ((ZERO,),), 0, 0)
            ps, c2 = _k.inst(p, ((SUCC, (VAR, 1)),), 2, 0)
            steps += c1 + c2
            stack.append((_TERM, ctx, scrut, (NAT,), (3, path)))
            stack.append((_TERM, (p, ((NAT,), ctx)), s, ps, (2, path)))
            stack.append((_TERM, ctx, z, pz, (1, path)))
            stack.append((_TYPE, ((NAT,), ctx), p, None, (0, path)))
        elif tag == NATCONVZERO:
            p, z, s = t[1], t[2], t[3]
            expected = (ID, (CLO, p, (0, ((ZERO,),), 0)), (NATREC, p, z, s, (ZERO,)), z)
            eq, c = _k.eq_lazy(expected, target)
            steps += c
            if not eq:
                return False, "natconv_zero type mismatch", _path(path), steps
        elif tag == NATCONVSUCC:
            p, z, s, m = t[1], t[2], t[3], t[4]
            expected = (
                ID,
                (CLO, p, (0, ((SUCC, m),), 0)),
                (NATREC, p, z, s, (SUCC, m)),
                (CLO, s, (0, ((NATREC, p, z, s, m), m), 0)),
            )
            eq, c = _k.eq_lazy(expected, target)
            steps += c
            if not eq:
                return False, "natconv_succ type mismatch", _path(path), steps
        else:
            return False, "no term-level rule for this constructor", _path(path), steps
    return True, None, None, steps


def _both(sig, make_stack):
    """The outcome of ``_run`` and of ``reference_run`` on fresh copies of
    one obligation stack: the 4-tuple, or the exception type raised."""
    from ott.checker import _run

    out = []
    for run in (_run, reference_run):
        try:
            out.append(run(sig, make_stack()))
        except Exception as exc:  # malformed input: compare the failure
            out.append(type(exc))
    return out


def _term_stack(ctx, term, ty):
    from ott.checker import _TERM

    return lambda: [(_TERM, _cons_ctx(ctx), term, ty, ("term", None))]


def _agree(sig, ctx, term, ty):
    new, old = _both(sig, lambda: _seed_judgement(HasType(ctx, term, ty)))
    assert new == old, (ctx, term, ty)
    # the term stage alone, so that unchecked targets reach the comparison
    new, old = _both(sig, _term_stack(ctx, term, ty))
    assert new == old, (ctx, term, ty)


def _leaf_mutants(t):
    """Each node of ``t`` replaced by each leaf of ``all_terms(1)``, and each
    variable by the next index."""
    from ott.oracle import all_terms
    from ott.testing import replace_at, subterm_paths

    leaves = all_terms(1)[1]
    for path, node in subterm_paths(t):
        for leaf in leaves:
            if leaf != node:
                yield replace_at(t, path, leaf)
        if node[0] == VAR:
            yield replace_at(t, path, Var(node[1] + 1))


def test_loop_matches_reference_on_generated_terms_and_mutants(sig):
    gen = Generator(sig, random.Random(5150))
    for _ in range(120):
        ctx, term, ty = gen.random_judgement()
        _agree(sig, ctx, term, ty)
        for m in _leaf_mutants(term):
            _agree(sig, ctx, m, ty)
        for m in _leaf_mutants(ty):
            _agree(sig, ctx, term, m)


def test_loop_matches_reference_on_leaf_comparisons():
    odd = [(CLO,), (VAR,), (CONST,), (APP,), ("x",), (NAT, Zero)]
    leaves = [A, B, NatTy, Zero, *odd]
    closures = [(CLO, x, (0, (), 0)) for x in leaves]
    closures += [(CLO, x, (0, (c,), 1)) for x in leaves] + [(CLO, NatTy), (CLO, A, ())]
    targets = [A, B, NatTy, Zero, c, Var(0), Pi(A, A), Id(A, c, c), *odd, *closures[:4], ()]
    sig = _fingerprint_signature()
    for k, declared in enumerate(leaves + closures):
        sig = sig.with_const(f"k{k}", declared)
    for k, x in enumerate(leaves + closures):
        terms = [
            (Const(f"k{k}"), ()),  # the declared type itself
            (Var(1), (x, A)),  # a context entry under a shift
            (App(A, x, Const("f"), c), ()),  # a codomain under [arg]
            (NatRec(x, Zero, Zero, Zero), ()),  # a motive under [scrut]
            (IdRec(x, x, c, c, Refl(A, c), Zero), ()),  # over and motive
            (IdRec(A, x, c, c, Refl(A, c), Zero), ()),
            (IdRec(x, NatTy, c, c, Refl(A, c), Zero), ()),
        ]
        for term, ctx in terms:
            for ty in targets:
                _agree(sig, ctx, term, ty)
    for term in (Zero, Succ(Zero), Succ(c)):
        for ty in targets:
            _agree(sig, (), term, ty)


def test_loop_matches_reference_on_malformed_probes(sig):
    # ROADMAP item 3's probes: raw tuples the public API cannot rule out yet
    app, var = (APP,), (VAR, "x")
    for bad in (app, var):
        for ctx, term, ty in (
            ((), bad, A), ((A,), bad, A), ((A,), Var(0), bad),
            ((bad,), Var(0), A), ((), Refl(A, bad), Id(A, bad, bad)),
            ((), NatRec(bad, Zero, Zero, Zero), NatTy),
            ((), App(A, bad, Lambda(A, A, Var(0)), a), A),
            # a motive or ``over`` that only substitution would trip on,
            # behind a comparison that fails first
            ((), NatRec(Pi(bad, NatTy), Zero, Zero, Zero), A),
            ((), IdRec(Pi(bad, A), NatTy, a, a, Refl(A, a), Zero), A),
            ((), IdRec(A, Pi(bad, A), a, a, Refl(A, a), Zero), A),
        ):
            new, old = _both(sig, lambda: _seed_judgement(HasType(ctx, term, ty)))
            assert new == old, (ctx, term, ty)
            new, old = _both(sig, _term_stack(ctx, term, ty))
            assert new == old, (ctx, term, ty)
    assert _both(sig, _term_stack((), app, A)) == [IndexError, IndexError]
    assert _both(sig, _term_stack((A,), var, A)) == [TypeError, TypeError]
    # a premise slot read only after the comparison: against a non-Nat
    # target the rejection comes first, against Nat the read fails
    succ = (SUCC,)
    for ctx, term, ty in (((), succ, A), ((), succ, NatTy), ((), Succ(succ), A)):
        new, old = _both(sig, lambda: _seed_judgement(HasType(ctx, term, ty)))
        assert new == old, (ctx, term, ty)
    assert _both(sig, _term_stack((), succ, A)) == [
        (False, "succ against non-Nat type", ("term",), 2)
    ] * 2
    assert _both(sig, _term_stack((), succ, NatTy)) == [IndexError, IndexError]


def test_negative_index_is_the_one_intended_difference(sig):
    new, old = _both(sig, _term_stack((A,), Var(-1), A))
    assert old == (True, None, None, 2)
    assert new == (False, "unbound variable", ("term",), 1)
