import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ott.checker
from ott.checker import (
    _TERM, _TYPE, CtxtWF, HasType, InferFailure, TypeWF, _certificates,
    _certified_prefix, _cons_ctx, _decide, _live, _run, _seed_judgement,
    certify, check, infer, instantiate,
)
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatConvSucc, NatConvZero,
    NatRec, NatTy, Pi, Refl, Signature, Succ, Var, Zero, size, syntactic_equal,
)
from ott import kernel as _k
from ott.kernel import APP, CLO, CONST, NAT, SUCC, VAR, inst
from ott.subst import shift, subst

from generators import (
    Generator, default_signature, fresh_copy, mutations, premise_count,
)

A = Const("A")
a = Const("a")


def _nat(n, t=Zero):
    for _ in range(n):
        t = Succ(t)
    return t


# context checking -------------------------------------------------------------


def test_empty_context_accepts(sig):
    assert check(sig, CtxtWF(())).ok


def test_singleton_context_accepts(sig):
    assert check(sig, CtxtWF((A,))).ok


def test_context_rejects_bad_entry_with_index(sig):
    report = check(sig, CtxtWF((Id(A, Const("missing"), Const("missing")),)))
    assert not report.ok
    assert report.locus[0] == ("ctx", 0)


def test_context_entry_may_use_earlier_entries(sig):
    ctx = (A, Id(shift(A, 1), Var(0), Var(0)))
    assert check(sig, CtxtWF(ctx)).ok


def test_context_entry_cannot_see_later_entries(sig):
    ctx = (Id(shift(A, 1), Var(0), Var(0)), A)
    assert not check(sig, CtxtWF(ctx)).ok


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
        kind, prefix, entry, _, slot = stack[len(stack) - 1 - i]
        assert slot == ("ctx", i) and entry is ctx[i]
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
    ok, reason, _, _ = _run(sig, [(_TERM, _cons_ctx(()), term, Id(A, Zero, Zero), "term")])
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
# ``FINGERPRINT`` pins each case's unshared copy, in which no comparison
# meets one object on both sides; ``SHARED`` pins the cases as built, where
# a subterm shared by the two sides of a comparison is decided in one step.

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


# The cases as built that share a subterm across a comparison: conv-heavy's
# scrutinee, met twice on both sides; huge-refl's ``huge``, which its
# reflexivity compares with itself; last-node's ``left``, before the real
# mismatch; and idconv's ``rec``, shared by the stated type's two sides.
SHARED = {
    'conv-heavy': ('accept', None, None, 5479),
    'huge-refl': ('reject', 'refl type mismatch', ('term',), 2029),
    'last-node': ('reject', 'refl type mismatch', ('term',), 2608),
    'reject: idconv type mismatch': ('reject', 'idconv type mismatch', ('term',), 101),
}


def test_step_fingerprint_is_pinned():
    sig = _fingerprint_signature()
    cases = _fingerprint_cases()
    assert set(cases) == set(FINGERPRINT) >= set(SHARED)
    reasons = {name[len("reject: "):] for name in cases if name.startswith("reject: ")}
    assert len(reasons) == 17
    for name, j in cases.items():
        r = check(sig, _copy(j))
        assert (r.verdict, r.reason, r.locus, r.steps) == FINGERPRINT[name], name
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus, r.steps) == SHARED.get(
            name, FINGERPRINT[name]), name


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_sharing_moves_no_verdict_and_adds_no_step(rng):
    """A judgement and its unshared copy, in which every node is a new
    object, get the same (verdict, reason, locus), and the judgement as
    built takes at most the copy's steps: a pair of one object is decided in
    one step where the copy walks it.  The cases are a generated judgement,
    its single-node mutants of term and type, which share every untouched
    subterm with it, and reflexivity at its term against an equation whose
    right side is the term or a mutant, so that both sides of a comparison
    hold the term's objects."""
    sig = default_signature()
    gen = Generator(sig, rng)
    ctx, term, ty = gen.random_judgement()
    cases = [HasType(ctx, term, ty)]
    cases += [HasType(ctx, m, ty) for m in mutations(term)]
    cases += [HasType(ctx, term, m) for m in mutations(ty)]
    cases += [HasType(ctx, Refl(ty, term), Id(ty, term, m))
              for m in [term, *mutations(term)]]
    for j in cases:
        shared, copied = check(sig, j), check(sig, _copy(j))
        assert (shared.verdict, shared.reason, shared.locus) == (
            copied.verdict, copied.reason, copied.locus), j
        assert shared.steps <= copied.steps, j


def test_step_fingerprint_is_pinned_with_live_certificates(sig):
    """Certificates on other term objects change no step: an obligation only
    looks its own subject up."""
    gen = Generator(sig, random.Random(31))
    held = []
    for _ in range(40):
        j = HasType(*gen.random_judgement())
        held += _certify_obligations(sig, j, random.Random(7), 1.0)
    assert held and ott.checker._certificates
    test_step_fingerprint_is_pinned()


# differential: the checker loop against the one it replaced ---------------------
#
# ``reference_run`` is ``_run`` as it was when every comparison and every
# substitution was a kernel call (its test-only trace hook left out), and
# every obligation carried its path as a cons list.  The current loop decides
# leaf comparisons and substitutions inline and returns the failing slot,
# which ``_decide`` turns into a path; together they must give the same
# (ok, reason, locus, steps), or raise the same exception type, on every
# input, malformed ones included.  The one intended difference is a negative
# variable index, which the reference accepts.


def _path(p) -> tuple:
    out = []
    while p is not None:
        out.append(p[0])
        p = p[1]
    out.reverse()
    return tuple(out)


def reference_run(sig, seeds):
    """The reference loop on a stack of seeds in ``_run``'s layout."""
    from ott import kernel as _k
    from ott.checker import _TERM, _TYPE
    from ott.kernel import (
        APP, BETA, CLO, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
        NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
    )

    consts = sig.constants
    atomics = sig.atomic_types
    stack = [(kind, ctx, t, target, (slot, None)) for kind, ctx, t, target, slot in seeds]
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
    """The outcome of ``_decide`` and of ``reference_run`` on
    fresh copies of one obligation stack: the 4-tuple, or the exception type
    raised."""
    out = []
    for run in (_decide, reference_run):
        try:
            out.append(run(sig, make_stack()))
        except Exception as exc:  # malformed input: compare the failure
            out.append(type(exc))
    return out


def _term_stack(ctx, term, ty):
    return lambda: [(_TERM, _cons_ctx(ctx), term, ty, "term")]


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
    from generators import replace_at, subterm_paths

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


# numerals ------------------------------------------------------------------------
#
# ``_run`` takes a successor's uncertified successor premises in place, since
# each is the next obligation it would pop; the reference pushes and pops
# every one.  They must agree on every numeral, whatever ends its chain.


def test_a_numeral_walk_matches_the_reference(sig):
    sig = sig.with_const("c", A)
    c = Const("c")
    cases = [
        ((), _nat(10 ** 5), NatTy),
        ((), _nat(1000, c), NatTy),
        ((), _nat(50), A),
        ((), _nat(50), Succ(Zero)),
        ((A,), _nat(50, Var(0)), NatTy),
        ((NatTy,), _nat(50, Var(0)), NatTy),
        ((), NatRec(NatTy, Zero, Succ(Var(0)), _nat(1000)), NatTy),
        ((), NatRec(NatTy, Zero, Succ(Var(0)), _nat(1000, c)), NatTy),
    ]
    for ctx, term, ty in cases:
        _agree(sig, ctx, term, ty)
    r = check(sig, HasType((), _nat(1000, c), NatTy))
    assert (r.reason, r.locus, r.steps) == (
        "constant type mismatch", ("term",) + (0,) * 1000, 2003)


def test_a_numeral_walk_stops_at_a_certified_node(sig):
    """700 successors over a certified 300-successor numeral: the type
    stage's step, 2 per successor and the discharge of the certified node,
    an obligation and one comparison.  Under another signature the node is
    looked up and checked by its rule, as every successor below it."""
    inner = _nat(300)
    j = HasType((), _nat(700, inner), NatTy)
    _, held = certify(sig, HasType((), inner, NatTy))
    assert held is not None
    assert check(sig, j).steps == 1 + 2 * 700 + 2
    other = Signature().with_type("A").with_const("a", A)
    assert check(other, j).steps == 1 + 2 * 1000 + 2
    del held
    gc.collect()
    assert check(sig, j).steps == 1 + 2 * 1000 + 2


def test_a_live_certificate_leaves_a_malformed_head_to_its_rule(sig):
    """A head that is not an int tag is compared only by equality, so it
    meets the rejection it meets with no certificate live."""
    probes = [HasType((), ("x",), A), HasType((), (None,), A), TypeWF((), ("x",))]
    want = [("reject", "no term-level rule for this constructor", ("term",))] * 2
    want.append(("reject", "not a type", ("type",)))
    assert [(r.verdict, r.reason, r.locus) for r in (check(sig, j) for j in probes)] == want
    _, held = certify(sig, HasType((A,), Refl(A, Var(0)), Id(A, Var(0), Var(0))))
    assert held is not None and _certificates
    assert [(r.verdict, r.reason, r.locus) for r in (check(sig, j) for j in probes)] == want
    del held


# loci below a stage's root ---------------------------------------------------------
#
# A rejection below a stage's root gets its locus from a second run of that
# stage alone.  Each of these fails at depth two or more, and the public entry
# point must give the reference's (reason, locus) and the first run's steps.


def _reference(sig, seeds):
    ok, reason, locus, steps = reference_run(sig, seeds)
    assert not ok
    return reason, locus, steps


def test_locus_in_a_later_context_entry(sig):
    j = CtxtWF((A, NatTy, Pi(A, Id(A, Var(0), Zero))))
    r = check(sig, j)
    assert (r.reason, r.locus, r.steps) == _reference(sig, _seed_judgement(j))
    assert r.locus == (("ctx", 2), 1, 2)


def test_locus_inside_a_pi_codomain_in_the_type_stage(sig):
    j = HasType((A,), a, Pi(A, Pi(A, Id(A, Var(1), Zero))))
    r = check(sig, j)
    assert (r.reason, r.locus, r.steps) == _reference(sig, _seed_judgement(j))
    assert r.locus == ("type", 1, 1, 2)


def test_locus_under_a_binder_in_the_term_stage(sig):
    j = HasType((A, NatTy), Lambda(A, NatTy, Succ(Succ(Var(0)))), Pi(A, NatTy))
    r = check(sig, j)
    assert (r.reason, r.locus, r.steps) == _reference(sig, _seed_judgement(j))
    assert r.locus == ("term", 2, 0, 0)


def test_locus_in_an_idrec_base_under_an_unwritten_motive(sig):
    # x : A, y : A, e : Id(A, x, y) |- Pi(A, Id(A, x, y)) type, certified,
    # so the base's target stays a closure until it is compared
    ctx3 = (A, A, Id(A, Var(1), Var(0)))
    motive = Pi(A, Id(A, Var(3), Var(2)))
    _, held = certify(sig, TypeWF(ctx3, motive))
    assert _live(_certificates, sig, motive, TypeWF) is held
    base = Lambda(A, Id(A, Var(1), Var(1)), Refl(A, Zero))
    j = HasType((), IdRec(A, motive, a, a, Refl(A, a), base), Pi(A, Id(A, a, a)))
    r = check(sig, j)
    assert (r.reason, r.locus) == _reference(sig, _seed_judgement(j))[:2]
    assert r.locus == ("term", 5, 2)
    good = IdRec(A, motive, a, a, Refl(A, a), Lambda(A, Id(A, Var(1), Var(1)), Refl(A, Var(1))))
    assert check(sig, HasType((), good, Pi(A, Id(A, a, a)))).ok
    del held


def test_locus_in_the_second_run_of_infer(sig):
    ctx = (A,)
    term = Lambda(A, NatTy, Succ(Succ(Var(0))))
    c = _cons_ctx(ctx)
    ok, _, ty, _ = _run(sig, [(_TERM, c, term, None, "term")])
    assert ok and ty == Pi(A, NatTy)
    want = _reference(sig, [(_TERM, c, term, ty, "term"),
                            (_TYPE, c, ty, None, "type")])
    with pytest.raises(InferFailure) as err:
        infer(sig, ctx, term)
    assert (err.value.reason, err.value.locus) == want[:2]
    assert err.value.locus == ("term", 2, 0, 0)


def test_locus_in_the_component_of_instantiate(sig):
    _, fam = certify(sig, TypeWF((NatTy,), Id(NatTy, Var(0), Var(0))))
    assert fam is not None
    ctx, s = (A,), Succ(Succ(Var(0)))
    report, out, cert = instantiate(fam, ctx, s)
    assert out is None and cert is None
    want = _reference(sig, [(_TERM, _cons_ctx(ctx), s, NatTy, "component")])
    assert (report.reason, report.locus) == want[:2]
    assert report.locus == ("component", 0, 0)


def test_a_deep_rejection_gets_its_whole_locus(sig):
    n = 10 ** 5
    sig = sig.with_const("c", A)
    t = c
    for _ in range(n):
        t = Succ(t)
    r = check(sig, HasType((), t, NatTy))
    assert r.reason == "constant type mismatch"
    assert len(r.locus) == n + 1
    assert r.locus == ("term",) + (0,) * n


def test_a_locus_costs_one_rerun_of_the_failing_stage_only(sig, monkeypatch):
    """An accepted judgement and a rejection at a stage's root run once; a
    deeper rejection runs again, seeded with only the failing stage's seed,
    and the report's steps are the first run's."""
    calls = []
    real = ott.checker._run

    def recorded(sig, stack):
        seeds = list(stack)
        out = real(sig, stack)
        calls.append((stack, seeds, out))
        return out

    monkeypatch.setattr(ott.checker, "_run", recorded)
    ctx = (A, NatTy)
    for j in (HasType(ctx, Lambda(A, NatTy, Succ(Var(1))), Pi(A, NatTy)),
              CtxtWF(ctx), TypeWF(ctx, Pi(A, NatTy))):
        calls.clear()
        assert check(sig, j).ok
        assert len(calls) == 1
    calls.clear()
    r = check(sig, HasType(ctx, a, NatTy))
    assert r.locus == ("term",) and len(calls) == 1
    assert r.steps == calls[0][2][3]
    calls.clear()
    r = check(sig, HasType(ctx, Lambda(A, NatTy, Succ(Var(0))), Pi(A, NatTy)))
    assert r.locus == ("term", 2, 0) and len(calls) == 2
    (_, first, out), (stack, seeds, _) = calls
    assert isinstance(stack, ott.checker._Paths)
    assert len(seeds) == 1 and seeds[0][4] == "term" and seeds[0][2] is first[0][2]
    assert r.steps == out[3]


# certificates ----------------------------------------------------------------------
#
# A certificate lets ``_run`` discharge an obligation on its subject object by
# comparison: a term obligation with a ``HasType`` certificate, a type
# obligation with a ``TypeWF`` one, which ``certify`` or ``instantiate``
# issues.  Whatever certificates are live, every (verdict, reason, locus)
# must be what the rules alone give, within the same quadratic bound.


class _Popped(list):
    """An obligation stack that keeps every obligation it hands out."""

    def __init__(self, items):
        super().__init__(items)
        self.popped: list = []

    def pop(self, *args):
        item = super().pop(*args)
        self.popped.append(item)
        return item


def _entries(ctx) -> tuple:
    out = []
    while ctx is not None:
        out.append(ctx[0])
        ctx = ctx[1]
    return tuple(reversed(out))


def _certify_obligations(sig, j, rng, share):
    """Certify about ``share`` of the term and type obligations that
    checking ``j`` hands out, each as a judgement of its own; returns the
    certificates."""
    stack = _Popped(_seed_judgement(j))
    _run(sig, stack)
    held = []
    for kind, ctx, t, target, _ in stack.popped:
        if rng.random() < share:
            ctx = _entries(ctx)
            sub = HasType(ctx, t, target) if kind == _TERM else TypeWF(ctx, t)
            report, cert = certify(sig, sub)
            if cert is not None:
                held.append(cert)
    return held


def _over(ctx):
    """A judgement over ``ctx`` whose term is not a leaf, so ``certify``
    certifies it wherever ``ctx`` is well-formed."""
    return HasType(ctx, Refl(NatTy, Zero), Id(NatTy, Zero, Zero))


def _leaves_over(ctx):
    """Judgements on leaf terms over ``ctx``, which ``certify`` certifies
    by their context alone wherever ``ctx`` is well-formed and has entries:
    zero, and the innermost variable at its entry."""
    return [HasType(ctx, Zero, NatTy), HasType(ctx, Var(0), shift(ctx[-1], 1))]


def _certify_prefixes(sig, ctx, rng, share):
    """Certify a judgement over about ``share`` of the prefixes of ``ctx``
    (the same entry objects in a new tuple), on a leaf term or on one that
    is not; returns the certificates."""
    held = []
    for m in range(1, len(ctx) + 1):
        if rng.random() < share:
            prefix = ctx[:m]
            _, cert = certify(sig, rng.choice([_over(prefix)] + _leaves_over(prefix)))
            if cert is not None:
                held.append(cert)
    return held


def _copy(j):
    """An equal judgement that shares no object with ``j``, so no
    certificate applies to it."""
    if isinstance(j, HasType):
        return HasType(fresh_copy(j.ctx), fresh_copy(j.term), fresh_copy(j.ty))
    if isinstance(j, CtxtWF):
        return CtxtWF(fresh_copy(j.ctx))
    return TypeWF(fresh_copy(j.ctx), fresh_copy(j.ty))


def _by_rules(sig, j):
    """(verdict, reason, locus) of ``j`` by the rules alone."""
    r = check(sig, _copy(j))
    return r.verdict, r.reason, r.locus


def _inferred(sig, ctx, term):
    """("type", T) if ``infer`` returns T, else ("reject", reason, locus)."""
    try:
        return "type", infer(sig, ctx, term)
    except InferFailure as err:
        return "reject", err.reason, err.locus


def _random_family(sig, gen, rng):
    """A family over a generated context, certified: (its certificate,
    delta, the type of its variable), or None when the generator finds no
    family large enough to be certified."""
    delta = gen.random_context(rng.randrange(0, 3))
    over = gen.random_type(delta, 4)
    family = gen.random_type(delta + (over,), 8)
    _, fam = certify(sig, TypeWF(delta + (over,), family))
    return None if fam is None else (fam, delta, over)


def _component(gen, delta, over, ctx):
    """A generated component for a family over ``delta`` at ``ctx``, or
    None."""
    return gen.random_term(ctx, shift(over, len(ctx) - len(delta)), 4)


def _random_instance(gen, rng, fam, delta, over):
    """A component the generator finds for a certified family over its
    context with up to two more entries, and what ``instantiate`` makes of
    them: (held certificates, context, instance), or None when the
    generator finds no component."""
    ctx = delta
    for _ in range(rng.randrange(0, 3)):
        ctx = ctx + (gen.random_type(ctx, 3),)
    k = len(ctx) - len(delta)
    s = _component(gen, delta, over, ctx)
    if s is None:
        return None
    report, out, cert = instantiate(fam, ctx, s)
    assert report.ok and syntactic_equal(out, inst(fam.judgement.ty, (s,), k, 0)[0])
    assert (cert is None) == (size(out) <= len(ctx) + 1)
    return [cert], ctx, out


def _instance_comparisons(gen, rng, fam, delta, over):
    """Judgements whose rule compares an instance of a certified family
    under an environment against another instance of it: a variable whose
    entry is one, at a type that is one (the entry under a shift), and an
    application whose codomain is one, at a type that is one (the codomain
    under the argument).  Each second instance is at the component that
    makes the two equal, or at a generated one, or is the first instance
    itself, whose outer variables then differ.  Returns (held
    certificates, judgements)."""
    held, cases = [], []

    def instance(ctx, s):
        report, out, cert = instantiate(fam, ctx, s)
        assert report.ok
        held.append(cert)
        return out

    ctx = delta
    for _ in range(rng.randrange(0, 2)):
        ctx = ctx + (gen.random_type(ctx, 3),)
    s = _component(gen, delta, over, ctx)
    if s is not None:
        outer = ctx + (instance(ctx, s),)
        for _ in range(rng.randrange(0, 2)):
            outer = outer + (gen.random_type(outer, 3),)
        m = len(outer) - len(ctx) - 1
        for s2 in (shift(s, m + 1), _component(gen, delta, over, outer)):
            if s2 is not None:
                cases.append(HasType(outer, Var(m), instance(outer, s2)))
        cases.append(HasType(outer, Var(m), outer[len(ctx)]))
    dom = shift(over, len(ctx) - len(delta))
    s = Var(0) if rng.random() < 0.5 else _component(gen, delta, over, ctx + (dom,))
    arg = gen.random_term(ctx, dom, 4)
    if s is not None and arg is not None:
        cod = instance(ctx + (dom,), s)
        fun = gen.random_term(ctx, Pi(dom, cod), 4)
        if fun is not None:
            app = App(dom, cod, fun, arg)
            for s2 in (subst(s, arg), _component(gen, delta, over, ctx)):
                if s2 is not None:
                    cases.append(HasType(ctx, app, instance(ctx, s2)))
            cases.append(HasType(ctx, app, cod))
    return held, cases


def _instance_cases(gen, ctx, instance):
    """Judgements on a certified instance: as a type at its own context,
    at a context with one entry more or less on the outside, at one with an
    entry replaced, and as the type of generated terms and their mutants;
    and the instance as a term of itself."""
    cases = [TypeWF(ctx, instance), TypeWF((NatTy,) + ctx, instance),
             HasType(ctx, instance, instance)]
    if ctx:
        cases.append(TypeWF(ctx[1:], instance))
        i = gen.rng.randrange(len(ctx))
        for m in list(mutations(ctx[i]))[:4]:
            cases.append(TypeWF(ctx[:i] + (m,) + ctx[i + 1:], instance))
    term = gen.random_term(ctx, instance, 4)
    if term is not None:
        cases.append(HasType(ctx, term, instance))
        cases += [HasType(ctx, m, instance) for m in list(mutations(term))[:6]]
    return cases


def _size(j):
    n = sum(size(e) for e in j.ctx) + size(j.ty)
    return n + size(j.term) if isinstance(j, HasType) else n


@settings(max_examples=120)
@given(st.randoms(use_true_random=False), st.floats(0.0, 1.0))
def test_certificates_never_change_a_verdict(rng, share):
    """Certificates for random accepted term and type sub-judgements of a
    generated judgement, for judgements over prefixes of the cases'
    contexts, some on leaf terms, whose certificates vouch for their
    context alone, and for instances that ``instantiate`` makes of a generated
    family.  The judgement, its single-node mutants of term,
    type and context entries, and its term and type over contexts with one
    entry replaced, added or dropped, all of which share the untouched
    subterms, judgements on an instance, and judgements that compare two
    instances of the family under an environment, must keep their
    (verdict, reason, locus) and stay within C * n^2 + C steps, C = 2;
    ``infer`` must give each term the type, or the (reason, locus), that it
    gives a copy."""
    sig = default_signature()
    gen = Generator(sig, rng)
    ctx, term, ty = gen.random_judgement()
    original = HasType(ctx, term, ty)
    cases = [original]
    cases += [HasType(ctx, m, ty) for m in mutations(term)]
    cases += [HasType(ctx, term, m) for m in mutations(ty)]
    for i, entry in enumerate(ctx):
        others = list(mutations(entry)) + [gen.random_type(ctx[:i], 4) for _ in range(4)]
        cases += [HasType(ctx[:i] + (m,) + ctx[i + 1:], term, ty) for m in others]
    # one entry more or less on the outside leaves every index in place
    cases.append(HasType((NatTy,) + ctx, term, ty))
    if ctx:
        cases.append(HasType(ctx[1:], term, ty))
    held = []
    family = _random_family(sig, gen, rng)
    if family is not None:
        held.append(family[0])
        made = _random_instance(gen, rng, *family)
        if made is not None:
            certs, instance_ctx, instance = made
            held += certs
            cases += _instance_cases(gen, instance_ctx, instance)
        certs, compared = _instance_comparisons(gen, rng, *family)
        held += certs
        cases += compared
    want = [_by_rules(sig, j) for j in cases]
    terms = [j for j in cases if isinstance(j, HasType)]
    want_inferred = [_inferred(sig, fresh_copy(j.ctx), fresh_copy(j.term)) for j in terms]
    held += _certify_obligations(sig, original, rng, share)
    # and some other cases' own accepted sub-judgements
    for j in rng.sample(cases, min(3, len(cases))):
        held += _certify_obligations(sig, j, rng, share)
    # certificates whose contexts are prefixes, entry object for entry
    # object, of the cases' contexts: of the original's, which the cases
    # with a replaced entry share up to that entry, and of the others'
    for j in [original] + rng.sample(cases, min(3, len(cases))):
        held += _certify_prefixes(sig, j.ctx, rng, share)
    for j, expected in zip(cases, want):
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus) == expected, j
        n = _size(j)
        assert r.steps <= 2 * n * n + 2, (j, r.steps, n)
    for j, inferred in zip(terms, want_inferred):
        assert _inferred(sig, j.ctx, j.term) == inferred, j
    del held


def test_a_certified_signature_cannot_be_mutated():
    """A certificate is keyed by its signature object, so after ``Refl(A,
    a)`` is certified no mutation may retype ``a``: every way the public API
    offers to change the signature raises, and the certified object keeps
    the verdict of a fresh copy."""
    B = Const("B")
    sig = Signature().with_type("A").with_type("B").with_const("a", A).with_const("b", B)
    term, ty = Refl(A, a), Id(A, a, a)
    report, cert = certify(sig, HasType((), term, ty))
    assert report.ok and cert is not None
    with pytest.raises(TypeError):
        sig.constants["a"] = B
    with pytest.raises(TypeError):
        del sig.constants["a"]
    for name in ("constants", "atomic_types"):
        with pytest.raises(AttributeError):
            setattr(sig, name, {})
        with pytest.raises(AttributeError):
            delattr(sig, name)
    assert sig.constants["a"] == A and sig.atomic_types == {"A", "B"}
    assert check(sig, HasType((), term, ty)).ok
    assert check(sig, HasType((), fresh_copy(term), ty)).ok
    del cert


def _family():
    """z : A |- Id(A, z, z) over [A], certified, and its instance at
    ``a`` over [A], which is large enough to be certified too."""
    return (A,), A, Id(A, Var(0), Var(0))


def test_instantiate_types_an_instance_by_the_substitution_lemma(sig):
    delta, over, family = _family()
    _, fam = certify(sig, TypeWF(delta + (over,), family))
    report, out, cert = instantiate(fam, delta, a)
    assert report.ok and out == Id(A, a, a)
    assert cert is not None and cert.judgement == TypeWF(delta, out)
    # the report charges one step, one per entry compared, the component's
    # obligation and comparison, and the materialized nodes; a check of the
    # instance walks its context, then compares it instead of walking the
    # instance
    assert report.steps == 1 + len(delta) + 2 + size(out)
    discharged = size(A) + 1 + len(delta)
    assert check(sig, TypeWF(delta, out)).steps == discharged
    assert check(sig, TypeWF(delta, fresh_copy(out))).steps > discharged
    # past one more entry the variables of the context are weakened, and a
    # variable component is compared with the weakened entry type
    report, out, cert = instantiate(fam, delta + (NatTy,), Var(1))
    assert report.ok and out == Id(A, Var(1), Var(1)) and cert is not None
    assert check(sig, TypeWF(delta + (NatTy,), out)).ok
    # an instance no larger than its context plus one gets no certificate
    report, out, cert = instantiate(fam, delta + (NatTy, NatTy), Var(2))
    assert report.ok and out == Id(A, Var(2), Var(2)) and cert is None


def test_instantiate_refuses_an_ill_typed_component_or_another_context(sig):
    delta, over, family = _family()
    _, fam = certify(sig, TypeWF(delta + (over,), family))
    bad = [
        (delta, Zero, "zero against non-Nat type", ("component",)),
        (delta + (NatTy,), Var(0), "variable type mismatch", ("component",)),
        (delta, Var(1), "unbound variable", ("component",)),
        ((NatTy,), a, "context does not extend the family's", (("ctx", 0),)),
        ((), a, "context does not extend the family's", (("ctx", 0),)),
    ]
    # only a judgement that passed every stage is a family: an instance
    # certificate does not show that its context's last entry is a type
    _, instance, cert = instantiate(fam, delta + (NatTy,), Var(1))
    _, term = certify(sig, HasType((A,), Refl(A, a), Id(A, a, a)))
    for other in (cert, term):
        with pytest.raises(ValueError):
            instantiate(other, (A, A), a)
    before = set(ott.checker._certificates)
    for ctx, s, reason, locus in bad:
        report, out, cert = instantiate(fam, ctx, s)
        assert (report.verdict, report.reason, report.locus) == ("reject", reason, locus)
        assert out is None and cert is None
    assert set(ott.checker._certificates) <= before


def test_instance_certified_at_an_ill_formed_context_accepts_nothing(sig):
    """An instance certificate promises what a type stage is promised: its
    context is not checked, and ``check`` checks the context first."""
    delta, over, family = _family()
    _, fam = certify(sig, TypeWF(delta + (over,), family))
    ctx = delta + (Zero,)  # zero is not a type
    report, out, cert = instantiate(fam, ctx, Var(1))
    assert report.ok and cert is not None
    for j in (TypeWF(ctx, out), HasType(ctx, Refl(A, Var(1)), out)):
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j) == (
            "reject", "not a type", (("ctx", 1),))


def test_certificates_discharge_only_their_own_kind(sig):
    """No term rule's subject has tag PI or ID, so a type object is never
    a term; a certified type is still no term of itself, and a certified
    term is still no type."""
    pi = Pi(A, Id(A, Var(0), Var(0)))
    _, as_type = certify(sig, TypeWF((A,), pi))
    assert as_type is not None
    refl = Refl(A, Var(0))
    _, as_term = certify(sig, HasType((A,), refl, Id(A, Var(0), Var(0))))
    assert as_term is not None
    for j in (HasType((A,), pi, pi), HasType((A, pi), Var(0), pi),
              HasType((A,), App(A, A, Lambda(A, A, Var(0)), pi), A),
              TypeWF((A,), refl), TypeWF((A,), Id(A, refl, refl)),
              TypeWF((A,), Pi(pi, pi))):
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j), j
    assert _inferred(sig, (A,), pi) == _inferred(sig, (A,), fresh_copy(pi))


def _chain_family(links):
    """x : A |- Id(A, chain(x), chain(x)), where chain applies the identity
    on ``A`` ``links`` times: only the applications and the root hold the
    variable, and every ``A`` and every function is closed."""
    f = Lambda(A, A, Var(0))
    t = Var(0)
    for _ in range(links):
        t = App(A, A, f, t)
    return Id(A, t, t)


def test_instantiate_charges_the_tree_size_of_an_instance_that_shares_nodes(sig):
    delta = (Id(A, a, a),)
    family = _chain_family(3)
    _, fam = certify(sig, TypeWF(delta + (A,), family))
    ctx = (Id(A, a, a), NatTy, A)  # delta's entry as another object
    report, out, cert = instantiate(fam, ctx, Var(0))
    assert report.ok and cert is not None
    assert out == inst(family, (Var(0),), 2, 0)[0]
    # only the spine is written: the function in each link is the family's
    app = out[2]
    assert app is not family[2] and app[3] is family[2][3]
    # the steps are the prefix comparison, the component's check against
    # its weakened type, and the instance's tree size, shared nodes counted
    # once per occurrence
    prefix = 1 + _k.eq_lazy(delta[0], ctx[0])[1]
    target, written = inst(A, (), 2, 0)
    ok, _, _, component = _run(sig, [(_TERM, _cons_ctx(ctx), Var(0), target, "component")])
    assert ok
    assert report.steps == prefix + written + component + size(out)


def test_an_instance_is_never_the_family_object(sig):
    """An open family's root holds its variable, so it is written; a closed
    family is written in full, as ``inst`` writes it.  So an instance is a
    new object, and the certificate indexed for it is its own, while the
    family's certificate stays indexed for the family."""
    closed = Pi(A, Id(A, Var(0), Var(0)))
    for family in (_chain_family(2), closed):
        _, fam = certify(sig, TypeWF((A, A), family))
        report, out, cert = instantiate(fam, (A, A), a)
        assert report.ok and out == inst(family, (a,), 1, 0)[0]
        assert out is not family and cert is not None
        assert _live(_certificates, sig, out, TypeWF) is cert
        assert _live(_certificates, sig, family, TypeWF) is fam
    assert out == closed and out[2] is not closed[2]


def test_a_family_builds_its_spine_once_and_drops_it_with_its_certificate(
        sig, monkeypatch):
    class Tree(list):
        """A spine's tree that a weak reference can follow."""

    built = []
    real = _k.open_spine

    def open_spine(t):
        built.append(t)
        n, tree = real(t)
        return n, Tree(tree)

    monkeypatch.setattr(_k, "open_spine", open_spine)
    family = _chain_family(2)
    _, fam = certify(sig, TypeWF((A, A), family))
    # a refused component writes nothing, so it builds no spine
    assert not instantiate(fam, (A,), Zero)[0].ok and built == []
    held = [instantiate(fam, (A,), a), instantiate(fam, (A, NatTy), Var(1))]
    assert all(report.ok for report, _, _ in held) and built == [family]
    spine = weakref.ref(fam._spine[1])
    del fam
    gc.collect()
    assert spine() is None


def _objects(t):
    """The ids of ``t``'s distinct tuple objects."""
    seen, work = set(), [t]
    while work:
        x = work.pop()
        if id(x) not in seen:
            seen.add(id(x))
            if x[0] > CONST:
                work.extend(x[1:])
    return seen


@pytest.mark.parametrize("shape", ["two 4096-link chains", "one 10^5-link chain"])
def test_an_instance_writes_its_open_nodes_and_nothing_else(sig, shape):
    """transport's family shape, two chains of seeded links, and one deep
    chain: the instance and its steps are ``inst``'s, and the only new
    objects are one per open node, the root and each application."""
    rng = random.Random(7)
    funs = (Lambda(A, A, Var(0)), Lambda(A, A, a))

    def chain(links):
        t = Var(0)
        for _ in range(links):
            t = App(A, A, rng.choice(funs), t)
        return t

    if shape == "one 10^5-link chain":
        family, open_nodes = Id(A, chain(10 ** 5), a), 10 ** 5 + 1
    else:
        family, open_nodes = Id(A, chain(4096), chain(4096)), 2 * 4096 + 1
    _, fam = certify(sig, TypeWF((A,), family))
    ctx, s = (A, NatTy), Var(1)
    report, out, _ = instantiate(fam, ctx, s)
    want, written = inst(family, (s,), len(ctx), 0)
    assert report.ok and syntactic_equal(out, want)
    # the steps: the empty prefix, the component's check against its
    # weakened type, and what inst writes
    target, c = inst(A, (), len(ctx), 0)
    ok, _, _, component = _run(sig, [(_TERM, _cons_ctx(ctx), s, target, "component")])
    assert ok and report.steps == 1 + c + component + written
    assert len(_objects(out) - _objects(family) - _objects(s)) == open_nodes


def test_dead_certificates_discharge_nothing(sig):
    delta, over, family = _family()
    report, fam = certify(sig, TypeWF(delta + (over,), family))
    full = check(sig, TypeWF(delta + (over,), fresh_copy(family))).steps
    assert check(sig, TypeWF(delta + (over,), family)).steps < full == report.steps
    _, out, cert = instantiate(fam, delta, a)
    walked = check(sig, TypeWF(delta, fresh_copy(out))).steps
    assert check(sig, TypeWF(delta, out)).steps < walked
    del fam, cert
    gc.collect()
    assert check(sig, TypeWF(delta + (over,), family)).steps == full
    assert check(sig, TypeWF(delta, out)).steps == walked


def test_a_second_certificate_takes_over_from_the_first(sig):
    """A term object certified twice keeps both certificates: once the
    first is collected, the second still discharges the term, as a whole
    judgement and as a premise; once both are, the rules run."""
    term, ty = Refl(NatTy, Zero), Id(NatTy, Zero, Zero)
    j = HasType((), term, ty)
    outer = HasType((), Refl(ty, term), Id(ty, term, term))
    held = [certify(sig, j)[1], certify(sig, j)[1]]
    assert None not in held
    discharged = check(sig, j).steps, check(sig, outer).steps
    assert discharged == (2, 18)
    del held[0]
    gc.collect()
    assert (check(sig, j).steps, check(sig, outer).steps) == discharged
    del held
    gc.collect()
    assert (check(sig, j).steps, check(sig, outer).steps) == (13, 33)


def _applied(arg):
    """``(lam(z : A) z)(arg)``, the identity applied at ``arg``."""
    return App(A, A, Lambda(A, A, Var(0)), arg)


def _instances(sig, family):
    """The certified family ``z : A |- family`` over [A], its instance
    ``x`` at ``a`` over [A], and ``y``, the instance at ``a`` over [A, x],
    which equals ``x`` weakened by one, so the variable rule compares
    ``x`` under that shift against ``y``: (held certificates, judgement,
    x, y)."""
    _, fam = certify(sig, TypeWF((A, A), family))
    _, x, x_cert = instantiate(fam, (A,), a)
    _, y, y_cert = instantiate(fam, (A, x), a)
    assert fam is not None and x_cert is not None and y_cert is not None
    return [fam, x_cert, y_cert], HasType((A, x), Var(0), y), x, y


_SHIFT = (0, (), 1)


def test_instances_of_one_family_compare_by_their_components(sig):
    """x under the shift against y is ``a`` against ``a`` and the family's
    one outer variable, Var(0) shifted against Var(1), plus one step: three
    steps where the walk takes one per node of y."""
    family = Id(A, _applied(Var(0)), Var(1))
    held, j, x, y = _instances(sig, family)
    index = ott.checker._certificates
    assert _k.eq_lazy((CLO, x, _SHIFT), y, index) == (True, 3)
    assert _k.eq_lazy((CLO, x, _SHIFT), y) == (True, size(y))
    # x under the shift against x itself: the components ``a`` match, the
    # outer variable does not (Var(1) against Var(0)), so the pair is
    # walked, to the mismatch at that variable
    walked = _k.eq_lazy((CLO, x, _SHIFT), x)
    assert walked == (False, size(x))
    assert _k.eq_lazy((CLO, x, _SHIFT), x, index) == (False, 3 + size(x))
    r = check(sig, j)
    assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j) == ("accept", None, None)
    # the family itself is its identity instance: its variable at Var(0)
    # weakened by one, against the instance at Var(1) past one more entry
    fam = held[0]
    _, z, z_cert = instantiate(fam, (A, A, family), Var(1))
    assert _k.eq_lazy((CLO, family, _SHIFT), z, index) == (True, 3)
    j = HasType((A, A, family), Var(0), z)
    assert check(sig, j).ok and check(sig, j).steps < check(sig, _copy(j)).steps
    del held, z_cert


def test_components_that_differ_where_the_family_does_not_look_fall_back(sig):
    """A family that never uses its variable has equal instances at
    different components: the components differ, so the pair is walked,
    and the answer is the walk's."""
    family = Id(A, _applied(Var(1)), Var(1))
    _, fam = certify(sig, TypeWF((A, A), family))
    _, x, x_cert = instantiate(fam, (A,), a)
    _, y, y_cert = instantiate(fam, (A, x), Var(1))
    assert syntactic_equal(y, shift(x, 1))
    walked = _k.eq_lazy((CLO, x, _SHIFT), y)
    assert walked == (True, size(y))
    # one step for the test, one for ``a`` against Var(1), then the walk
    assert _k.eq_lazy((CLO, x, _SHIFT), y, ott.checker._certificates) == (True, 2 + size(y))
    j = HasType((A, x), Var(0), y)
    r = check(sig, j)
    assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j) == ("accept", None, None)
    # a component larger than its instance gets no provenance: comparing it
    # could cost more than walking the instance
    big = _applied(_applied(a))
    _, z, z_cert = instantiate(fam, (A,), big)
    assert size(big) > size(z) and z_cert is not None and z_cert.provenance is None
    assert x_cert.provenance == (family, a, 0, 1)
    # and an outer variable that differs where the family does not look
    family = Id(A, _applied(Var(0)), Var(0))
    _, fam = certify(sig, TypeWF((A, A), family))
    _, x, x_cert = instantiate(fam, (A,), a)
    _, y, y_cert = instantiate(fam, (A, A), a)
    assert syntactic_equal(x, y)
    assert _k.eq_lazy(x, fresh_copy(y)) == (True, size(y))
    # the lambda, a closed subterm of the family that both instances share,
    # is one step instead of four
    assert _k.eq_lazy(x, y) == (True, size(y) - 3)
    assert _k.eq_lazy((CLO, x, (0, (), 0)), y, ott.checker._certificates) == (
        True, 2 + 1 + size(y))
    del fam, x_cert, y_cert


def test_equal_family_objects_share_no_provenance(sig):
    """Two instances at matching components of two equal family objects
    are walked: provenance names the family object, not its syntax."""
    family = Id(A, _applied(Var(0)), Var(1))
    other = fresh_copy(family)
    _, fam = certify(sig, TypeWF((A, A), family))
    _, fam2 = certify(sig, TypeWF((A, A), other))
    _, x, x_cert = instantiate(fam, (A,), a)
    _, y, y_cert = instantiate(fam2, (A, x), a)
    assert x_cert.provenance[0] is family and y_cert.provenance[0] is other
    index = ott.checker._certificates
    assert _k.eq_lazy((CLO, x, _SHIFT), y, index) == _k.eq_lazy((CLO, x, _SHIFT), y) == (
        True, size(y))
    j = HasType((A, x), Var(0), y)
    r = check(sig, j)
    assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j)
    del fam, fam2, x_cert, y_cert


def test_a_component_trial_makes_no_nested_trial(sig):
    """x and y are live instances of one family F at components that hold
    live instances of another family G, gx and gy, as their annotations.
    x under the shift against y is decided by F's components: one step,
    the walk of the component pair, 24 steps, and one for F's outer
    variable.  The component pair is compared without the index, so gx
    under the shift against gy is walked too; with the index it would be
    decided by G's components, in 16 steps instead of 24."""
    g = Id(A, _applied(Var(0)), Var(1))
    _, g_fam = certify(sig, TypeWF((A, A), g))
    _, gx, gx_cert = instantiate(g_fam, (A,), a)
    sx = Lambda(gx, shift(gx, 1), Var(0))
    ty = Pi(gx, shift(gx, 1))
    family = Id(shift(ty, 1), Var(0), Var(0))
    _, fam = certify(sig, TypeWF((A, ty), family))
    _, x, x_cert = instantiate(fam, (A,), sx)
    _, gy, gy_cert = instantiate(g_fam, (A, x), a)
    sy = Lambda(gy, shift(gy, 1), Var(0))
    _, y, y_cert = instantiate(fam, (A, x), sy)
    assert None not in (g_fam, gx_cert, fam, x_cert, gy_cert, y_cert)
    assert gx_cert.provenance is not None and gy_cert.provenance is not None
    index = ott.checker._certificates
    assert _k.eq_lazy((CLO, sx, _SHIFT), sy) == (True, size(sy)) == (True, 24)
    assert _k.eq_lazy((CLO, sx, _SHIFT), sy, index) == (True, 16)
    assert _k.eq_lazy((CLO, x, _SHIFT), y, index) == (True, 1 + 24 + 1)
    assert _k.eq_lazy((CLO, x, _SHIFT), y) == (True, size(y))
    j = HasType((A, x), Var(0), y)
    r = check(sig, j)
    assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j) == ("accept", None, None)
    del g_fam, gx_cert, fam, x_cert, gy_cert, y_cert


def test_dead_instance_certificate_gives_the_full_walk(sig):
    family = Id(A, _applied(Var(0)), Var(1))
    held, j, x, y = _instances(sig, family)
    index = ott.checker._certificates
    compared = check(sig, j).steps
    assert _k.eq_lazy((CLO, x, _SHIFT), y, index) == (True, 3)
    del held[2]
    gc.collect()
    assert _k.eq_lazy((CLO, x, _SHIFT), y, index) == (True, size(y))
    assert check(sig, j).steps > compared
    del held


@pytest.mark.parametrize("body", [Var(0), Refl(A, _applied(_applied(Var(1)))), a],
                         ids=["variable", "reflexivity", "constant"])
def test_base_annotation_holding_a_closure_keeps_its_verdict(sig, body):
    """The base's lambda annotation is a closure that stands for the
    family.  The comparison with the sides swapped, against the motive left
    unwritten, cannot match it, so the motive at reflexivity is written and
    compared as without the motive's certificate: the same verdict, reason
    and locus either way."""
    from ott.derived import _ctx3, transport

    ctx = (A, A, Id(A, Var(1), Var(0)))
    chain = _applied(_applied(Var(0)))
    family = Id(A, chain, chain)
    point = Refl(A, _applied(_applied(Var(2))))
    result = transport(sig, ctx, A, family, Var(2), Var(1), Var(0), point)
    fam_src, codomain, carrier, _ = result.term[1:]
    _, over, motive, lhs, rhs, path, base = carrier
    assert base[1] is family
    bad = Lambda((CLO, family, (0, (), 0)), base[2], body)
    carrier = IdRec(over, motive, lhs, rhs, path, bad)
    j = HasType(ctx, App(fam_src, codomain, carrier, point), result.stated_type)
    _, motive_cert = certify(sig, TypeWF(ctx + _ctx3((), over), motive))
    assert motive_cert is not None
    with_certificate = check(sig, j)
    del motive_cert
    gc.collect()
    without = check(sig, j)
    assert (with_certificate.verdict, with_certificate.reason, with_certificate.locus) == (
        without.verdict, without.reason, without.locus)


def test_a_closure_in_the_input_is_never_an_unwritten_motive(sig):
    """The target the IDREC rule leaves unwritten is a closure that only
    the kernel builds.  A closure the input holds, as a lambda's codomain
    or as a stated type, still never matches a target, whatever
    certificates are live."""
    lam = HasType((), Lambda(A, (CLO, A, (0, (), 0)), a), Pi(A, A))
    term, ty = Refl(A, Var(0)), Id(A, Var(0), Var(0))
    stated = HasType((A,), term, (CLO, ty, (0, (), 0)))
    want = [_by_rules(sig, j) for j in (lam, stated)]
    assert want == [("reject", "constant type mismatch", ("term", 2)),
                    ("reject", "not a type", ("type",))]
    _, cert = certify(sig, HasType((A,), term, ty))
    assert cert is not None
    for j, expected in zip((lam, stated), want):
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus) == expected
    del cert


def test_unwritten_motive_meets_a_substituted_type_written(sig):
    """A rule that states its type under a substitution, such as the
    variable rule's shift, is never compared with the sides swapped: the
    motive is written first.  Here the entry, unshifted, is the motive,
    and shifted it is not."""
    from ott.checker import _UNWRITTEN

    _, held = certify(sig, HasType((A,), Refl(A, Var(0)), Id(A, Var(0), Var(0))))
    assert held is not None
    entry = Id(A, Var(0), Var(0))
    motive = (CLO, fresh_copy(entry), (0, (), 0), _UNWRITTEN)
    obligation = (_TERM, _cons_ctx((A, entry)), Var(0), motive, "term")
    ok, reason, locus, _ = _decide(sig, [obligation])
    assert (ok, reason, locus) == (False, "variable type mismatch", ("term",))
    del held


def test_certified_judgement_is_discharged_by_comparison(sig):
    ctx = (A, Id(A, Var(0), Var(0)))
    term = Refl(A, Var(1))
    ty = Id(A, Var(1), Var(1))
    report, cert = certify(sig, HasType(ctx, term, ty))
    assert report.ok and cert is not None
    again = check(sig, HasType(ctx, term, ty))
    # one step for the judgement, one per context entry, one for the type
    assert again.ok and again.steps == len(ctx) + 2
    equal = check(sig, HasType(fresh_copy(ctx), term, fresh_copy(ty)))
    assert equal.ok
    assert equal.steps == 1 + sum(size(e) for e in ctx) + size(ty)
    full = check(sig, _copy(HasType(ctx, term, ty))).steps
    assert full > again.steps
    # a mismatch pays for its comparisons and then for the rules
    other = HasType((A, A), term, Id(A, Var(1), Var(1)))
    assert check(sig, other).steps > check(sig, HasType((A, A), fresh_copy(term), other.ty)).steps
    del cert
    assert check(sig, HasType(ctx, term, ty)).steps == full


def _context_stage(sig, ctx):
    """The steps of checking the entries of ``ctx`` by the rules."""
    return check(sig, CtxtWF(fresh_copy(ctx))).steps


# (A, z : A, e : Id(A, z, a)), whose last two entries cost more than the
# one step each of comparing them by identity
_CTX = (A, A, Id(A, Var(0), a))


def test_certified_context_is_discharged_by_identity(sig):
    """A judgement over a certified context, or one that extends it, checks
    only the entries after it; the prefix costs one step per entry."""
    ctx = _CTX
    full = check(sig, _copy(_over(ctx))).steps
    held = certify(sig, _over(ctx))[1]
    assert held is not None
    stage = _context_stage(sig, ctx)
    assert stage > len(ctx)
    # another term, or none, over the same entry objects in a new tuple
    same = ctx[:1] + ctx[1:]
    assert same is not ctx
    for j in (_over(same), CtxtWF(same), TypeWF(same, Pi(A, A))):
        by_rules = check(sig, _copy(j))
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus) == (by_rules.verdict, None, None)
        assert r.steps == by_rules.steps - stage + len(ctx)
    longer = ctx + (Id(A, Var(1), Var(2)),)
    r = check(sig, _over(longer))
    assert r.ok
    assert r.steps == check(sig, _copy(_over(longer))).steps - stage + len(ctx)
    assert _certified_prefix(sig, longer) == (len(ctx), len(ctx))
    del held
    gc.collect()
    assert check(sig, _over(ctx)).steps == full


def test_conditional_certificate_discharges_no_context(sig):
    """An ``instantiate`` certificate promises nothing about its context:
    over an ill-formed one, checks still reject at the same entry."""
    delta, over, family = _family()
    _, fam = certify(sig, TypeWF(delta + (over,), family))
    ctx = delta + (Id(A, Var(0), Zero),)  # zero is no term of A
    report, out, cert = instantiate(fam, ctx, Var(1))
    assert report.ok and cert is not None and cert.conditional
    assert _certified_prefix(sig, ctx) == (0, 0)
    for j in (CtxtWF(ctx), TypeWF(ctx, out), _over(ctx), _over(ctx + (A,))):
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j) == (
            "reject", "zero against non-Nat type", (("ctx", 1), 2))
    del fam, cert


def test_certificate_under_another_signature_discharges_no_context(sig):
    other = Signature().with_type("A").with_const("a", A)
    _, held = certify(other, _over(_CTX))
    assert held is not None
    assert _certified_prefix(other, _CTX) == (3, 3)
    assert _certified_prefix(sig, _CTX) == (0, 0)
    j = _over(_CTX)
    assert check(sig, j).steps == check(sig, _copy(j)).steps
    # with one under each, a newer one under the other signature does not
    # hide one under this signature
    _, mine = certify(sig, j)
    _, newer = certify(other, _over(_CTX))
    assert _certified_prefix(sig, _CTX) == (3, 3)
    assert _certified_prefix(other, _CTX) == (3, 3)
    del held, mine, newer


def test_equal_entries_that_are_other_objects_are_walked(sig):
    """Entries are compared by identity: an equal entry that is another
    object ends the certified prefix there, and the rest are checked by
    the rules."""
    _, held = certify(sig, _over(_CTX))
    assert held is not None
    copied = fresh_copy(_CTX)
    assert _certified_prefix(sig, copied) == (0, 0)
    assert check(sig, _over(copied)).steps == check(sig, _copy(_over(_CTX))).steps
    _, short = certify(sig, _over(_CTX[:1]))
    assert short is not None
    mixed = _CTX[:1] + fresh_copy(_CTX[1:])
    assert _certified_prefix(sig, mixed) == (1, 1)
    r = check(sig, _over(mixed))
    assert r.ok and r.steps == check(sig, _copy(_over(mixed))).steps
    del held, short


@pytest.mark.parametrize("bad, locus", [
    ((Id(A, Var(1), Zero),), (("ctx", 3), 2)),
    ((A, Var(0)), (("ctx", 4),)),
], ids=["entry-premise", "entry-root"])
def test_failure_after_a_certified_prefix_keeps_its_reason_and_locus(sig, bad, locus):
    _, held = certify(sig, _over(_CTX))
    assert held is not None
    ctx = _CTX + bad
    for j in (CtxtWF(ctx), _over(ctx), TypeWF(ctx, Pi(A, A))):
        r = check(sig, j)
        assert r.locus == locus
        assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j)
        assert r.steps < check(sig, _copy(j)).steps
    # and past a certified context, the type and term stages fail as before
    for j in (TypeWF(_CTX, Zero), HasType(_CTX, Zero, A)):
        r = check(sig, j)
        assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j)
    del held


@pytest.mark.parametrize("dropped", [0, 1])
def test_either_of_two_certificates_over_one_context_keeps_the_discharge(sig, dropped):
    held = [certify(sig, _over(_CTX))[1], certify(sig, _over(_CTX))[1]]
    assert None not in held
    j = CtxtWF(_CTX)
    assert check(sig, j).steps == len(_CTX)
    del held[dropped]
    gc.collect()
    assert check(sig, j).steps == len(_CTX)
    del held[0]
    gc.collect()
    assert check(sig, j).steps == _context_stage(sig, _CTX)


def test_kernel_indexes_are_empty_once_every_certificate_is_collected(sig):
    """Every key of the index, a subject's or a context's, goes with the
    last certificate filed under it."""
    delta, over, family = _family()
    held = [certify(sig, TypeWF(delta + (over,), family))[1],
            certify(sig, _over(_CTX))[1], certify(sig, _over(_CTX))[1]]
    held.append(instantiate(held[0], delta, a)[2])
    assert None not in held
    assert {key.__class__ for key in ott.checker._certificates} == {int, tuple}
    del held
    gc.collect()
    assert ott.checker._certificates == {}


def test_plain_check_and_infer_issue_no_certificate(sig):
    before = dict(ott.checker._certificates)
    gen = Generator(sig, random.Random(12))
    for _ in range(50):
        ctx, term, ty = gen.random_judgement()
        assert check(sig, HasType(ctx, term, ty)).ok
        infer(sig, ctx, term)
    assert ott.checker._certificates == before


def test_leaf_certificate_vouches_for_its_context_only(sig):
    """A leaf term's certificate is indexed by its context, never by its
    term: it discharges no term obligation, and later judgements over its
    context's entries skip their context stage.  Over the empty context
    none is issued, and a rejection gets none."""
    ctx = _CTX
    stage = _context_stage(sig, ctx)
    for term, ty in ((a, A), (Zero, NatTy), (Var(0), shift(ctx[-1], 1))):
        report, cert = certify(sig, HasType(ctx, term, ty))
        assert report.ok and cert is not None and not cert.conditional
        assert _live(_certificates, sig, term, HasType) is None
        # the term obligation goes through its rule: at a wrong type it
        # fails as it does by the rules, and at its own type it costs the
        # rule's steps, past the context stage the certificate spares
        for j in (HasType(ctx, term, Pi(A, A)), HasType(ctx, term, ty)):
            r = check(sig, j)
            assert (r.verdict, r.reason, r.locus) == _by_rules(sig, j)
            assert r.steps == check(sig, _copy(j)).steps - stage + len(ctx)
        assert _certified_prefix(sig, ctx + (A,)) == (len(ctx), len(ctx))
        del cert
        gc.collect()
        assert _certified_prefix(sig, ctx) == (0, 0)
    for term, ty in ((a, A), (Zero, NatTy)):
        report, cert = certify(sig, HasType((), term, ty))
        assert report.ok and cert is None
    report, cert = certify(sig, HasType((A,), Zero, A))
    assert not report.ok and cert is None
