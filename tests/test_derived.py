import gc
import random
import sys
import threading

import pytest

import ott.checker
import ott.derived
from ott.checker import HasType, TypeWF, check
from ott.derived import (
    ElabError, congruence_app, symmetry, telescope_idconv, telescope_idrec,
    telescope_pi, transitivity, transport,
)
from ott.subst import shift, subst
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatTy, Pi, Refl, Signature,
    Var, Zero, size, syntactic_equal,
)

from generators import Generator, fresh_copy

A = Const("A")
a = Const("a")


def _path_context():
    """[x : A, y : A, p : Id(A, x, y)] with handy accessors."""
    ctx = (A, A, Id(A, Var(1), Var(0)))
    return ctx, Var(2), Var(1), Var(0)


# transport ----------------------------------------------------------------


def test_transport_constant_family_keeps_type(sig):
    ctx, x, y, p = _path_context()
    result = transport(sig, ctx, A, NatTy, x, y, p, Zero)
    assert result.stated_type == NatTy


def test_transport_along_refl(sig):
    family = Id(shift(A, 1), Var(0), Var(0))
    result = transport(sig, (), A, family, a, a, Refl(A, a), Refl(A, a))
    assert syntactic_equal(result.stated_type, Id(A, a, a))


def test_transport_dependent_family(sig):
    ctx, x, y, p = _path_context()
    family = Id(shift(A, 1), Var(0), Var(0))
    result = transport(sig, ctx, A, family, x, y, p, Refl(A, x))
    assert syntactic_equal(result.stated_type, Id(A, y, y))


def test_transport_rejects_bad_point(sig):
    ctx, x, y, p = _path_context()
    with pytest.raises(ElabError):
        transport(sig, ctx, A, NatTy, x, y, p, a)


@pytest.mark.parametrize("over, family, what", [
    # a term where the base type belongs
    (a, Id(shift(A, 1), Var(0), Var(0)), "base is a type"),
    # z : A |- Id(A, z, 0) relates a term of A to a numeral
    (A, Id(shift(A, 1), Var(0), Zero), "family is a type"),
])
def test_transport_names_the_ill_formed_base_or_family(sig, over, family, what):
    ctx, x, y, p = _path_context()
    with pytest.raises(ElabError, match=f"^precondition failed: transport: {what}$"):
        transport(sig, ctx, over, family, x, y, p, Refl(A, x))


def test_transport_random_instances(sig, rng):
    gen = Generator(sig, rng)
    done = 0
    while done < 60:
        base = gen.random_context(rng.randrange(0, 2))
        over = gen.random_type(base, 3)
        ctx = base + (over, shift(over, 1), Id(shift(over, 2), Var(1), Var(0)))
        x, y, p = Var(2), Var(1), Var(0)
        family = gen.random_type(ctx + (shift(over, 3),), 4)
        point = gen.random_term(ctx, subst(family, x), 5)
        if point is None:
            continue
        result = transport(sig, ctx, shift(over, 3), family, x, y, p, point)
        assert syntactic_equal(result.stated_type, subst(family, y))
        done += 1


def test_transport_base_domain_is_the_family_itself(sig, rng):
    """The base's domain is the family at x, with x the family's own index 0:
    the substitution of Var(0) for index 0 that renumbers the rest by -1+1
    is the identity, so the family is used as it is."""
    from ott import kernel

    gen = Generator(sig, rng)
    for _ in range(200):
        base = gen.random_context(rng.randrange(0, 3))
        family = gen.random_type(base + (gen.random_type(base, 3),), 5)
        copy, _ = kernel.inst(family, (Var(0),), 1, 0)
        assert syntactic_equal(copy, family)
    ctx, x, y, p = _path_context()
    family = Id(shift(A, 1), Var(0), Var(0))
    result = transport(sig, ctx, A, family, x, y, p, Refl(A, x))
    _, _, _, carrier, _ = result.term
    lam = carrier[6]
    assert lam[1] is family
    assert syntactic_equal(result.term, App(
        Id(A, x, x), Id(shift(A, 1), shift(y, 1), shift(y, 1)),
        IdRec(A, Pi(Id(shift(A, 3), Var(2), Var(2)), Id(shift(A, 4), Var(2), Var(2))),
              x, y, p, Lambda(family, Id(shift(A, 2), Var(1), Var(1)), Var(0))),
        Refl(A, x)))


def test_transport_rechecks_in_steps_linear_in_the_family(monkeypatch):
    """Transport over x. Id(A, chain(x), chain(x)), a chain of applications
    of the identity or a constant function, at 64 and at 256 links.  The
    kernel types the family's instances from its certificate, so the point
    precondition does not walk fam[src] as a type, and the sealed recheck
    walks none of the six instances the term holds: it compares each pair
    of them by their components and leaves the motive at reflexivity
    unwritten, so it costs the same steps at both sizes."""
    sig = Signature().with_type("A").with_const("a", A).with_const("c", A)
    funs = (Lambda(A, A, Var(0)), Lambda(A, A, Const("c")))
    rng = random.Random(5)
    links = [rng.choice(funs) for _ in range(256)]
    ctx, x, y, p = _path_context()
    sealed_steps = []
    for length in (64, 256):
        def chain(v):
            for f in links[:length]:
                v = App(A, A, f, v)
            return v

        family = Id(A, chain(Var(0)), chain(Var(0)))
        seen = _kernel_checks(monkeypatch)
        result = transport(sig, ctx, A, family, x, y, p, Refl(A, chain(x)))
        assert syntactic_equal(result.stated_type, Id(A, chain(y), chain(y)))
        has_type = [(j, r) for j, r in seen if isinstance(j, HasType)]
        (point, at_point), (sealed, at_seal) = has_type[-2:]
        assert sealed.term is result.term
        # checking the point's judgement on a copy walks fam[src], at least
        # one step per node
        assert at_point.steps <= _full_steps(sig, point) - size(point.ty)
        sealed_steps.append(at_seal.steps)
        monkeypatch.undo()
    assert sealed_steps[0] == sealed_steps[1]


# symmetry / transitivity ----------------------------------------------------


def test_symmetry_of_refl(sig):
    result = symmetry(sig, (), A, a, a, Refl(A, a))
    assert syntactic_equal(result.stated_type, Id(A, a, a))


def test_symmetry_of_postulated_path(sig):
    ctx, x, y, p = _path_context()
    result = symmetry(sig, ctx, A, x, y, p)
    assert syntactic_equal(result.stated_type, Id(A, y, x))


def test_symmetry_twice_returns_to_start(sig):
    ctx, x, y, p = _path_context()
    once = symmetry(sig, ctx, A, x, y, p)
    twice = symmetry(sig, ctx, A, y, x, once.term)
    assert syntactic_equal(twice.stated_type, Id(A, x, y))


def test_transitivity_with_refl(sig):
    result = transitivity(sig, (), A, a, a, a, Refl(A, a), Refl(A, a))
    assert syntactic_equal(result.stated_type, Id(A, a, a))


def test_transitivity_of_postulated_chain(sig):
    ctx = (A, A, A, Id(A, Var(2), Var(1)), Id(A, Var(2), Var(1)))
    u, v, w = Var(4), Var(3), Var(2)
    p, q = Var(1), Var(0)
    result = transitivity(sig, ctx, A, u, v, w, p, q)
    assert syntactic_equal(result.stated_type, Id(A, u, w))


def test_transitivity_association_both_recheck(sig):
    ctx = (A, A, A, A,
           Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)))
    t0, t1, t2, t3 = Var(6), Var(5), Var(4), Var(3)
    p, q, r = Var(2), Var(1), Var(0)
    pq = transitivity(sig, ctx, A, t0, t1, t2, p, q)
    left = transitivity(sig, ctx, A, t0, t2, t3, pq.term, r)
    qr = transitivity(sig, ctx, A, t1, t2, t3, q, r)
    right = transitivity(sig, ctx, A, t0, t1, t3, p, qr.term)
    assert syntactic_equal(left.stated_type, right.stated_type)
    assert not syntactic_equal(left.term, right.term)  # no definitional collapse


# congruence ------------------------------------------------------------------


def test_congruence_with_refl_path(sig):
    fun = Lambda(A, A, Var(0))
    result = congruence_app(sig, (), A, A, fun, fun, Refl(Pi(A, A), fun), a)
    assert syntactic_equal(
        result.stated_type, Id(A, App(A, A, fun, a), App(A, A, fun, a))
    )


def test_congruence_with_postulated_path(sig):
    pi = Pi(A, A)
    ctx = (pi, pi, Id(pi, Var(1), Var(0)))
    f, g, e = Var(2), Var(1), Var(0)
    result = congruence_app(sig, ctx, A, A, f, g, e, a)
    assert syntactic_equal(
        result.stated_type, Id(A, App(A, A, f, a), App(A, A, g, a))
    )


# telescopes --------------------------------------------------------------------


def test_telescope_length_zero_is_degenerate(sig):
    product = telescope_pi(sig, (), (), A)
    assert product.pi_type == A
    assert product.lam(a).term == a
    assert product.app(a, ()).term == a
    witness = product.betaconv(a, ())
    assert witness.term == Refl(A, a)


def test_telescope_length_one_matches_primitives(sig):
    product = telescope_pi(sig, (), (A,), NatTy)
    assert product.pi_type == Pi(A, NatTy)
    assert product.lam(Zero).term == Lambda(A, NatTy, Zero)
    fun = Lambda(A, NatTy, Zero)
    assert product.app(fun, (a,)).term == App(A, NatTy, fun, a)
    assert product.betaconv(Zero, (a,)).term == BetaConv(A, NatTy, a, Zero)


def test_telescope_rejects_wrong_argument_count(sig):
    product = telescope_pi(sig, (), (A,), NatTy)
    with pytest.raises(ElabError):
        product.app(Lambda(A, NatTy, Zero), ())


def test_telescope_rejects_ill_formed_entry(sig):
    with pytest.raises(ElabError):
        telescope_pi(sig, (), (Zero,), NatTy)


@pytest.mark.parametrize("ctx, delta, body, what", [
    ((), (A, Zero), NatTy, "telescope entry 1 is a type"),
    ((), (A,), Zero, "telescope body is a type"),
    # an ill-formed outer context fails the first check
    ((Zero,), (A,), NatTy, "telescope entry 0 is a type"),
    ((Zero,), (), NatTy, "telescope body is a type"),
])
def test_telescope_names_the_ill_formed_entry_or_body(sig, ctx, delta, body, what):
    with pytest.raises(ElabError, match=f"^precondition failed: {what}$"):
        telescope_pi(sig, ctx, delta, body)


def test_telescope_dependent_length_two(sig):
    delta = (A, Id(shift(A, 1), Var(0), shift(a, 1)))
    body = Id(shift(A, 2), Var(1), Var(1))
    product = telescope_pi(sig, (), delta, body)
    lam = product.lam(Refl(shift(A, 2), Var(1)))
    args = (a, Refl(A, a))
    applied = product.app(lam.term, args)
    assert syntactic_equal(applied.stated_type, Id(A, a, a))
    witness = product.betaconv(Refl(shift(A, 2), Var(1)), args)
    assert syntactic_equal(witness.stated_type[1], Id(A, a, a))


def test_telescope_idrec_length_zero_is_primitive(sig):
    ctx, x, y, p = _path_context()
    motive = Id(shift(A, 3), Var(2), Var(1))
    base = Refl(shift(A, 1), Var(0))
    result = telescope_idrec(sig, ctx, A, (), motive, x, y, p, (), base)
    assert result.term == IdRec(A, motive, x, y, p, base)
    witness = telescope_idconv(sig, ctx, A, (), motive, x, (), base)
    assert witness.term == IdConv(A, motive, x, base)


def test_telescope_idrec_length_one(sig):
    ctx, x, y, p = _path_context()
    delta = (Id(shift(A, 3), Var(2), Var(1)),)
    motive = Id(shift(A, 4), Var(3), Var(2))
    base = Var(0)
    result = telescope_idrec(sig, ctx, A, delta, motive, x, y, p, (p,), base)
    assert syntactic_equal(result.stated_type, Id(A, x, y))
    witness = telescope_idconv(sig, ctx, A, delta, motive, x, (Refl(A, x),), base)
    assert syntactic_equal(witness.stated_type[1], Id(A, x, x))


def test_telescope_idrec_length_two(sig):
    ctx = (A, Id(shift(A, 1), Var(0), shift(a, 1)))
    x_pt, p_pt = Var(1), Var(0)
    delta = (NatTy, Id(shift(A, 4), Var(3), shift(a, 4)))
    motive = NatTy
    base = Zero
    result = telescope_idrec(
        sig, ctx, A, delta, motive, x_pt, a, p_pt, (Zero, p_pt), base
    )
    assert syntactic_equal(result.stated_type, NatTy)
    witness = telescope_idconv(
        sig, ctx, A, delta, motive, x_pt, (Zero, p_pt), base
    )
    assert syntactic_equal(witness.stated_type[1], NatTy)


def _bad_telescope_inputs():
    """One ill-typed input per telescope operation, and the precondition it
    fails.  The kernel would reject each emitted term, so without that
    precondition the operation ends in a RecheckFailure."""
    sig = Signature().with_type("A").with_const("a", A)
    ctx, x, y, p = _path_context()
    product = telescope_pi(sig, (), (A,), NatTy)
    delta = (Id(shift(A, 3), Var(2), Var(1)),)  # e : Id(A, x, y)
    motive = Id(shift(A, 4), Var(3), Var(2))  # Id(A, x, y)
    body = "body term inhabits the telescope body"
    function = "function has the telescope product type"
    return [
        # a term of A where the body is Nat
        ("lam", lambda: product.lam(a), body),
        # a constant of A where a function into Nat is expected
        ("app", lambda: product.app(a, (a,)), function),
        ("betaconv", lambda: product.betaconv(a, (a,)), body),
        # the base has type A, not Id(A, x, x)
        ("idrec base", lambda: telescope_idrec(
            sig, ctx, A, delta, motive, x, y, p, (p,), Var(2)), body),
        # p relates x to y, not y to x: the carrier is ill-typed
        ("idrec carrier", lambda: telescope_idrec(
            sig, ctx, A, (), Id(shift(A, 3), Var(2), Var(1)), y, x, p, (),
            Refl(shift(A, 1), Var(0))), function),
        ("idconv base", lambda: telescope_idconv(
            sig, ctx, A, delta, motive, x, (Refl(A, x),), Var(2)), body),
        # zero is not a point of A
        ("idconv point", lambda: telescope_idconv(
            sig, ctx, A, (), Id(shift(A, 3), Var(2), Var(1)), Zero, (),
            Refl(shift(A, 1), Var(0))), "point inhabits the base type"),
    ]


@pytest.mark.parametrize("name, call, what", _bad_telescope_inputs(),
                         ids=[case[0] for case in _bad_telescope_inputs()])
def test_telescope_operations_reject_ill_typed_input(name, call, what):
    """Ill-typed user input is a failed precondition, never a recheck
    failure."""
    with pytest.raises(ElabError, match=f"^precondition failed: {what}$"):
        call()


# rechecks ------------------------------------------------------------------------
#
# Every judgement an elaborator sends reaches ``check``.  One whose term is a
# live certified object, under the same Signature object at an equal context
# and type, is discharged by comparison: one step for the judgement, one per
# context entry and one for the type when they are the same objects, and
# ``eq_lazy``'s count where they are only equal.  Anything else is checked in
# full, which is what a check of a copy that shares no subterm costs.


def _kernel_checks(monkeypatch):
    """Wrap the ``check`` attributes the elaborators reach the kernel
    through; returns the list of (judgement, report) pairs they see."""
    seen = []
    for owner in (ott.checker, ott.derived):
        def counted(sig, judgement, inner=owner.check):
            report = inner(sig, judgement)
            seen.append((judgement, report))
            return report

        monkeypatch.setattr(owner, "check", counted)
    return seen


def _same_judgement(j, k):
    """The same term object at an equal type, or the same type object,
    at an equal context."""
    if isinstance(j, HasType):
        same = (isinstance(k, HasType) and j.term is k.term
                and syntactic_equal(j.ty, k.ty))
    else:
        same = isinstance(k, TypeWF) and j.ty is k.ty
    return (same and len(j.ctx) == len(k.ctx)
            and all(syntactic_equal(e, f) for e, f in zip(j.ctx, k.ctx)))


def _repeated(seen):
    """(judgement, report) of each HasType or TypeWF judgement that reaches
    the kernel a second time."""
    sent = [(j, r) for j, r in seen if isinstance(j, (HasType, TypeWF))]
    return [(j, r) for i, (j, r) in enumerate(sent)
            if any(_same_judgement(k, j) for k, _ in sent[:i])]


def _checks_on(seen, term):
    """(judgement, report) of each HasType judgement on ``term``."""
    return [(j, rep) for j, rep in seen if isinstance(j, HasType) and j.term is term]


def _discharge_bound(j):
    return len(j.ctx) + size(j.ty) + 2


def _full_steps(sig, j):
    """The steps of checking ``j`` by the rules alone: a copy of it shares
    no object with any certificate."""
    copy = HasType(fresh_copy(j.ctx), fresh_copy(j.term), fresh_copy(j.ty))
    return check(sig, copy).steps


def _checked_in_full(sig, seen, term):
    """The one judgement on ``term`` reached the kernel and paid at least
    what its rules cost; returns its report."""
    [(j, report)] = _checks_on(seen, term)
    assert report.steps >= _full_steps(sig, j)
    return report


def _reversed_path(sig):
    """A sealed ``r.term : Id(A, y, x)`` over [x : A, y : A, p : Id(A, x, y)],
    and the family z. Id(A, z, z) to transport along it."""
    ctx, x, y, p = _path_context()
    return ctx, x, y, symmetry(sig, ctx, A, x, y, p), Id(shift(A, 1), Var(0), Var(0))


def test_live_result_term_is_not_checked_again(sig, monkeypatch):
    """A live result's term is discharged by comparison as a precondition,
    and inside the emitted term too; an equal copy is checked in full."""
    ctx, x, y, r, family = _reversed_path(sig)
    copy = fresh_copy(r.term)
    assert copy is not r.term and syntactic_equal(copy, r.term)
    seen = _kernel_checks(monkeypatch)
    live = transport(sig, ctx, A, family, y, x, r.term, Refl(A, y))
    live_calls = len(seen)
    [(j, report)] = _checks_on(seen, r.term)
    assert report.ok and report.steps <= _discharge_bound(j)
    copied = transport(sig, ctx, A, family, y, x, copy, Refl(A, y))
    assert _checked_in_full(sig, seen, copy).ok
    assert len(seen) - live_calls == live_calls
    # the emitted term embeds the path, and its recheck discharges it there
    # too: with the live result, and with the copy's precondition certificate
    for sealed, report in (seen[live_calls - 1], seen[-1]):
        assert report.ok and report.steps < _full_steps(sig, sealed)
    assert syntactic_equal(live.term, copied.term)
    assert syntactic_equal(live.stated_type, copied.stated_type)
    # a syntactically equal context is as good as the same object, at the
    # cost of comparing its entries
    del seen[:]
    other = fresh_copy(ctx)
    transport(sig, other, A, family, y, x, r.term, Refl(A, y))
    [(j, report)] = _checks_on(seen, r.term)
    assert report.ok
    assert report.steps <= sum(size(e) for e in other) + size(j.ty) + 2


def test_precondition_checked_again_once_the_result_is_gone(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    term = r.term
    del r
    gc.collect()
    seen = _kernel_checks(monkeypatch)
    transport(sig, ctx, A, family, y, x, term, Refl(A, y))
    assert _checked_in_full(sig, seen, term).ok


def test_precondition_checked_again_under_another_signature(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    other = Signature().with_type("A").with_const("a", A)
    seen = _kernel_checks(monkeypatch)
    transport(other, ctx, A, family, y, x, r.term, Refl(A, y))
    assert _checked_in_full(other, seen, r.term).ok


def test_precondition_checked_again_in_another_context(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    seen = _kernel_checks(monkeypatch)
    # an extra outermost entry leaves every index in place
    result = transport(sig, (A,) + ctx, A, family, y, x, r.term, Refl(A, y))
    assert _checked_in_full(sig, seen, r.term).ok
    assert syntactic_equal(result.stated_type, Id(A, x, x))


def test_precondition_at_another_type_is_checked_and_fails(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    message = "precondition failed: transport: path relates the endpoints"
    seen = _kernel_checks(monkeypatch)
    # r.term relates y to x, not x to y
    with pytest.raises(ElabError) as live:
        transport(sig, ctx, A, family, x, y, r.term, Refl(A, x))
    report = _checked_in_full(sig, seen, r.term)
    assert not report.ok
    copy = fresh_copy(r.term)
    with pytest.raises(ElabError) as copied:
        transport(sig, ctx, A, family, x, y, copy, Refl(A, x))
    assert str(live.value) == str(copied.value) == message
    [(_, again)] = _checks_on(seen, copy)
    assert (again.reason, again.locus) == (report.reason, report.locus)


def _discharged(repeated):
    return all(r.ok and r.steps <= _discharge_bound(j) for j, r in repeated)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_telescope_betaconv_sends_no_judgement_twice(sig, monkeypatch, length):
    """No judgement goes through the rules twice: every repeat is
    discharged by comparison."""
    product = telescope_pi(sig, (), (A,) * length, A)
    args = tuple(Const("a") for _ in range(length))  # distinct objects
    seen = _kernel_checks(monkeypatch)
    witness = product.betaconv(Var(length - 1), args)
    assert syntactic_equal(witness.stated_type[3], a)
    assert _discharged(_repeated(seen))


def test_transitivity_over_a_sealed_path_sends_no_judgement_twice(sig, monkeypatch):
    ctx = (A, A, A, A,
           Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)))
    t0, t1, t2, t3 = Var(6), Var(5), Var(4), Var(3)
    p, q, r = Var(2), Var(1), Var(0)
    seen = _kernel_checks(monkeypatch)
    pq = transitivity(sig, ctx, A, t0, t1, t2, p, q)
    pqr = transitivity(sig, ctx, A, t0, t2, t3, pq.term, r)
    assert syntactic_equal(pqr.stated_type, Id(A, t0, t3))
    repeated = _repeated(seen)
    assert any(j.term is pq.term for j, _ in repeated)
    assert _discharged(repeated)


def test_telescope_idconv_sends_no_judgement_twice(sig, monkeypatch):
    ctx = (A, Id(shift(A, 1), Var(0), shift(a, 1)))
    x_pt, p_pt = Var(1), Var(0)
    delta = (NatTy, Id(shift(A, 4), Var(3), shift(a, 4)))
    seen = _kernel_checks(monkeypatch)
    witness = telescope_idconv(sig, ctx, A, delta, NatTy, x_pt, (Zero, p_pt), Zero)
    assert syntactic_equal(witness.stated_type[1], NatTy)
    assert _discharged(_repeated(seen))
    # each argument is checked against its telescope entry exactly once
    assert len(_checks_on(seen, p_pt)) == 1


def test_telescope_idconv_bad_argument_message(sig):
    ctx = (A, Id(shift(A, 1), Var(0), shift(a, 1)))
    x_pt = Var(1)
    delta = (NatTy, Id(shift(A, 4), Var(3), shift(a, 4)))
    with pytest.raises(ElabError, match="^precondition failed: argument 1 "
                       "inhabits its telescope entry$"):
        telescope_idconv(sig, ctx, A, delta, NatTy, x_pt, (Zero, Zero), Zero)


def test_index_shared_by_threads_never_skips_a_false_precondition(sig):
    """Threads certify and discharge through the kernel's one index
    concurrently.  A path that relates y to x in one context relates x to y
    in the other, so the calls there must fail however the index
    interleaves."""
    ctx, x, y, r, family = _reversed_path(sig)
    flipped = (A, A, Id(A, Var(0), Var(1)))
    message = "precondition failed: transport: path relates the endpoints"
    errors = []

    def accept():
        for _ in range(40):
            again = symmetry(sig, ctx, A, x, y, Var(0))
            for path in (r.term, again.term):
                out = transport(sig, ctx, A, family, y, x, path, Refl(A, y))
                if not syntactic_equal(out.stated_type, Id(A, x, x)):
                    errors.append(out.stated_type)

    def reject():
        for _ in range(40):
            try:
                transport(sig, flipped, A, family, y, x, r.term, Refl(A, y))
            except ElabError as exc:
                if str(exc) != message:
                    errors.append(exc)
            else:
                errors.append("accepted")

    def run(body):
        try:
            body()
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(f,)) for f in (accept, reject) * 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# the emitters' kernel work -------------------------------------------------


def _chain(v, length):
    """``length`` applications of the identity and a constant function on
    ``A``, alternating, to ``v``."""
    funs = (Lambda(A, A, Var(0)), Lambda(A, A, Const("c")))
    for i in range(length):
        v = App(A, A, funs[i % 2], v)
    return v


def _transport_certified(sig):
    ctx, x, y, p = _path_context()
    family = Id(A, _chain(Var(0), 8), _chain(Var(0), 8))
    return [transport(sig, ctx, A, family, x, y, p, Refl(A, _chain(x, 8)))]


def _transitivity_chain(sig):
    ctx = (A, A, A, A,
           Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)))
    pq = transitivity(sig, ctx, A, Var(6), Var(5), Var(4), Var(2), Var(1))
    return [pq, transitivity(sig, ctx, A, Var(6), Var(4), Var(3), pq.term, Var(0))]


def _betaconv(length):
    def build(sig):
        product = telescope_pi(sig, (), (A,) * length, A)
        return [product.betaconv(Var(length - 1), tuple(Const("a") for _ in range(length)))]
    return build


# the items of demo/equality.ott, as core terms
def _demo_tele_app(sig):
    delta = (A, Id(A, Var(0), a))
    body = Id(A, Var(1), Var(1))
    fun = Lambda(A, Pi(Id(A, Var(0), a), Id(A, Var(1), Var(1))),
                 Lambda(Id(A, Var(0), a), Id(A, Var(1), Var(1)), Refl(A, Var(1))))
    return [telescope_pi(sig, (), delta, body).app(fun, (a, Refl(A, a)))]


def _demo_tele_idrec(sig):
    ctx, x, y, p = _path_context()
    return [telescope_idrec(sig, ctx, A, (Id(A, Var(2), Var(1)),), Id(A, Var(3), Var(2)),
                            x, y, p, (p,), Var(0))]


def _demo_tele_idconv(sig):
    one = telescope_idconv(sig, (A,), A, (Id(A, Var(2), Var(1)),), Id(A, Var(3), Var(2)),
                           Var(0), (Refl(A, Var(0)),), Var(0))
    two = telescope_idconv(sig, (A,), A, (Id(A, Var(2), Var(1)), NatTy),
                           Id(A, Var(4), Var(3)), Var(0), (Refl(A, Var(0)), Zero), Var(1))
    return [one, two]


@pytest.mark.parametrize("build, steps, sizes", [
    (_transport_certified, 1281, [764]),
    (_transitivity_chain, 1325, [69, 137]),
    (_betaconv(1), 37, [5]),
    (_betaconv(2), 1522, [529]),
    (_betaconv(3), 4594, [1690]),
    (_betaconv(4), 9788, [3714]),
    (_demo_tele_app, 133, [47]),
    (_demo_tele_idrec, 344, [34]),
    (_demo_tele_idconv, 12727, [1113, 2692]),
], ids=["transport", "transitivity", "betaconv-1", "betaconv-2", "betaconv-3",
        "betaconv-4", "tele_app", "tele_idrec", "tele_idconv"])
def test_emitters_kernel_work_is_pinned(monkeypatch, build, steps, sizes):
    """The summed steps of every ``certify`` and ``instantiate`` report an
    emitter asks for, and the sizes of the terms it emits: the behavioural
    fingerprint of the constructions, which a refactor keeps or moves
    deliberately."""
    sig = Signature().with_type("A").with_const("a", A).with_const("c", A)
    charged = [0]
    for name in ("certify", "instantiate"):
        def counted(*call, inner=getattr(ott.derived, name)):
            out = inner(*call)
            charged[0] += out[0].steps
            return out

        monkeypatch.setattr(ott.derived, name, counted)
    results = build(sig)
    assert charged[0] == steps
    assert [size(r.term) for r in results] == sizes
