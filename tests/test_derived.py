import gc
import random
import sys
import threading

import pytest

import ott.derived
from ott.checker import HasType, check
from ott.derived import (
    ElabError, congruence_app, symmetry, telescope_idconv, telescope_idrec,
    telescope_pi, transitivity, transport,
)
from ott.subst import shift, subst
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatTy, Pi, Refl, Signature,
    Succ, Var, Zero, size, syntactic_equal,
)
from ott.testing import Generator

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


# rechecks ------------------------------------------------------------------------


def _kernel_judgements(monkeypatch):
    """Wrap ``ott.derived.check``; returns the list of judgements it is sent."""
    seen = []
    inner = ott.derived.check

    def counted(sig, judgement):
        seen.append(judgement)
        return inner(sig, judgement)

    monkeypatch.setattr(ott.derived, "check", counted)
    return seen


def _rebuilt(t):
    """An equal copy of ``t`` that shares no tuple with it (``copy.deepcopy``
    returns a tuple of immutable atoms as it is)."""
    return tuple(_rebuilt(c) if isinstance(c, tuple) else c for c in t)


def _same_judgement(j, k):
    return (j.term is k.term and syntactic_equal(j.ty, k.ty)
            and len(j.ctx) == len(k.ctx)
            and all(syntactic_equal(e, f) for e, f in zip(j.ctx, k.ctx)))


def _repeated(seen):
    """The HasType judgements that reach the kernel a second time."""
    has_type = [j for j in seen if isinstance(j, HasType)]
    return [j for i, j in enumerate(has_type)
            if any(_same_judgement(k, j) for k in has_type[:i])]


def _reaches_kernel(seen, term):
    return any(isinstance(j, HasType) and j.term is term for j in seen)


def _reversed_path(sig):
    """A sealed ``r.term : Id(A, y, x)`` over [x : A, y : A, p : Id(A, x, y)],
    and the family z. Id(A, z, z) to transport along it."""
    ctx, x, y, p = _path_context()
    return ctx, x, y, symmetry(sig, ctx, A, x, y, p), Id(shift(A, 1), Var(0), Var(0))


def test_live_result_term_is_not_checked_again(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    copy = _rebuilt(r.term)
    assert copy is not r.term and syntactic_equal(copy, r.term)
    seen = _kernel_judgements(monkeypatch)
    live = transport(sig, ctx, A, family, y, x, r.term, Refl(A, y))
    live_calls = len(seen)
    assert not _reaches_kernel(seen, r.term)
    copied = transport(sig, ctx, A, family, y, x, copy, Refl(A, y))
    assert _reaches_kernel(seen, copy)
    assert len(seen) - live_calls == live_calls + 1
    assert syntactic_equal(live.term, copied.term)
    assert syntactic_equal(live.stated_type, copied.stated_type)
    # a syntactically equal context is as good as the same object
    del seen[:]
    transport(sig, _rebuilt(ctx), A, family, y, x, r.term, Refl(A, y))
    assert not _reaches_kernel(seen, r.term)


def test_precondition_checked_again_once_the_result_is_gone(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    term = r.term
    del r
    gc.collect()
    seen = _kernel_judgements(monkeypatch)
    transport(sig, ctx, A, family, y, x, term, Refl(A, y))
    assert _reaches_kernel(seen, term)


def test_precondition_checked_again_under_another_signature(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    other = Signature().with_type("A").with_const("a", A)
    seen = _kernel_judgements(monkeypatch)
    transport(other, ctx, A, family, y, x, r.term, Refl(A, y))
    assert _reaches_kernel(seen, r.term)


def test_precondition_checked_again_in_another_context(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    seen = _kernel_judgements(monkeypatch)
    # an extra outermost entry leaves every index in place
    result = transport(sig, (A,) + ctx, A, family, y, x, r.term, Refl(A, y))
    assert _reaches_kernel(seen, r.term)
    assert syntactic_equal(result.stated_type, Id(A, x, x))


def test_precondition_at_another_type_is_checked_and_fails(sig, monkeypatch):
    ctx, x, y, r, family = _reversed_path(sig)
    message = "precondition failed: transport: path relates the endpoints"
    seen = _kernel_judgements(monkeypatch)
    # r.term relates y to x, not x to y
    with pytest.raises(ElabError) as live:
        transport(sig, ctx, A, family, x, y, r.term, Refl(A, x))
    assert _reaches_kernel(seen, r.term)
    with pytest.raises(ElabError) as copied:
        transport(sig, ctx, A, family, x, y, _rebuilt(r.term), Refl(A, x))
    assert str(live.value) == str(copied.value) == message


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_telescope_betaconv_sends_no_judgement_twice(sig, monkeypatch, length):
    product = telescope_pi(sig, (), (A,) * length, A)
    args = tuple(Const("a") for _ in range(length))  # distinct objects
    seen = _kernel_judgements(monkeypatch)
    witness = product.betaconv(Var(length - 1), args)
    assert syntactic_equal(witness.stated_type[3], a)
    assert _repeated(seen) == []


def test_transitivity_over_a_sealed_path_sends_no_judgement_twice(sig, monkeypatch):
    ctx = (A, A, A, A,
           Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)), Id(A, Var(3), Var(2)))
    t0, t1, t2, t3 = Var(6), Var(5), Var(4), Var(3)
    p, q, r = Var(2), Var(1), Var(0)
    seen = _kernel_judgements(monkeypatch)
    pq = transitivity(sig, ctx, A, t0, t1, t2, p, q)
    pqr = transitivity(sig, ctx, A, t0, t2, t3, pq.term, r)
    assert syntactic_equal(pqr.stated_type, Id(A, t0, t3))
    assert _repeated(seen) == []


def test_telescope_idconv_sends_no_judgement_twice(sig, monkeypatch):
    ctx = (A, Id(shift(A, 1), Var(0), shift(a, 1)))
    x_pt, p_pt = Var(1), Var(0)
    delta = (NatTy, Id(shift(A, 4), Var(3), shift(a, 4)))
    seen = _kernel_judgements(monkeypatch)
    witness = telescope_idconv(sig, ctx, A, delta, NatTy, x_pt, (Zero, p_pt), Zero)
    assert syntactic_equal(witness.stated_type[1], NatTy)
    assert _repeated(seen) == []
    # each argument is checked against its telescope entry exactly once
    assert sum(isinstance(j, HasType) and j.term is p_pt for j in seen) == 1


def test_telescope_idconv_bad_argument_message(sig):
    ctx = (A, Id(shift(A, 1), Var(0), shift(a, 1)))
    x_pt = Var(1)
    delta = (NatTy, Id(shift(A, 4), Var(3), shift(a, 4)))
    with pytest.raises(ElabError, match="^precondition failed: argument 1 "
                       "inhabits its telescope entry$"):
        telescope_idconv(sig, ctx, A, delta, NatTy, x_pt, (Zero, Zero), Zero)


def test_index_shared_by_threads_never_skips_a_false_precondition(sig):
    """Threads seal and look up concurrently.  A path that relates y to x in
    one context relates x to y in the other, so the calls there must fail
    however the shared index interleaves."""
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
