import gc
import random
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ott.checker
import ott.derived
from ott.checker import CtxtWF, HasType, TypeWF, check
from ott.derived import (
    ElabError, congruence_app, symmetry, telescope_idconv, telescope_idrec,
    telescope_pi, transitivity, transport,
)
from ott.kernel import APP
from ott.subst import shift, subst
from ott.terms import (
    App, BetaConv, Const, Id, IdConv, IdRec, Lambda, NatTy, Pi, Refl, Signature,
    Var, Zero, size, syntactic_equal,
)

from generators import Generator, default_signature, fresh_copy

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
    with pytest.raises(ElabError, match=f"^precondition failed: transport: {what}$") as e:
        transport(sig, ctx, over, family, x, y, p, Refl(A, x))
    assert e.value.precondition == f"transport: {what}"


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


# [u : A, v : A, w : A, p : Id(A, u, v), q : Id(A, v, w)]
_TWO_PATHS = (A, A, A, Id(A, Var(2), Var(1)), Id(A, Var(2), Var(1)))


def test_transitivity_is_one_transport(sig, monkeypatch):
    """The first path is moved along the second: one transport, and
    neither path is reversed."""
    calls = []
    for name in ("transport", "symmetry"):
        def counted(*args, inner=getattr(ott.derived, name), name=name):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(ott.derived, name, counted)
    result = transitivity(sig, _TWO_PATHS, A, Var(4), Var(3), Var(2), Var(1), Var(0))
    assert calls == ["transport"]
    # the first path is transport's point, the last argument of the
    # emitted application
    assert result.term[0] == APP and result.term[4] == Var(1)


def test_transitivity_chain_grows_by_a_constant_per_link(sig):
    k = 6
    ctx, x, p = _chain_context(k)
    held, path = [], p(1)
    for i in range(1, k):
        held.append(transitivity(sig, ctx, A, x(0), x(i), x(i + 1), path, p(i + 1)))
        path = held[-1].term
    sizes = [size(r.term) for r in held]
    assert len({b - a for a, b in zip(sizes, sizes[1:])}) == 1


def _paths_over(gen, rng):
    """A small generated context, with a type ``over`` and points ``a``,
    ``b`` and ``c`` of it over that context, extended by a postulated path
    for each of the two steps, except that a step between equal points may
    be reflexivity instead: (ctx, over, a, b, c, path_ab, path_bc), all
    over ``ctx``."""
    ctx = gen.random_context(rng.randrange(0, 3), 3)
    over = gen.random_type(ctx, 4)
    points = [gen.random_term(ctx, over, 3)]
    assume(points[0] is not None)
    for _ in range(2):
        point = points[-1] if rng.random() < 0.4 else gen.random_term(ctx, over, 3)
        points.append(points[-1] if point is None else point)
    base, entries = len(ctx), []  # the index in ctx of each step's path
    for lhs, rhs in zip(points, points[1:]):
        if syntactic_equal(lhs, rhs) and rng.random() < 0.5:
            entries.append(None)
        else:
            m = len(ctx) - base
            entries.append(len(ctx))
            ctx += (Id(shift(over, m), shift(lhs, m), shift(rhs, m)),)
    over, a, b, c = (shift(t, len(ctx) - base) for t in (over, *points))
    paths = [Refl(over, lhs) if i is None else Var(len(ctx) - 1 - i)
             for i, lhs in zip(entries, (a, b))]
    return ctx, over, a, b, c, *paths


@settings(max_examples=80)
@given(st.randoms(use_true_random=False))
def test_transitivity_states_the_composite_and_checks_by_the_rules(rng):
    """Over small generated contexts, with a first path that is postulated,
    reflexivity, or itself a sealed composite: ``transitivity`` states
    ``Id(over, a, c)``, and once every certificate is dropped and
    collected, plain ``check`` accepts the emitted term at that type."""
    sig = default_signature()
    ctx, over, a, b, c, path_ab, path_bc = _paths_over(Generator(sig, rng), rng)
    held = []
    if rng.random() < 0.5:
        held.append(transitivity(sig, ctx, over, a, b, b, path_ab, Refl(over, b)))
        path_ab = held[-1].term
    result = transitivity(sig, ctx, over, a, b, c, path_ab, path_bc)
    assert syntactic_equal(result.stated_type, Id(over, a, c))
    term, ty = result.term, result.stated_type
    del held, result
    gc.collect()
    assert ott.checker._certificates == {} and ott.checker._contexts == {}
    assert check(sig, HasType(ctx, term, ty)).ok


def _rechecks(monkeypatch):
    """The judgements that ``ott.derived`` passes to ``check`` from now on:
    the rechecks by which an emitter names a refusal in its own words."""
    seen = []

    def counted(sig, j, inner=ott.derived.check):
        seen.append(j)
        return inner(sig, j)

    monkeypatch.setattr(ott.derived, "check", counted)
    return seen


# ``rechecks``: the preconditions checked again.  Unless the transport
# refused its family, the endpoint type and ``a`` are not among them.
@pytest.mark.parametrize("endpoints, paths, what, rechecks", [
    ((Var(4), Var(3), Var(2)), (Var(0), Var(0)), "first path relates a and b", 3),
    ((Var(4), Var(3), Var(2)), (Var(1), Var(1)), "second path relates b and c", 4),
    ((Var(4), Var(3), Var(1)), (Var(1), Var(0)), "c inhabits the endpoint type", 2),
    ((Zero, Var(3), Var(2)), (Var(1), Var(0)), "a inhabits the endpoint type", 2),
], ids=["first-path", "second-path", "endpoint-c", "endpoint-a"])
def test_transitivity_names_the_refused_precondition(sig, monkeypatch, endpoints, paths,
                                                     what, rechecks):
    """A refusal reads as transitivity's own, whichever precondition of the
    transport inside it failed."""
    seen = _rechecks(monkeypatch)
    with pytest.raises(ElabError, match=f"^precondition failed: transitivity: {what}$") as e:
        transitivity(sig, _TWO_PATHS, A, *endpoints, *paths)
    assert e.value.precondition == f"transitivity: {what}"
    assert len(seen) == rechecks


# ``rechecks`` as above: unless the transport refused its family, the
# endpoint type and ``lhs`` are not checked again.
@pytest.mark.parametrize("args, what, rechecks", [
    ((A, Var(1), Var(2), Var(0)), "path relates lhs and rhs", 2),
    ((A, Zero, Var(1), Var(0)), "lhs inhabits the endpoint type", 2),
    ((A, Var(2), Zero, Var(0)), "rhs inhabits the endpoint type", 1),
    ((a, Var(2), Var(1), Var(0)), "endpoint type is a type", 1),
], ids=["path", "lhs", "rhs", "over"])
def test_symmetry_names_the_refused_precondition(sig, monkeypatch, args, what, rechecks):
    """A refusal reads as symmetry's own, not as the transport's inside it."""
    ctx, _, _, _ = _path_context()
    seen = _rechecks(monkeypatch)
    with pytest.raises(ElabError, match=f"^precondition failed: symmetry: {what}$") as e:
        symmetry(sig, ctx, *args)
    assert e.value.precondition == f"symmetry: {what}"
    assert len(seen) == rechecks


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


@pytest.mark.parametrize("args, what", [
    ((A, A, Var(1), Var(2), Var(0), a), "path relates fun_a and fun_b"),
    ((A, A, Var(2), Var(1), Var(0), Zero), "arg inhabits the domain"),
    ((A, A, Zero, Var(1), Var(0), a), "fun_a has the product type"),
    ((A, A, Var(2), Zero, Var(0), a), "fun_b has the product type"),
    ((a, A, Var(2), Var(1), Var(0), a), "domain is a type"),
    ((A, Var(0), Var(2), Var(1), Var(0), a), "codomain is a type over the domain"),
], ids=["path", "arg", "fun_a", "fun_b", "domain", "codomain"])
def test_congruence_names_the_refused_precondition(sig, args, what):
    """A refusal reads as congruence_app's own, not as the transport's
    inside it."""
    pi = Pi(A, A)
    ctx = (pi, pi, Id(pi, Var(1), Var(0)))
    with pytest.raises(ElabError, match=f"^precondition failed: congruence_app: {what}$"):
        congruence_app(sig, ctx, *args)


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
    what its type and term stages cost by the rules (a live certificate over
    its context may spare it the context stage); returns its report."""
    [(j, report)] = _checks_on(seen, term)
    stage = check(sig, CtxtWF(fresh_copy(j.ctx))).steps
    assert report.steps >= _full_steps(sig, j) - stage
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


def _chain_context(k):
    """[x0 : A, ..., xk : A, p1 : Id(A, x0, x1), ..., pk : Id(A, x(k-1),
    xk)]: the context, and the variables x(j) and p(i)."""
    entries = [A] * (k + 1)
    for i in range(1, k + 1):
        depth = len(entries)
        entries.append(Id(A, Var(depth - i), Var(depth - 1 - i)))
    n = len(entries)
    return tuple(entries), (lambda j: Var(n - 1 - j)), (lambda i: Var(n - 1 - k - i))


def test_transitivity_chain_checks_its_context_once(sig, monkeypatch):
    """Links of a transitivity chain over one context run the context stage
    on its entries no more often than the first link does: once a held
    result certifies the context, every later judgement over it, or over an
    extension of it, compares those entries by identity and checks only
    the entries after them."""
    k = 8
    ctx, x, p = _chain_context(k)
    n = len(ctx)
    seeded = []  # the entry index of each context-stage obligation seeded
    real = ott.checker._seed_judgement

    def seed(j, start=0):
        stack = real(j, start)
        seeded.extend(slot[1] for *_, slot in stack if slot.__class__ is tuple)
        return stack

    monkeypatch.setattr(ott.checker, "_seed_judgement", seed)
    held, path, counts = [], p(1), []
    for i in range(1, k):
        held.append(transitivity(sig, ctx, A, x(0), x(i), x(i + 1), path, p(i + 1)))
        path = held[-1].term
        counts.append(sum(1 for e in seeded if e < n))
    assert syntactic_equal(held[-1].stated_type, Id(A, x(0), x(k)))
    assert counts == [counts[0]] * len(counts)
    assert counts[0] <= 3 * n


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
    (_transport_certified, 1263, [764]),
    (_transitivity_chain, 521, [34, 67]),
    (_betaconv(1), 37, [5]),
    (_betaconv(2), 882, [390]),
    (_betaconv(3), 2574, [1240]),
    (_betaconv(4), 5385, [2719]),
    (_demo_tele_app, 125, [47]),
    (_demo_tele_idrec, 320, [34]),
    (_demo_tele_idconv, 7292, [819, 1982]),
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
