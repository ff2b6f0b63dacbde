"""Term emitters for the admissible rules: transport, equality reasoning and
telescope (multi-binder) products and identity elimination.

Since the theory has no definitional equality, these rules do not come for
free: each is realized by an explicit construction whose output is a plain
core term.  Admissibility is witnessed operationally: every returned term was
accepted by the kernel at its stated type, and a RecheckFailure here always
means a construction bug, never user error.

A sealed result is a certificate, so a precondition that the kernel already
accepted for a live result is not checked again: when the required term is
that result's term object, under the same Signature object, at a context and
type syntactically equal to the result's, the check is skipped.  The index
behind this maps id(result.term) to the result and holds it only weakly; it
is shared by all threads, and a lookup only ever skips a judgement that a
live result already passed, so concurrent use costs at worst an extra check.
Every new term still goes to the kernel.

Index conventions (worked through in docs/transport-indices.md): a motive
over three binders sees the innermost binder (the path) as index 0, its right
endpoint as 1 and its left endpoint as 2; a one-binder family sees its
argument as index 0.  Telescope entries are listed outermost first and each
entry may mention all earlier ones.

Everything here materializes eagerly.  Emitted terms are not minimized or
shared: transport alone multiplies the family size by a small constant, and
the telescope constructions grow multiplicatively with telescope length.
That growth is inherent to storing conversions inside proof terms and is the
price this calculus pays for never normalizing.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from . import kernel as _k
from .checker import HasType, TypeWF, check
from .kernel import APP, BETA, ID, IDCONV, IDREC, LAM, PI, REFL, VAR
from .subst import shift, subst
from .terms import Context, Signature, Telescope, Term, syntactic_equal

__all__ = [
    "ElabResult", "ElabError", "RecheckFailure",
    "transport", "symmetry", "transitivity", "congruence_app",
    "telescope_pi", "TelescopePi", "telescope_idrec", "telescope_idconv",
]


class ElabError(Exception):
    """A precondition of an emitter does not hold."""


class RecheckFailure(Exception):
    """An emitted term failed its own recheck (an internal bug, not bad input)."""


@dataclass(frozen=True)
class ElabResult:
    term: Term
    stated_type: Term
    context: Context
    signature: Signature = field(compare=False, repr=False)


# id(result.term) -> the live ElabResult sealed with that term.  The result
# holds its term, so the id cannot be reused while the entry exists.
_accepted: "weakref.WeakValueDictionary[int, ElabResult]" = weakref.WeakValueDictionary()


def _same_context(left, right):
    return left is right or (
        len(left) == len(right)
        and all(e is f or syntactic_equal(e, f) for e, f in zip(left, right))
    )


def _accepted_before(sig, ctx, term, ty):
    """Whether the kernel already accepted ``term : ty`` in ``ctx`` under
    ``sig`` for a result that is still alive."""
    r = _accepted.get(id(term))
    return (
        r is not None and r.term is term and r.signature is sig
        and _same_context(r.context, ctx)
        and (r.stated_type is ty or syntactic_equal(r.stated_type, ty))
    )


def _inst(t, terms, outer=0, lift=0):
    out, _ = _k.inst(t, terms, outer, lift)
    return out


def _require(sig, ctx, term, ty, what):
    if _accepted_before(sig, ctx, term, ty):
        return
    if not check(sig, HasType(ctx, term, ty)).ok:
        raise ElabError(f"precondition failed: {what}")


def _require_type(sig, ctx, ty, what):
    if not check(sig, TypeWF(ctx, ty)).ok:
        raise ElabError(f"precondition failed: {what}")


def _sealed(sig, ctx, term, ty) -> ElabResult:
    report = check(sig, HasType(ctx, term, ty))
    if not report.ok:
        raise RecheckFailure(
            f"emitted term failed recheck: {report.reason} at {report.locus}"
        )
    result = ElabResult(term, ty, ctx, sig)
    _accepted[id(term)] = result
    return result


def transport(sig: Signature, ctx: Context, family_over: Term, family: Term,
              src: Term, dst: Term, path: Term, point: Term) -> ElabResult:
    """Leibniz principle: move ``point : family[src]`` to ``family[dst]``
    along ``path : Id(family_over, src, dst)``.

    The carrier is an identity eliminator at the motive "functions from the
    family at the left endpoint to the family at the right endpoint", whose
    base case is the identity function; the result applies that function to
    ``point``.
    """
    _require_type(sig, ctx, family_over, "transport: base is a type")
    _require_type(sig, ctx + (family_over,), family, "transport: family is a type")
    _require(sig, ctx, path, (ID, family_over, src, dst),
             "transport: path relates the endpoints")
    fam_src = _inst(family, (src,))
    fam_dst = _inst(family, (dst,))
    _require(sig, ctx, point, fam_src, "transport: point inhabits the source fiber")

    # Motive over (x, y, u): functions from family[x] to family[y].  At the
    # domain the binders in scope are x,y,u so x is index 2; the codomain
    # adds its own binder, putting y at index 2 as well.
    motive = (PI, _inst(family, ((VAR, 2),), 3), _inst(family, ((VAR, 2),), 4))
    # Base: under x the identity function on family[x].
    base = (LAM, _inst(family, ((VAR, 0),), 1), _inst(family, ((VAR, 1),), 2), (VAR, 0))
    carrier = (IDREC, family_over, motive, src, dst, path, base)
    # The carrier's type is the motive at (src, dst, path), i.e. functions
    # from family[src] to family[dst]; apply it to the point.
    codomain = _inst(family, (shift(dst, 1),), 1)
    term = (APP, fam_src, codomain, carrier, point)
    return _sealed(sig, ctx, term, fam_dst)


def symmetry(sig: Signature, ctx: Context, over: Term, lhs: Term, rhs: Term,
             path: Term) -> ElabResult:
    """From ``path : Id(over, lhs, rhs)`` emit a term of ``Id(over, rhs, lhs)``:
    transport of reflexivity at the family "x equals lhs"."""
    family = (ID, shift(over, 1), (VAR, 0), shift(lhs, 1))
    return transport(sig, ctx, over, family, lhs, rhs, path, (REFL, over, lhs))


def transitivity(sig: Signature, ctx: Context, over: Term, a: Term, b: Term,
                 c: Term, path_ab: Term, path_bc: Term) -> ElabResult:
    """Chain ``Id(over, a, b)`` and ``Id(over, b, c)`` into ``Id(over, a, c)``:
    transport ``path_bc`` along the reversal of ``path_ab`` at the family
    "x equals c"."""
    reverse = symmetry(sig, ctx, over, a, b, path_ab)
    family = (ID, shift(over, 1), (VAR, 0), shift(c, 1))
    return transport(sig, ctx, over, family, b, a, reverse.term, path_bc)


def congruence_app(sig: Signature, ctx: Context, domain: Term, codomain: Term,
                   fun_a: Term, fun_b: Term, path: Term, arg: Term) -> ElabResult:
    """Action on paths in the function position of an application: from
    ``path : Id(Pi(domain, codomain), fun_a, fun_b)`` emit an equality between
    the two applications at ``arg``."""
    fun_ty = (PI, domain, codomain)
    steps = ((domain, codomain),)
    result_ty = _inst(codomain, (arg,))
    return _spine_congruence(sig, ctx, fun_ty, fun_a, fun_b, path, steps, (arg,),
                             result_ty)


def _spine_app(steps, head, args, by):
    """Apply ``head`` through the annotation steps ((dom, cod) per argument),
    with annotations and arguments shifted by ``by``; returns the term."""
    cur = head
    for (dom, cod), arg in zip(steps, args):
        if by:
            dom = shift(dom, by)
            cod = shift(cod, by, 1)
            arg = shift(arg, by)
        cur = (APP, dom, cod, cur, arg)
    return cur


def _spine_steps(entries, body, args):
    """Annotation steps and the result type for applying a function over the
    telescope ``entries`` with result ``body`` to ``args``."""
    cur_ty = _pi_fold(entries, body)
    steps = []
    for arg in args:
        _, dom, cod = cur_ty
        steps.append((dom, cod))
        cur_ty = _inst(cod, (arg,))
    return tuple(steps), cur_ty


def _spine_congruence(sig, ctx, fun_ty, fun_a, fun_b, path, steps, args, result_ty):
    """Equality of two application spines that differ only in the head,
    along a path between the heads: transport of reflexivity at the family
    "the fixed a-spine equals the spine headed by the bound variable"."""
    lhs = _spine_app(steps, fun_a, args, 0)
    family = (
        ID,
        shift(result_ty, 1),
        _spine_app(steps, shift(fun_a, 1), args, 1),
        _spine_app(steps, (VAR, 0), args, 1),
    )
    base = (REFL, result_ty, lhs)
    return transport(sig, ctx, fun_ty, family, fun_a, fun_b, path, base)


def _pi_fold(entries, body: Term) -> Term:
    """The nested product over a telescope: right fold of Pi."""
    ty = body
    for entry in reversed(entries):
        ty = (PI, entry, ty)
    return ty


def _lam_fold(entries, suffixes, body: Term) -> Term:
    term = body
    for j in range(len(entries) - 1, -1, -1):
        term = (LAM, entries[j], suffixes[j + 1], term)
    return term


class TelescopePi:
    """The contextual product over a telescope: its type, and builders for
    abstraction, application, and the computation witness.

    The type is the right-fold of the one-variable product, so de Bruijn
    alignment is automatic: the body's index 0 is the innermost telescope
    entry.  Every built term is rechecked at its stated type.
    """

    def __init__(self, sig: Signature, ctx: Context, delta: Telescope, body: Term):
        self.sig = sig
        self.ctx = ctx
        self.delta = tuple(delta)
        self.body = body
        scope = ctx
        for i, entry in enumerate(self.delta):
            _require_type(sig, scope, entry, f"telescope entry {i} is a type")
            scope = scope + (entry,)
        _require_type(sig, scope, body, "telescope body is a type")
        # suffix[j] = product over entries j.. (suffix[0] is the full type)
        self.suffixes = [body]
        for entry in reversed(self.delta):
            self.suffixes.insert(0, (PI, entry, self.suffixes[0]))
        self.pi_type: Term = self.suffixes[0]

    def lam(self, body_term: Term) -> ElabResult:
        """Abstract a term over the whole telescope."""
        term = _lam_fold(self.delta, self.suffixes, body_term)
        return _sealed(self.sig, self.ctx, term, self.pi_type)

    def _check_args(self, args):
        if len(args) != len(self.delta):
            raise ElabError("argument sequence length differs from telescope length")
        scope_ty = self.pi_type
        for i, arg in enumerate(args):
            dom = scope_ty[1]
            _require(self.sig, self.ctx, arg, dom,
                     f"argument {i} inhabits its telescope entry")
            scope_ty = _inst(scope_ty[2], (arg,))
        return scope_ty

    def app(self, fun: Term, args) -> ElabResult:
        """Apply a function of the telescope product type to an argument
        sequence (a context morphism into the telescope)."""
        args = tuple(args)
        result_ty = self._check_args(args)
        steps, _ = _spine_steps(self.delta, self.body, args)
        term = _spine_app(steps, fun, args, 0)
        return _sealed(self.sig, self.ctx, term, result_ty)

    def betaconv(self, body_term: Term, args) -> ElabResult:
        """The computation witness: the telescope application of the
        telescope abstraction of ``body_term`` at ``args`` equals the
        instantiated body.

        Assembled by induction on the telescope, innermost entry last: the
        head of the spine is rewritten by the induction hypothesis
        (congruence in the function position), then the one-variable
        computation witness finishes, and the two are chained by
        transitivity.  With no entries the two sides coincide and
        reflexivity is the witness; with one entry the primitive witness is
        emitted directly.
        """
        args = tuple(args)
        self._check_args(args)
        return _beta_witness(self.sig, self.ctx, self.delta, self.body,
                             body_term, args)


def telescope_pi(sig: Signature, ctx: Context, delta: Telescope, body: Term) -> TelescopePi:
    return TelescopePi(sig, ctx, delta, body)


def _beta_witness(sig, ctx, entries, body_ty, body, args) -> ElabResult:
    """Recursive witness construction; returns the sealed witness, whose
    stated type is the Id type between the spine and the instantiated body."""
    if not entries:
        return _sealed(sig, ctx, (REFL, body_ty, body), (ID, body_ty, body, body))
    if len(entries) == 1:
        dom, arg = entries[0], args[0]
        term = (BETA, dom, body_ty, arg, body)
        stated = (
            ID, _inst(body_ty, (arg,)),
            (APP, dom, body_ty, (LAM, dom, body_ty, body), arg),
            _inst(body, (arg,)),
        )
        return _sealed(sig, ctx, term, stated)
    front, last = entries[:-1], entries[-1]
    front_args, last_arg = args[:-1], args[-1]
    inner_ty = (PI, last, body_ty)
    inner_lam = (LAM, last, body_ty, body)
    # ``ih`` stays alive while its term is the congruence's path, so that
    # precondition is not checked again
    ih = _beta_witness(sig, ctx, front, inner_ty, inner_lam, front_args)
    _, pi_inst, spine_head, lam_inst = ih.stated_type
    _, dom_i, cod_i = pi_inst
    step = ((dom_i, cod_i),)
    result_ty = _inst(cod_i, (last_arg,))
    # rewrite the head of the final application along the induction hypothesis
    cong = _spine_congruence(sig, ctx, pi_inst, spine_head, lam_inst, ih.term,
                             step, (last_arg,), result_ty)
    # one-variable computation witness at the substituted data
    rev = tuple(reversed(front_args))
    body_inst = _inst(body, rev, 0, 1)
    bc = (BETA, dom_i, cod_i, last_arg, body_inst)
    lhs = _spine_app(step, spine_head, (last_arg,), 0)
    mid = _spine_app(step, lam_inst, (last_arg,), 0)
    rhs = _inst(body_inst, (last_arg,))
    return transitivity(sig, ctx, result_ty, lhs, mid, rhs, cong.term, bc)


def _ctx3(ctx: Context, over: Term) -> Context:
    """Extend a context by the identity-elimination binders x, y, x = y."""
    return ctx + (over, shift(over, 1), (ID, shift(over, 2), (VAR, 1), (VAR, 0)))


def _subst_tele(delta, triple, outer):
    """Instantiate the three elimination binders under each telescope entry."""
    return tuple(_inst(entry, triple, outer, j) for j, entry in enumerate(delta))


def telescope_idrec(sig: Signature, ctx: Context, over: Term, delta: Telescope,
                    motive: Term, lhs: Term, rhs: Term, path: Term, args,
                    base: Term) -> ElabResult:
    """Identity elimination with a telescope of extra premises.

    ``delta`` lives over (ctx, x, y, x = y); ``motive`` additionally binds the
    telescope; ``base`` lives over (ctx, x, telescope at reflexivity) and
    inhabits the motive at reflexivity; ``args`` inhabit the telescope at
    (lhs, rhs, path).  Emits the telescope application of a plain identity
    eliminator whose motive is the telescope product, at stated type
    motive[lhs, rhs, path, args].

    With an empty telescope this is syntactically the primitive eliminator.
    """
    args = tuple(args)
    if len(args) != len(delta):
        raise ElabError("argument sequence length differs from telescope length")
    k = len(delta)
    product = telescope_pi(sig, _ctx3(ctx, over), delta, motive)
    big_motive = product.pi_type
    # base case for the product motive: abstract the base over the telescope
    # at reflexivity
    a1 = shift(over, 1)
    refl_triple = ((REFL, a1, (VAR, 0)), (VAR, 0), (VAR, 0))
    delta_refl = _subst_tele(delta, refl_triple, 1)
    motive_refl = _inst(motive, refl_triple, 1, k)
    product_refl = telescope_pi(sig, ctx + (over,), delta_refl, motive_refl)
    s = product_refl.lam(base).term
    carrier = (IDREC, over, big_motive, lhs, rhs, path, s)
    # apply the carrier through the telescope instantiated at the endpoints
    end_triple = (path, rhs, lhs)
    delta_end = _subst_tele(delta, end_triple, 0)
    motive_end = _inst(motive, end_triple, 0, k)
    product_end = telescope_pi(sig, ctx, delta_end, motive_end)
    return product_end.app(carrier, args)


def telescope_idconv(sig: Signature, ctx: Context, over: Term, delta: Telescope,
                     motive: Term, point: Term, args, base: Term) -> ElabResult:
    """The computation witness for telescope identity elimination: at
    reflexivity and telescope arguments ``args``, the eliminator equals the
    instantiated base.

    Chains the primitive computation witness (rewriting the head of the
    application spine by congruence) with the telescope computation witness
    for the product; with an empty telescope the primitive witness is emitted
    directly.
    """
    args = tuple(args)
    if len(args) != len(delta):
        raise ElabError("argument sequence length differs from telescope length")
    k = len(delta)
    rfl = (REFL, over, point)
    product = telescope_pi(sig, _ctx3(ctx, over), delta, motive)
    big_motive = product.pi_type
    a1 = shift(over, 1)
    refl_triple = ((REFL, a1, (VAR, 0)), (VAR, 0), (VAR, 0))
    delta_refl = _subst_tele(delta, refl_triple, 1)
    motive_refl = _inst(motive, refl_triple, 1, k)
    product_refl = telescope_pi(sig, ctx + (over,), delta_refl, motive_refl)
    s = product_refl.lam(base).term

    if k == 0:
        term = (IDCONV, over, big_motive, point, s)
        stated = (
            ID, _inst(big_motive, (rfl, point, point)),
            (IDREC, over, big_motive, point, point, rfl, s),
            _inst(s, (point,)),
        )
        return _sealed(sig, ctx, term, stated)

    point_triple = (rfl, point, point)
    delta_pt = _subst_tele(delta, point_triple, 0)
    motive_pt = _inst(motive, point_triple, 0, k)
    product_pt = telescope_pi(sig, ctx, delta_pt, motive_pt)
    base_at_point = _inst(base, (point,), 0, k)
    # the telescope computation witness for the product, which finishes the
    # chain below; it also checks each argument against its entry
    tail = product_pt.betaconv(base_at_point, args)

    carrier = (IDREC, over, big_motive, point, point, rfl, s)
    s_at_point = _inst(s, (point,))
    big_motive_pt = _inst(big_motive, point_triple)

    # the primitive computation witness rewrites the spine head
    idc = (IDCONV, over, big_motive, point, s)
    steps, result_ty = _spine_steps(delta_pt, motive_pt, args)
    cong = _spine_congruence(sig, ctx, big_motive_pt, carrier, s_at_point, idc,
                             steps, args, result_ty)
    lhs = _spine_app(steps, carrier, args, 0)
    rhs = _inst_args(base_at_point, args)
    return transitivity(sig, ctx, result_ty, lhs,
                        _spine_app(steps, s_at_point, args, 0), rhs,
                        cong.term, tail.term)


def _inst_args(body: Term, args) -> Term:
    """Instantiate a term binding ``len(args)`` telescope variables."""
    return _inst(body, tuple(reversed(args)))
