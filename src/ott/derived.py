"""Term emitters for the admissible rules: transport, equality reasoning and
telescope (multi-binder) products and identity elimination.

Since the theory has no definitional equality, these rules do not come for
free: each is realized by an explicit construction whose output is a plain
core term.  Admissibility is witnessed operationally: every returned term was
accepted by the kernel at its stated type, and a RecheckFailure here always
means a construction bug, never user error.

Every sealed result and every precondition is checked with
``ott.checker.certify`` through the one helper ``_certified``, and the
emitter holds the certificate it returns: a
result's for as long as the result lives (``ElabResult.certificate``), a
precondition's until the emitter's own result is sealed (a telescope
product's for as long as the product lives).  While a certificate is held,
the kernel discharges an obligation on its term or type object at the
certified context (and type) by comparison, both when the object comes back
as a precondition and when it sits inside a larger emitted term: the first
path, transitivity's point, inside transport's application, and the witness
so far inside betaconv's congruence.  A held certificate also vouches for
its context, a leaf's too: a later precondition or recheck over the same
entry objects, or over those followed by more, checks only the entries
after them, so a chain of transitivity links over one long context checks
that context once.

Transport writes six instances of its family into the term it emits.  It
asks the kernel for each with ``ott.checker.instantiate``, from the family's
certificate: the kernel checks the component and writes the instance, and
its certificate says the instance is a type over the instance's context
provided that context is well-formed.  So neither the point precondition
nor the sealed recheck walks an instance as a type; they compare contexts.
The certificate also records the instance's provenance, the family object,
the component and the weakening, and the family counts as its own identity
instance.  The sealed recheck compares one instance against another six
times (docs/transport-indices.md lists them), and the kernel decides each
pair by comparing their components, at most the family's outer variables
plus the component's nodes plus one step, instead of walking the family.
With a certified family, transport also certifies its motive as a type, so
the recheck leaves the motive at reflexivity unwritten and the base is
compared against it lazily.  The recheck's cost then does not depend on
the family's size.  Only the kernel enters judgements into its index, and
only ones its rules or the substitution rule accepted; every new term still
goes through the kernel's rules.

Index conventions (worked through in docs/transport-indices.md): a motive
over three binders sees the innermost binder (the path) as index 0, its right
endpoint as 1 and its left endpoint as 2; a one-binder family sees its
argument as index 0.  Telescope entries are listed outermost first and each
entry may mention all earlier ones.

An application spine is walked once, by ``_spine_steps``.  The telescope
computation witness is built up the telescope in a loop, so a longer
telescope goes no deeper on the Python stack.

Everything here materializes eagerly.  Emitted terms are not minimized or
hash-consed, but an instance from ``instantiate`` shares its family's closed
subterms: only the nodes above the family's variables are new objects.  As
trees, transport alone multiplies the family size by a small constant, and
the telescope constructions grow multiplicatively with telescope length.
That growth is inherent to storing conversions inside proof terms and is the
price this calculus pays for never normalizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .checker import Certificate, HasType, TypeWF, certify, check, instantiate
from .kernel import APP, BETA, ID, IDCONV, IDREC, LAM, PI, REFL, VAR
from .subst import inst, shift
from .terms import Context, Signature, Telescope, Term

__all__ = [
    "ElabResult", "ElabError", "RecheckFailure",
    "transport", "symmetry", "transitivity", "congruence_app",
    "telescope_pi", "TelescopePi", "telescope_idrec", "telescope_idconv",
]


class ElabError(Exception):
    """A precondition of an emitter does not hold.  ``precondition`` holds
    the words that name it, as the message gives them after "precondition
    failed: ", or None for a malformed call."""

    def __init__(self, message, precondition=None):
        super().__init__(message)
        self.precondition = precondition


class RecheckFailure(Exception):
    """An emitted term failed its own recheck (an internal bug, not bad input)."""


@dataclass(frozen=True)
class ElabResult:
    term: Term
    stated_type: Term
    # the kernel's certificate for the judgement, None for a leaf term over
    # the empty context
    certificate: Optional[Certificate] = field(compare=False, repr=False)


def _certified(sig, j, what=None, entry_what=None):
    """Certify ``j``; returns its certificate, which the caller holds (in a
    local list until its own result is sealed, when ``j`` is a
    precondition).  With ``what``, ``j`` is a precondition and a failure is
    an ElabError; a failure at context entry ``i`` of a type is reported as
    ``entry_what(i)`` when that is given, so one judgement can stand for the
    checks of the entries it extends the context by.  Without ``what``,
    ``j`` was emitted and a failure is a construction bug."""
    report, cert = certify(sig, j)
    if report.ok:
        return cert
    if what is None:
        kind = "term" if isinstance(j, HasType) else "type"
        raise RecheckFailure(
            f"emitted {kind} failed recheck: {report.reason} at {report.locus}")
    if entry_what is not None and report.locus[0] != "type":
        what = entry_what(report.locus[0][1])
    raise ElabError(f"precondition failed: {what}", what)


def _instance(family, cert, ctx, extra, s, held):
    """The instance of ``family`` (over ``ctx`` and one more entry) at
    ``s`` over ``ctx + extra``: ``s`` for the family's variable, the others
    weakened past ``extra``.  With the family's certificate the kernel types
    it by the substitution lemma and the instance's certificate, if any, is
    appended to ``held``; a family too small to have a certificate is
    materialized and left to the rules."""
    if cert is None:
        return inst(family, (s,), len(extra))
    report, out, issued = instantiate(cert, ctx + extra, s)
    if not report.ok:
        raise RecheckFailure(f"instance refused: {report.reason} at {report.locus}")
    if issued is not None:
        held.append(issued)
    return out


def _sealed(sig, ctx, term, ty) -> ElabResult:
    """Recheck an emitted term.  The caller's local list of precondition
    certificates keeps them alive until this returns."""
    return ElabResult(term, ty, _certified(sig, HasType(ctx, term, ty)))


# transport's words for its family check, whose context stage checks the
# family's base
_FAMILY_WORDS = "transport: family is a type"
_BASE_WORDS = "transport: base is a type"


def _own_words(sig, emitter, refused, preconditions, implied=0):
    """Name a precondition that the transport inside ``emitter`` refused in
    ``emitter``'s own words.  Called while that refusal, the ElabError
    ``refused``, is handled, it checks ``emitter``'s preconditions,
    (judgement, words) pairs in reading order, one by one, and raises the
    first that fails as an ElabError; if all hold, it returns and the caller
    re-raises the transport's.  The first ``implied`` preconditions follow
    from the transport's family being a type, so unless ``refused`` is that
    check they hold, and only the rest are checked.  Only a rejection pays
    for it."""
    if refused.precondition not in (_FAMILY_WORDS, _BASE_WORDS):
        preconditions = preconditions[implied:]
    for j, what in preconditions:
        if not check(sig, j).ok:
            what = f"{emitter}: {what}"
            raise ElabError(f"precondition failed: {what}", what) from None


def transport(sig: Signature, ctx: Context, family_over: Term, family: Term,
              src: Term, dst: Term, path: Term, point: Term) -> ElabResult:
    """Leibniz principle: move ``point : family[src]`` to ``family[dst]``
    along ``path : Id(family_over, src, dst)``.

    The carrier is an identity eliminator at the motive "functions from the
    family at the left endpoint to the family at the right endpoint", whose
    base case is the identity function; the result applies that function to
    ``point``.
    """
    # the family's context stage checks the base
    fam = _certified(sig, TypeWF(ctx + (family_over,), family),
                     _FAMILY_WORDS, lambda i: _BASE_WORDS)
    held = [fam, _certified(sig, HasType(ctx, path, (ID, family_over, src, dst)),
                            "transport: path relates the endpoints")]
    fam_src = _instance(family, fam, ctx, (), src, held)
    fam_dst = _instance(family, fam, ctx, (), dst, held)
    held.append(_certified(sig, HasType(ctx, point, fam_src),
                           "transport: point inhabits the source fiber"))

    # Motive over (x, y, u): functions from family[x] to family[y].  At the
    # domain the binders in scope are x,y,u so x is index 2; the codomain
    # adds its own binder, putting y at index 2 as well.
    binders = _ctx3((), family_over)
    dom = _instance(family, fam, ctx, binders, (VAR, 2), held)
    motive = (PI, dom, _instance(family, fam, ctx, binders + (dom,), (VAR, 2), held))
    if fam is not None:
        # with the motive's certificate the recheck leaves the motive at
        # reflexivity unwritten; both instances in it are certified, so the
        # check compares contexts
        held.append(_certified(sig, TypeWF(ctx + binders, motive)))
    # Base: under x the identity function on family[x].  The domain is the
    # family itself: x is its own index 0.
    base = (LAM, family, _instance(family, fam, ctx, (family_over, family), (VAR, 1), held),
            (VAR, 0))
    carrier = (IDREC, family_over, motive, src, dst, path, base)
    # The carrier's type is the motive at (src, dst, path), i.e. functions
    # from family[src] to family[dst]; apply it to the point.
    codomain = _instance(family, fam, ctx, (fam_src,), shift(dst, 1), held)
    term = (APP, fam_src, codomain, carrier, point)
    return _sealed(sig, ctx, term, fam_dst)


def symmetry(sig: Signature, ctx: Context, over: Term, lhs: Term, rhs: Term,
             path: Term) -> ElabResult:
    """From ``path : Id(over, lhs, rhs)`` emit a term of ``Id(over, rhs, lhs)``:
    transport of reflexivity at the family "x equals lhs"."""
    family = (ID, shift(over, 1), (VAR, 0), shift(lhs, 1))
    try:
        return transport(sig, ctx, over, family, lhs, rhs, path, (REFL, over, lhs))
    except ElabError as refused:
        # a family over ``over`` that states ``lhs`` at it is a type only if
        # ``over`` is one and ``lhs`` inhabits it
        _own_words(sig, "symmetry", refused, (
            (TypeWF(ctx, over), "endpoint type is a type"),
            (HasType(ctx, lhs, over), "lhs inhabits the endpoint type"),
            (HasType(ctx, rhs, over), "rhs inhabits the endpoint type"),
            (HasType(ctx, path, (ID, over, lhs, rhs)), "path relates lhs and rhs"),
        ), implied=2)
        raise


def transitivity(sig: Signature, ctx: Context, over: Term, a: Term, b: Term,
                 c: Term, path_ab: Term, path_bc: Term) -> ElabResult:
    """Chain ``Id(over, a, b)`` and ``Id(over, b, c)`` into ``Id(over, a, c)``:
    transport ``path_ab`` along ``path_bc`` at the family "a equals x".
    Transport in that family is post-composition (Univalent Foundations
    Program, *Homotopy Type Theory*, 2013, Lemma 2.11.2), so one transport
    composes the two paths and neither is reversed."""
    family = (ID, shift(over, 1), shift(a, 1), (VAR, 0))
    try:
        return transport(sig, ctx, over, family, b, c, path_bc, path_ab)
    except ElabError as refused:
        # a family over ``over`` that states ``a`` at it is a type only if
        # ``over`` is one and ``a`` inhabits it
        _own_words(sig, "transitivity", refused, (
            (TypeWF(ctx, over), "endpoint type is a type"),
            (HasType(ctx, a, over), "a inhabits the endpoint type"),
            (HasType(ctx, b, over), "b inhabits the endpoint type"),
            (HasType(ctx, c, over), "c inhabits the endpoint type"),
            (HasType(ctx, path_ab, (ID, over, a, b)), "first path relates a and b"),
            (HasType(ctx, path_bc, (ID, over, b, c)), "second path relates b and c"),
        ), implied=2)
        raise


def congruence_app(sig: Signature, ctx: Context, domain: Term, codomain: Term,
                   fun_a: Term, fun_b: Term, path: Term, arg: Term) -> ElabResult:
    """Action on paths in the function position of an application: from
    ``path : Id(Pi(domain, codomain), fun_a, fun_b)`` emit an equality between
    the two applications at ``arg``."""
    fun_ty = (PI, domain, codomain)
    steps, result_ty = _spine_steps(fun_ty, (arg,))
    try:
        return _spine_congruence(sig, ctx, fun_ty, fun_a, fun_b, path, steps, (arg,),
                                 result_ty)
    except ElabError as refused:
        _own_words(sig, "congruence_app", refused, (
            (TypeWF(ctx, domain), "domain is a type"),
            (TypeWF(ctx + (domain,), codomain), "codomain is a type over the domain"),
            (HasType(ctx, fun_a, fun_ty), "fun_a has the product type"),
            (HasType(ctx, fun_b, fun_ty), "fun_b has the product type"),
            (HasType(ctx, path, (ID, fun_ty, fun_a, fun_b)), "path relates fun_a and fun_b"),
            (HasType(ctx, arg, domain), "arg inhabits the domain"),
        ))
        raise


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


def _spine_steps(fun_ty, args):
    """Annotation steps ((dom, cod) per argument) and the result type for
    applying a function of the product type ``fun_ty`` to ``args``."""
    steps = []
    for arg in args:
        _, dom, cod = fun_ty
        steps.append((dom, cod))
        fun_ty = inst(cod, (arg,))
    return tuple(steps), fun_ty


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
        # one judgement: its context stage checks the entries in order, and
        # an ill-formed ``ctx`` counts against the first entry, or with none
        # against the body
        first = len(ctx)
        self._held = _certified(
            sig, TypeWF(ctx + self.delta, body), "telescope body is a type",
            (lambda i: f"telescope entry {max(i - first, 0)} is a type")
            if self.delta else None)
        # suffix[j] = product over entries j.. (suffix[0] is the full type)
        self.suffixes = [body]
        for entry in reversed(self.delta):
            self.suffixes.insert(0, (PI, entry, self.suffixes[0]))
        self.pi_type: Term = self.suffixes[0]

    def _check_body(self, body_term):
        """Check a term of the body type over the whole telescope; returns
        its certificate."""
        return _certified(self.sig, HasType(self.ctx + self.delta, body_term, self.body),
                          "body term inhabits the telescope body")

    def lam(self, body_term: Term) -> ElabResult:
        """Abstract a term over the whole telescope."""
        held = self._check_body(body_term)  # noqa: F841 - alive until sealed
        term = body_term
        for j in range(len(self.delta) - 1, -1, -1):
            term = (LAM, self.delta[j], self.suffixes[j + 1], term)
        return _sealed(self.sig, self.ctx, term, self.pi_type)

    def _check_args(self, args):
        """Check each argument against its entry; returns the annotation
        steps of the application spine, its result type and the arguments'
        certificates."""
        if len(args) != len(self.delta):
            raise ElabError("argument sequence length differs from telescope length")
        steps, held, ty = [], [], self.pi_type
        for i, arg in enumerate(args):
            # each argument is checked before the spine substitutes it
            held.append(_certified(self.sig, HasType(self.ctx, arg, ty[1]),
                                   f"argument {i} inhabits its telescope entry"))
            step, ty = _spine_steps(ty, (arg,))
            steps += step
        return steps, ty, held

    def app(self, fun: Term, args) -> ElabResult:
        """Apply a function of the telescope product type to an argument
        sequence (a context morphism into the telescope)."""
        args = tuple(args)
        steps, result_ty, held = self._check_args(args)
        held.append(_certified(self.sig, HasType(self.ctx, fun, self.pi_type),
                               "function has the telescope product type"))
        return _sealed(self.sig, self.ctx, _spine_app(steps, fun, args, 0), result_ty)

    def betaconv(self, body_term: Term, args) -> ElabResult:
        """The computation witness: the telescope application of the
        telescope abstraction of ``body_term`` at ``args`` equals the
        instantiated body.

        Built up the telescope in a loop: the primitive witness for the
        first entry, then for each later one congruence in the function
        position along the witness so far, chained by transitivity with the
        one-variable witness.  With no entries reflexivity is the witness.
        """
        args = tuple(args)
        # the arguments' and the body's certificates are held until the
        # witness is sealed
        _, _, held = self._check_args(args)
        held.append(self._check_body(body_term))
        return _beta_witness(self.sig, self.ctx, self.delta, self.body,
                             body_term, args)


def telescope_pi(sig: Signature, ctx: Context, delta: Telescope, body: Term) -> TelescopePi:
    return TelescopePi(sig, ctx, delta, body)


def _beta_witness(sig, ctx, entries, body_ty, body, args) -> ElabResult:
    """The sealed witness, stated as the Id type between the spine and the
    instantiated body.  Under its first ``m`` entries the later ones are
    abstracted into the body, so the witness for ``m = 1`` is primitive."""
    if not entries:
        return _sealed(sig, ctx, (REFL, body_ty, body), (ID, body_ty, body, body))
    # bodies[-m] is the body under the first m entries; ty that body's type
    # under the first one
    bodies, ty = [body], body_ty
    for entry in reversed(entries[1:]):
        bodies.append((LAM, entry, ty, bodies[-1]))
        ty = (PI, entry, ty)
    dom, arg, first = entries[0], args[0], bodies.pop()
    witness = _sealed(sig, ctx, (BETA, dom, ty, arg, first), (
        ID, inst(ty, (arg,)),
        (APP, dom, ty, (LAM, dom, ty, first), arg),
        inst(first, (arg,)),
    ))
    for m in range(1, len(entries)):
        # the witness so far stays alive while its term is the congruence's
        # path, so its certificate discharges that precondition
        _, pi_inst, spine_head, lam_inst = witness.stated_type
        last_arg = args[m]
        step, result_ty = _spine_steps(pi_inst, (last_arg,))
        # rewrite the head of the final application along the witness so far
        cong = _spine_congruence(sig, ctx, pi_inst, spine_head, lam_inst, witness.term,
                                 step, (last_arg,), result_ty)
        # one-variable computation witness at the substituted data
        body_inst = inst(bodies.pop(), tuple(reversed(args[:m])), 0, 1)
        ((dom_i, cod_i),) = step
        bc = (BETA, dom_i, cod_i, last_arg, body_inst)
        lhs = _spine_app(step, spine_head, (last_arg,), 0)
        mid = _spine_app(step, lam_inst, (last_arg,), 0)
        rhs = inst(body_inst, (last_arg,))
        witness = transitivity(sig, ctx, result_ty, lhs, mid, rhs, cong.term, bc)
    return witness


def _ctx3(ctx: Context, over: Term) -> Context:
    """Extend a context by the identity-elimination binders x, y, x = y."""
    return ctx + (over, shift(over, 1), (ID, shift(over, 2), (VAR, 1), (VAR, 0)))


def _product_at(sig, ctx, delta, motive, triple, outer=0):
    """The telescope product of ``motive`` over ``delta``, both over (ctx,
    x, y, x = y), at ``triple`` for the three binders (the path first): the
    product over ``ctx`` extended by the ``outer`` entries that ``triple``
    lives under."""
    return telescope_pi(
        sig, ctx, tuple(inst(entry, triple, outer, j) for j, entry in enumerate(delta)),
        inst(motive, triple, outer, len(delta)))


def _product_motive(sig, ctx, over, delta, motive, base):
    """(big_motive, s) for a telescope identity eliminator: the telescope
    product of ``motive``, a plain motive over (ctx, x, y, x = y), and its
    base case ``s``, which abstracts ``base`` over the telescope at
    reflexivity."""
    product = telescope_pi(sig, _ctx3(ctx, over), delta, motive)
    refl_triple = ((REFL, shift(over, 1), (VAR, 0)), (VAR, 0), (VAR, 0))
    s = _product_at(sig, ctx + (over,), delta, motive, refl_triple, 1).lam(base).term
    return product.pi_type, s


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
    big_motive, s = _product_motive(sig, ctx, over, delta, motive, base)
    carrier = (IDREC, over, big_motive, lhs, rhs, path, s)
    # apply the carrier through the telescope instantiated at the endpoints
    return _product_at(sig, ctx, delta, motive, (path, rhs, lhs)).app(carrier, args)


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
    # held until the witness is sealed
    held = _certified(sig, HasType(ctx, point, over),  # noqa: F841
                      "point inhabits the base type")
    rfl = (REFL, over, point)
    big_motive, s = _product_motive(sig, ctx, over, delta, motive, base)

    if k == 0:
        term = (IDCONV, over, big_motive, point, s)
        stated = (
            ID, inst(big_motive, (rfl, point, point)),
            (IDREC, over, big_motive, point, point, rfl, s),
            inst(s, (point,)),
        )
        return _sealed(sig, ctx, term, stated)

    point_triple = (rfl, point, point)
    product_pt = _product_at(sig, ctx, delta, motive, point_triple)
    base_at_point = inst(base, (point,), 0, k)
    # the telescope computation witness for the product, which finishes the
    # chain below; it also checks each argument against its entry
    tail = product_pt.betaconv(base_at_point, args)

    carrier = (IDREC, over, big_motive, point, point, rfl, s)
    s_at_point = inst(s, (point,))
    big_motive_pt = inst(big_motive, point_triple)

    # the primitive computation witness rewrites the spine head
    idc = (IDCONV, over, big_motive, point, s)
    steps, result_ty = _spine_steps(product_pt.pi_type, args)
    cong = _spine_congruence(sig, ctx, big_motive_pt, carrier, s_at_point, idc,
                             steps, args, result_ty)
    lhs = _spine_app(steps, carrier, args, 0)
    rhs = inst(base_at_point, tuple(reversed(args)))
    return transitivity(sig, ctx, result_ty, lhs,
                        _spine_app(steps, s_at_point, args, 0), rhs,
                        cong.term, tail.term)
