"""Term emitters for the admissible rules: transport, equality reasoning and
telescope (multi-binder) products and identity elimination.

Since the theory has no definitional equality, these rules do not come for
free: each is realized by an explicit construction whose output is a plain
core term.  Admissibility is witnessed operationally: every returned term was
accepted by the kernel at its stated type, and a RecheckFailure here always
means a construction bug, never user error.

Every sealed result and every precondition is checked with
``ott.checker.certify``, and the emitter holds the certificate it returns: a
result's for as long as the result lives (``ElabResult.certificate``), a
precondition's until the emitter's own result is sealed (a telescope
product's for as long as the product lives).  While a certificate is held,
the kernel discharges an obligation on its term or type object at the
certified context (and type) by comparison, both when the object comes back
as a precondition and when it sits inside a larger emitted term: the
reversed path inside transitivity's transport, the induction hypothesis
inside betaconv's congruence, the point inside transport's application.

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

# ``check`` is not called here, but stays a name of this module: profilers
# and tests wrap the kernel entry points where the elaborators import them
from .checker import Certificate, HasType, TypeWF, certify, check, instantiate  # noqa: F401
from .kernel import APP, BETA, ID, IDCONV, IDREC, LAM, PI, REFL, VAR
from .subst import inst, shift
from .terms import Context, Signature, Telescope, Term

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
    # the kernel's certificate for the judgement, None for a leaf term
    certificate: Optional[Certificate] = field(compare=False, repr=False)


def _require(sig, ctx, term, ty, what):
    """Check a precondition; returns its certificate, which the emitter
    holds until its own result is sealed."""
    report, cert = certify(sig, HasType(ctx, term, ty))
    if not report.ok:
        raise ElabError(f"precondition failed: {what}")
    return cert


def _require_type(sig, ctx, ty, what, entry_what=None):
    """Check a type precondition; returns its certificate, held like a
    term precondition's.  A failure at context entry ``i`` is reported as
    ``entry_what(i)`` when that is given, so one judgement can stand for the
    checks of the entries it extends the context by."""
    report, cert = certify(sig, TypeWF(ctx, ty))
    if not report.ok:
        locus = report.locus[0]
        if entry_what is not None and locus != "type":
            what = entry_what(locus[1])
        raise ElabError(f"precondition failed: {what}")
    return cert


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


def _certified_type(sig, ctx, ty):
    """The certificate of an emitted type; as with a term, a failure is a
    construction bug."""
    report, cert = certify(sig, TypeWF(ctx, ty))
    if not report.ok:
        raise RecheckFailure(f"emitted type failed recheck: {report.reason} at {report.locus}")
    return cert


def _sealed(sig, ctx, term, ty, held=()) -> ElabResult:
    """Recheck an emitted term; ``held`` keeps the certificates of the
    emitter's preconditions alive until then."""
    report, cert = certify(sig, HasType(ctx, term, ty))
    if not report.ok:
        raise RecheckFailure(
            f"emitted term failed recheck: {report.reason} at {report.locus}"
        )
    return ElabResult(term, ty, ctx, cert)


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
    fam = _require_type(sig, ctx + (family_over,), family, "transport: family is a type",
                        lambda i: "transport: base is a type")
    held = [fam, _require(sig, ctx, path, (ID, family_over, src, dst),
                          "transport: path relates the endpoints")]
    fam_src = _instance(family, fam, ctx, (), src, held)
    fam_dst = _instance(family, fam, ctx, (), dst, held)
    held.append(_require(sig, ctx, point, fam_src,
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
        held.append(_certified_type(sig, ctx + binders, motive))
    # Base: under x the identity function on family[x].  The domain is the
    # family itself: x is its own index 0.
    base = (LAM, family, _instance(family, fam, ctx, (family_over, family), (VAR, 1), held),
            (VAR, 0))
    carrier = (IDREC, family_over, motive, src, dst, path, base)
    # The carrier's type is the motive at (src, dst, path), i.e. functions
    # from family[src] to family[dst]; apply it to the point.
    codomain = _instance(family, fam, ctx, (fam_src,), shift(dst, 1), held)
    term = (APP, fam_src, codomain, carrier, point)
    return _sealed(sig, ctx, term, fam_dst, held)


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
    result_ty = inst(codomain, (arg,))
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
        cur_ty = inst(cod, (arg,))
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
        # one judgement: its context stage checks the entries in order, and
        # an ill-formed ``ctx`` counts against the first entry, or with none
        # against the body
        first = len(ctx)
        self._held = _require_type(
            sig, ctx + self.delta, body, "telescope body is a type",
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
        return _require(self.sig, self.ctx + self.delta, body_term, self.body,
                        "body term inhabits the telescope body")

    def lam(self, body_term: Term) -> ElabResult:
        """Abstract a term over the whole telescope."""
        held = self._check_body(body_term)
        term = _lam_fold(self.delta, self.suffixes, body_term)
        return _sealed(self.sig, self.ctx, term, self.pi_type, held)

    def _check_args(self, args):
        if len(args) != len(self.delta):
            raise ElabError("argument sequence length differs from telescope length")
        scope_ty = self.pi_type
        held = []
        for i, arg in enumerate(args):
            dom = scope_ty[1]
            held.append(_require(self.sig, self.ctx, arg, dom,
                                 f"argument {i} inhabits its telescope entry"))
            scope_ty = inst(scope_ty[2], (arg,))
        return scope_ty, held

    def app(self, fun: Term, args) -> ElabResult:
        """Apply a function of the telescope product type to an argument
        sequence (a context morphism into the telescope)."""
        args = tuple(args)
        result_ty, held = self._check_args(args)
        held.append(_require(self.sig, self.ctx, fun, self.pi_type,
                             "function has the telescope product type"))
        steps, _ = _spine_steps(self.delta, self.body, args)
        term = _spine_app(steps, fun, args, 0)
        return _sealed(self.sig, self.ctx, term, result_ty, held)

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
        # the arguments' and the body's certificates are held until the
        # witness is sealed
        _, held = self._check_args(args)
        held.append(self._check_body(body_term))
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
            ID, inst(body_ty, (arg,)),
            (APP, dom, body_ty, (LAM, dom, body_ty, body), arg),
            inst(body, (arg,)),
        )
        return _sealed(sig, ctx, term, stated)
    front, last = entries[:-1], entries[-1]
    front_args, last_arg = args[:-1], args[-1]
    inner_ty = (PI, last, body_ty)
    inner_lam = (LAM, last, body_ty, body)
    # ``ih`` stays alive while its term is the congruence's path, so its
    # certificate discharges that precondition
    ih = _beta_witness(sig, ctx, front, inner_ty, inner_lam, front_args)
    _, pi_inst, spine_head, lam_inst = ih.stated_type
    _, dom_i, cod_i = pi_inst
    step = ((dom_i, cod_i),)
    result_ty = inst(cod_i, (last_arg,))
    # rewrite the head of the final application along the induction hypothesis
    cong = _spine_congruence(sig, ctx, pi_inst, spine_head, lam_inst, ih.term,
                             step, (last_arg,), result_ty)
    # one-variable computation witness at the substituted data
    rev = tuple(reversed(front_args))
    body_inst = inst(body, rev, 0, 1)
    bc = (BETA, dom_i, cod_i, last_arg, body_inst)
    lhs = _spine_app(step, spine_head, (last_arg,), 0)
    mid = _spine_app(step, lam_inst, (last_arg,), 0)
    rhs = inst(body_inst, (last_arg,))
    return transitivity(sig, ctx, result_ty, lhs, mid, rhs, cong.term, bc)


def _ctx3(ctx: Context, over: Term) -> Context:
    """Extend a context by the identity-elimination binders x, y, x = y."""
    return ctx + (over, shift(over, 1), (ID, shift(over, 2), (VAR, 1), (VAR, 0)))


def _subst_tele(delta, triple, outer):
    """Instantiate the three elimination binders under each telescope entry."""
    return tuple(inst(entry, triple, outer, j) for j, entry in enumerate(delta))


def _product_motive(sig, ctx, over, delta, motive, base):
    """(big_motive, s) for a telescope identity eliminator: the telescope
    product of ``motive``, a plain motive over (ctx, x, y, x = y), and its
    base case ``s``, which abstracts ``base`` over the telescope at
    reflexivity."""
    product = telescope_pi(sig, _ctx3(ctx, over), delta, motive)
    a1 = shift(over, 1)
    refl_triple = ((REFL, a1, (VAR, 0)), (VAR, 0), (VAR, 0))
    delta_refl = _subst_tele(delta, refl_triple, 1)
    motive_refl = inst(motive, refl_triple, 1, len(delta))
    product_refl = telescope_pi(sig, ctx + (over,), delta_refl, motive_refl)
    return product.pi_type, product_refl.lam(base).term


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
    big_motive, s = _product_motive(sig, ctx, over, delta, motive, base)
    carrier = (IDREC, over, big_motive, lhs, rhs, path, s)
    # apply the carrier through the telescope instantiated at the endpoints
    end_triple = (path, rhs, lhs)
    delta_end = _subst_tele(delta, end_triple, 0)
    motive_end = inst(motive, end_triple, 0, k)
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
    # held until the witness is sealed
    held = _require(sig, ctx, point, over, "point inhabits the base type")
    rfl = (REFL, over, point)
    big_motive, s = _product_motive(sig, ctx, over, delta, motive, base)

    if k == 0:
        term = (IDCONV, over, big_motive, point, s)
        stated = (
            ID, inst(big_motive, (rfl, point, point)),
            (IDREC, over, big_motive, point, point, rfl, s),
            inst(s, (point,)),
        )
        return _sealed(sig, ctx, term, stated, held)

    point_triple = (rfl, point, point)
    delta_pt = _subst_tele(delta, point_triple, 0)
    motive_pt = inst(motive, point_triple, 0, k)
    product_pt = telescope_pi(sig, ctx, delta_pt, motive_pt)
    base_at_point = inst(base, (point,), 0, k)
    # the telescope computation witness for the product, which finishes the
    # chain below; it also checks each argument against its entry
    tail = product_pt.betaconv(base_at_point, args)

    carrier = (IDREC, over, big_motive, point, point, rfl, s)
    s_at_point = inst(s, (point,))
    big_motive_pt = inst(big_motive, point_triple)

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
    return inst(body, tuple(reversed(args)))
