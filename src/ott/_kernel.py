"""Hot term operations over the tuple-encoded syntax tree.

Terms are plain tuples with an integer tag in slot 0 (Lisp style):

    (VAR, i)                        de Bruijn index, 0 = innermost binder
    (CONST, name)                   signature constant
    (PI, dom, cod)                  cod binds 1
    (LAM, dom, cod, body)           cod, body bind 1
    (APP, dom, cod, fun, arg)       cod binds 1
    (BETA, dom, cod, arg, body)     cod, body bind 1
    (ID, over, lhs, rhs)
    (REFL, over, point)
    (IDREC, over, motive, lhs, rhs, path, base)     motive binds 3, base binds 1
    (IDCONV, over, motive, point, base)             motive binds 3, base binds 1
    (NAT,) (ZERO,)
    (SUCC, pred)
    (NATREC, motive, zcase, scase, scrut)           motive binds 1, scase binds 2
    (NATCONVZERO, motive, zcase, scase)
    (NATCONVSUCC, motive, zcase, scase, pred)

Every constructor except VAR/CONST carries only term children, so generic
traversal is ``node[1:]``.  Multi-binder slots bind innermost-last: in a
3-binder motive the third entry is index 0.

A substitution environment is a triple ``(lift, terms, outer)`` applied to a
variable ``i`` at binder depth ``d`` (``d`` starts at ``lift``):

    i < d                   untouched
    d <= i < d+len(terms)   terms[i-d] shifted by d (terms live outside all d binders)
    i >= d+len(terms)       renumbered to i - len(terms) + outer

``(cutoff, (), by)`` is therefore a plain shift and ``(0, (a,), 0)`` the usual
single substitution.  ``eq_lazy`` compares a term *under* such an environment
against a concrete target without materializing the substitution; its cost is
bounded by the target's size, which is what the checker's complexity argument
needs.  Comparison steps and materialized node counts are returned to the
caller so the checker can keep a deterministic step counter.

A leaf (a constant or a one-slot node such as ``Nat``) costs one step in
either operation: one head comparison in ``eq_lazy``, one node for ``inst``,
which returns the leaf itself.  The checker decides leaf comparisons and
substitutions inline and charges exactly these costs, so its step counts
do not depend on which calls it makes.
"""

VAR = 0
CONST = 1
PI = 2
LAM = 3
APP = 4
BETA = 5
ID = 6
REFL = 7
IDREC = 8
IDCONV = 9
NAT = 10
ZERO = 11
SUCC = 12
NATREC = 13
NATCONVZERO = 14
NATCONVSUCC = 15
CLO = 16

# Binder count per child slot, indexed by tag.  VAR/CONST/NAT/ZERO have no
# term children.
BINDERS = (
    (),  # VAR
    (),  # CONST
    (0, 1),  # PI
    (0, 1, 1),  # LAM
    (0, 1, 0, 0),  # APP
    (0, 1, 0, 1),  # BETA
    (0, 0, 0),  # ID
    (0, 0),  # REFL
    (0, 3, 0, 0, 0, 1),  # IDREC
    (0, 3, 0, 1),  # IDCONV
    (),  # NAT
    (),  # ZERO
    (0,),  # SUCC
    (1, 0, 2, 0),  # NATREC
    (1, 0, 2),  # NATCONVZERO
    (1, 0, 2, 0),  # NATCONVSUCC
)

def size(t):
    """Node count of a term; strictly positive, additive over children."""
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        n += 1
        if x[0] > CONST and len(x) > 1:
            stack.extend(x[1:])
    return n


def inst(t, terms, outer, lift):
    """Eager simultaneous substitution; returns ``(term, node_count)``.

    ``node_count`` is the size of the output, i.e. what a cost model charges
    for materializing the result; the identity environment shares the input
    and charges zero.  Raises ValueError if a variable would be renumbered
    below zero.
    """
    m = len(terms)
    if m == 0 and outer == 0:
        return t, 0
    out = []
    work = [(t, lift, 0)]
    count = 0
    while work:
        node, d, state = work.pop()
        tag = node[0]
        if state:
            nch = len(node) - 1
            lo = len(out) - nch
            node = (tag,) + tuple(out[lo:])
            del out[lo:]
            out.append(node)
            count += 1
            continue
        if tag == VAR:
            i = node[1]
            if i < d:
                out.append(node)
            elif i - d < m:
                sub = terms[i - d]
                if d == 0:
                    out.append(sub)
                    count += size(sub) - 1
                else:
                    shifted, c = inst(sub, (), d, 0)
                    out.append(shifted)
                    count += c - 1
            else:
                j = i - m + outer
                if j < 0:
                    raise ValueError("de Bruijn index underflow in substitution")
                out.append((VAR, j))
            count += 1
        elif tag == CONST or len(node) == 1:
            out.append(node)
            count += 1
        else:
            work.append((node, d, 1))
            binders = BINDERS[tag]
            k = len(node) - 1
            while k >= 1:
                work.append((node[k], d + binders[k - 1], 0))
                k -= 1
    return out[0], count


def eq_lazy(expected, target):
    """Compare a term skeleton against a concrete target term.

    ``expected`` may contain ``(CLO, body, env)`` leaves standing for *body
    under the substitution env*; such closures are expanded one head at a
    time, so comparison aborts at the first mismatch and never walks past the
    target.  ``target`` must be closure-free.  Returns ``(equal, steps)``
    where ``steps`` counts head comparisons (bounded by size(target) plus one
    when the terms are equal).
    """
    steps = 0
    stack = [(expected, target)]
    while stack:
        e, t = stack.pop()
        etag = e[0]
        while etag == CLO:
            body = e[1]
            env = e[2]
            lift = env[0]
            terms = env[1]
            btag = body[0]
            if btag == VAR:
                i = body[1]
                if i < lift:
                    e = body
                elif i - lift < len(terms):
                    sub = terms[i - lift]
                    if lift == 0:
                        e = sub
                    else:
                        e = (CLO, sub, (0, (), lift))
                else:
                    e = (VAR, i - len(terms) + env[2])
                etag = e[0]
            elif btag == CONST or len(body) == 1:
                e = body
                etag = btag
            else:
                steps += 1
                if btag != t[0]:
                    return False, steps
                binders = BINDERS[btag]
                k = len(body) - 1
                while k >= 1:
                    b = binders[k - 1]
                    cenv = env if b == 0 else (lift + b, terms, env[2])
                    stack.append(((CLO, body[k], cenv), t[k]))
                    k -= 1
                break
        else:
            steps += 1
            if etag != t[0]:
                return False, steps
            if etag == VAR or etag == CONST:
                if e[1] != t[1]:
                    return False, steps
            elif len(e) > 1:
                k = len(e) - 1
                while k >= 1:
                    stack.append((e[k], t[k]))
                    k -= 1
    return True, steps
