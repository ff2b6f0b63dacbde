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

``inst_open`` is ``inst`` at lift 0 for a term whose ``open_spine`` is
known: it writes only the nodes above a variable that escapes the term and
shares every closed subterm, so a family written many times is walked for
its spine once.

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

    ``node_count`` is the tree size of the output, i.e. what a cost model
    charges for materializing the result, also where the output shares
    nodes (a substituted term, or a leaf, is shared, not copied); the
    identity environment shares the input and charges zero.  Raises
    ValueError if a variable would be renumbered below zero.
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


def open_spine(t):
    """The open spine of ``t``, its nodes below which a variable escapes
    ``t``, for ``inst_open``: None when ``t`` is closed, else ``(size(t),
    tree)``.  An open node's tree is a list ``[k1, tree1, k2, tree2, ...]``
    of its open children's slots and trees, an escaping variable's is
    ``()``, and every child not listed is closed: no substitution changes
    it."""
    n = 1
    tag = t[0]
    if tag == VAR:
        return n, ()
    if tag == CONST or len(t) == 1:
        return None
    # work items are (node, depth, parent's item, slot in the parent, tree),
    # the tree empty until a variable below the node is found to escape
    root = (t, 0, None, 0, [])
    work = [root]
    while work:
        item = work.pop()
        node, d = item[0], item[1]
        binders = BINDERS[node[0]]
        k = len(node) - 1
        n += k
        while k >= 1:
            child = node[k]
            tag = child[0]
            if tag == VAR:
                if child[1] >= d + binders[k - 1]:
                    # open the path up to the first node that is open already
                    tree, slot, up = (), k, item
                    while up is not None:
                        above = up[4]
                        was_open = bool(above)
                        above += (slot, tree)
                        if was_open:
                            break
                        tree, slot, up = above, up[3], up[2]
            elif tag != CONST and len(child) > 1:
                work.append((child, d + binders[k - 1], item, k, []))
            k -= 1
    return (n, root[4]) if root[4] else None


def inst_open(t, spine, terms, outer):
    """``inst(t, terms, outer, 0)``, ``terms`` not empty, for an open ``t``
    whose ``open_spine`` is ``spine``: only the open nodes are written, and
    every closed child is ``t``'s own object.  The count is still the tree
    size of the output, as ``inst`` counts it: ``size(t)``, with each
    escaping variable counted as what ``inst`` writes for it."""
    count, tree = spine
    out = []
    work = [(t, tree, 0)]
    while work:
        node, tree, d = work.pop()
        if d is None:
            # the open children are written: put them in their slots
            kids = list(node)
            i = len(tree) - 2
            while i >= 0:
                kids[tree[i]] = out.pop()
                i -= 2
            out.append(tuple(kids))
        elif tree:
            work.append((node, tree, None))
            binders = BINDERS[node[0]]
            i = len(tree) - 2
            while i >= 0:
                k = tree[i]
                work.append((node[k], tree[i + 1], d + binders[k - 1]))
                i -= 2
        else:
            v, c = inst(node, terms, outer, d)
            out.append(v)
            count += c - 1
    return out[0], count


def _provenance(index, x):
    """``x``'s provenance ``(family, s, k, n)`` from the oldest live entry
    that ``index`` holds for the object, else None."""
    for ref in index.get(id(x), ()):
        holder = ref()
        if holder is not None:
            return holder.provenance
    return None


def _components(index, x, env, y):
    """The pairs that decide ``x`` under ``env`` against the target ``y``
    when both are live instances of one family object, else None: ``x``'s
    component under the environment against ``y``'s, then one pair per
    outer variable of the family."""
    px = _provenance(index, x)
    py = None if px is None else _provenance(index, y)
    if py is None or py[0] is not px[0]:
        return None
    k1, k2 = px[2], py[2]
    pairs = [((CLO, (VAR, i + k1), env), (VAR, i + k2)) for i in range(py[3])]
    pairs.append(((CLO, px[1], env), py[1]))
    return pairs


def eq_lazy(expected, target, index=None):
    """Compare a term skeleton against a concrete target term.

    ``expected`` may contain ``(CLO, body, env)`` leaves standing for *body
    under the substitution env*; such closures are expanded one head at a
    time, so comparison aborts at the first mismatch and never walks past the
    target.  ``target`` must be closure-free.  Returns ``(equal, steps)``
    where ``steps`` counts head comparisons (bounded by size(target) plus one
    when the terms are equal).  A pair whose two sides are one object is
    equal for one step and is not walked, so a subterm shared by both sides
    is compared once; a closure is never its own target and is still
    expanded.

    ``index``, when given, maps ``id`` of a term object to a list of weak
    references, oldest first, whose referents' ``provenance`` is None or
    ``(family, s, k, n)``: the object is ``inst(family, (s,), k, 0)`` and
    ``family`` has no free variable past ``n``; the oldest live one counts.
    When a closure's body and its target are two such instances of one
    family object, the pair is first decided by their components, for one
    step: one call without ``index`` per component pair, ``s`` under the
    closure's environment against the target's ``s`` first, then each
    outer variable ``i - 1 + k`` (``i`` from the target's ``n`` down to 1)
    against its counterpart.  Their equality is the instances' equality,
    since substitution is structural; if one differs, one more call without
    ``index`` walks the pair.  Neither call tests components, so no pair is
    tried twice, and the answer never depends on ``index``, only the steps
    do.
    """
    if expected is target and target[0] != CLO:
        # the loop's first step, taken before it allocates anything: a root
        # pair of one object, which the entry comparisons of a certificate
        # discharge meet once per entry
        return True, 1
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
                if index is not None and id(body) in index:
                    pairs = _components(index, body, env, t)
                    if pairs is not None:
                        steps += 1
                        while pairs:
                            eq, c = eq_lazy(*pairs.pop())
                            steps += c
                            if not eq:
                                eq, c = eq_lazy(e, t)
                                steps += c
                                if not eq:
                                    return False, steps
                                break
                        break
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
            if e is t:
                continue
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
