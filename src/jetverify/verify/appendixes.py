"""Checks for the formal negative-flow derivation and the companion
system.

The formal side re-expands the block zero-curvature equation from the
stated spatial problem, eliminates the unknown time blocks, and shows
that the displayed scalar consequences, the flow pair, the
inverse-parameter substitution, and the recursion link all follow
mechanically.  The companion system reuses the flow-level checks on
its own catalog entries.
"""

from fractions import Fraction

from .. import catalog as _catalog
from ..jetalg import (
    RelationSet, SystemDef, antiderivative, promote, solve_for, substitute,
    total_derivative,
)
from ..opcalc import Echelon, NonlocalStore, frechet_row
from .base import (
    NORMAL_FORM, TEST_VECTOR, Claim, aux_hygiene_notes, mn_rules,
    refuting_prefix, whole,
)
from .flows import (
    check_conservation, check_reciprocal_system_map, check_zero_curvature,
    curvature, flat_part,
)
from .theorem import _basis_vectors, apply_sandwich

F = Fraction


def _combination(target, span, basis):
    """Exact rational combination of basis expressions, solved in their
    span, reproducing the target; returns (coefficients, remainder) or
    (None, target)."""
    sol = span.solve(dict(target.coeff_items()))
    if sol is None:
        return None, target
    rem = target
    for c, b in zip(sol, basis):
        rem = rem - c * b
    return sol, rem


def _combination_text(sol, labels):
    parts = []
    for c, label in zip(sol, labels):
        if c:
            parts.append("%s%s * %s" % ("+" if c > 0 else "", c, label))
    return " ".join(parts) if parts else "0"


def _block(grid, a, b):
    return tuple(tuple(grid[2 * a + p][2 * b + q] for q in range(2))
                 for p in range(2))


class _FormalCurvature:
    """The block zero-curvature expansion of the formal pair.

    The spatial problem fixes the lower blocks A and B; the time side
    keeps four unknown 2x2 blocks.  Vanishing of the upper curvature
    blocks eliminates the two left blocks, and the surviving lower
    entries are the scalar equations everything else is drawn from."""

    def __init__(self, C):
        K = _catalog.RING_K
        self.ring = K
        self.u4 = C.get("lax.formal.space")
        self.upper_zero = _block(self.u4, 0, 0)
        self.upper_unit = _block(self.u4, 0, 1)
        self.ablock = _block(self.u4, 1, 0)
        self.bblock = _block(self.u4, 1, 1)
        xg = tuple(tuple(K.coord("X%d%d" % (p + 1, q + 1))
                         for q in range(2)) for p in range(2))
        yg = tuple(tuple(K.coord("Y%d%d" % (p + 1, q + 1))
                         for q in range(2)) for p in range(2))
        v11 = _catalog.emat_sub(_catalog.emat_sub(yg, _catalog.emat_d(xg)),
                                _catalog.emat_mul(xg, self.bblock))
        v21 = _catalog.emat_add(_catalog.emat_d(v11),
                                _catalog.emat_mul(xg, self.ablock))
        self.v4 = tuple(
            tuple((v11 if a == 0 else v21)[p][q] if b == 0
                  else (xg if a == 0 else yg)[p][q]
                  for b in range(2) for q in range(2))
            for a in range(2) for p in range(2))
        # the only dependents the spatial side carries are (i, j), so
        # the formal flow placeholders close the time derivative
        self.system = SystemDef(K, {"i": K.coord("it"),
                                    "j": K.coord("jt")})
        self.zc = curvature(self.u4, self.system,
                            flat_part(self.u4, self.v4))
        self.eqs = {
            ("a", p, q): -self.zc[2 + p][q]
            for p in range(2) for q in range(2)}
        self.eqs.update({
            ("b", p, q): -self.zc[2 + p][2 + q]
            for p in range(2) for q in range(2)})
        # flow definitions come out of the two diagonal lead entries
        flows = RelationSet(K)
        flows = flows.with_rule(
            "it", 0, solve_for(self.eqs[("b", 0, 0)], "it", 0))
        flows = flows.with_rule(
            "jt", 0, solve_for(self.eqs[("a", 0, 0)], "jt", 0))
        self.flow_rules = flows
        self.entry_keys = [("a", 0, 1), ("a", 1, 0), ("a", 1, 1),
                           ("b", 0, 1), ("b", 1, 0), ("b", 1, 1)]
        self.entries = [flows.reduce(self.eqs[k]) for k in self.entry_keys]
        self.entry_labels = ["%s(%d,%d)" % ("lower-left" if k[0] == "a"
                                            else "lower-right", k[1], k[2])
                             for k in self.entry_keys]


def _blocks_row(fc, C):
    pairs = []
    for p in range(2):
        for q in range(2):
            pairs.append(("spatial upper-left entry (%d,%d)" % (p, q),
                          fc.upper_zero[p][q]))
            pairs.append(("spatial upper-right entry (%d,%d) minus the "
                          "unit" % (p, q),
                          fc.upper_unit[p][q]
                          - (fc.ring.one() if p == q else fc.ring.zero())))
    for a in range(2):
        for b in range(4):
            pairs.append(("curvature upper entry (%d,%d) after the block "
                          "elimination" % (a, b), fc.zc[a][b]))
    atau = C.get("kzc.atau")
    btau = C.get("kzc.btau")
    for p in range(2):
        for q in range(2):
            pairs.append(("lower-left curvature entry (%d,%d) minus the "
                          "stored residual" % (p, q),
                          fc.eqs[("a", p, q)] - atau[p][q]))
            pairs.append(("lower-right curvature entry (%d,%d) minus the "
                          "stored residual" % (p, q),
                          fc.eqs[("b", p, q)] - btau[p][q]))
    notes = ["the two unknown left time blocks are eliminated from the "
             "vanishing upper curvature blocks, so the lower entries "
             "carry all the content"]
    return Claim(C.citation("lax.formal.space"), pairs, NORMAL_FORM, notes)


def _curvature_span(fc):
    """(basis, labels, span): the six surviving curvature entries of the
    formal curvature fc and their total derivatives, their labels, and
    the Echelon of those twelve expressions, which solve without insert
    leaves as it is."""
    basis = fc.entries + [total_derivative(e) for e in fc.entries]
    labels = fc.entry_labels + ["D %s" % l for l in fc.entry_labels]
    return basis, labels, Echelon(dict(b.coeff_items()) for b in basis)


def _relations_row(fc, span, C):
    """Each displayed scalar consequence must be an exact rational
    combination of the surviving curvature entries and their total
    derivatives; one consequence needs an integration (constant zero)
    and the unorientable one a shared normal form instead.  Every
    consequence, and every derivative of one, is solved in the one
    span of those twelve expressions, span(), a part that reads the
    formal curvature but no displayed relation, so a krel.* mutant is
    handed it.  The consequences are derived in display order and read
    through refuting_prefix, so a failing row derives, and notes, the
    consequences up to the one whose residual refutes it."""
    disp = C.get("krel.display")
    basis, labels, span = span()
    merged = fc.flow_rules.merged(C.get("krel.rules"))
    notes = []

    def residuals():
        for name in ("rel1", "rel2", "rel3", "rel4", "rel5", "rel6"):
            rel = fc.flow_rules.reduce(disp[name])
            sol, rem = _combination(rel, span, basis)
            if sol is not None:
                notes.append("%s = %s"
                             % (name, _combination_text(sol, labels)))
                yield "%s minus its curvature combination" % name, rem
                continue
            sol, rem = _combination(total_derivative(rel), span, basis)
            if sol is not None:
                notes.append("D(%s) = %s; recovered by exact integration "
                             "with zero constant"
                             % (name, _combination_text(sol, labels)))
                yield ("derivative of %s minus its curvature combination"
                       % name, rem)
                combo = sum((c * b for c, b in zip(sol, basis)),
                            fc.ring.zero())
                yield ("%s minus the integrated combination, constant zero"
                       % name, rel - antiderivative(combo))
                continue
            # the remaining consequence resists a terminating orientation;
            # compare normal forms against the one unconsumed entry instead
            notes.append("%s shares the normal form of %s modulo the five "
                         "oriented consequences"
                         % (name, fc.entry_labels[2]))
            yield ("%s minus the remaining curvature entry, both in normal "
                   "form modulo the oriented consequences" % name,
                   merged.reduce(disp[name]) - merged.reduce(fc.entries[2]))

    pairs = refuting_prefix(residuals())
    return Claim(C.citation("krel.display"), pairs, NORMAL_FORM, notes)


def _flow_row(fc, C):
    """The stated flow pair: leading parts at the spectral parameter
    plus the recipe rows on the balance expressions at its inverse,
    reduced modulo the derived relations."""
    K = fc.ring
    merged = fc.flow_rules.merged(C.get("krel.rules"))
    store = NonlocalStore(K, relations=merged)
    SR = store.ring
    s1e = C.get("S1op").apply(K.coord("X12"), store)
    s2e = C.get("S2op").apply(K.coord("X21"), store)
    gimg = C.get("Grecipe").apply((s1e, s2e), store)
    ilam = SR.param("lam", -1)
    firs = C.get("fir.local")
    resid = [store.reduce(promote(firs[name], SR) - ilam * gimg[idx])
             for idx, name in ((0, "fir1.local"), (1, "fir2.local"))]
    pairs = [("first flow component minus its display", resid[0])]
    notes = []
    # the second component closes only together with the unoriented
    # sixth consequence; match the multiple exactly
    sixth = store.reduce(promote(merged.reduce(fc.entries[2]), SR))
    basis = [sixth, total_derivative(sixth)]
    sol, rem = _combination(
        resid[1], Echelon(dict(b.coeff_items()) for b in basis), basis)
    if sol is not None:
        pairs.append(("second flow component minus its display and the "
                      "matched multiple of the sixth consequence", rem))
        notes.append("second component residual = %s"
                     % _combination_text(sol, ["sixth consequence",
                                               "D(sixth consequence)"]))
    else:
        pairs.append(("second flow component minus its display", resid[1]))
    aux = [name for name, _kind, _core in store.allocated]
    if aux:
        notes.append("recipe tails resolved through auxiliaries: %s"
                     % ", ".join(aux))
    return Claim(C.citation("fir.local"), pairs, NORMAL_FORM, notes)


def _pseudo_pairs(label, op):
    """Residual expressions exposing every component of an operator."""
    pairs = [("%s local coefficient %d" % (label, k), c)
             for k, c in sorted(op.local.coeffs.items())]
    pairs.extend(("%s integral tail" % label, p * q) for p, q in op.tail)
    pairs.extend(("%s nonlocal word" % label, op.ring.const(c))
                 for c, _left, _name, _right in op.words)
    return pairs


def _substituted_display(C, store):
    """The flow display with the off-diagonal unknowns closed through
    the flux pair at inverse parameter: leading parts substituted and
    the recipe rows applied to the substituted balance expressions."""
    K = _catalog.RING_K
    subk = C.get("subk")
    s1sub = substitute(C.get("S1op").apply(K.coord("X12")), subk)
    s2sub = substitute(C.get("S2op").apply(K.coord("X21")), subk)
    SR = store.ring
    gsub = C.get("Grecipe").apply((s1sub, s2sub), store)
    firs = C.get("fir.local")
    ilam = SR.param("lam", -1)
    display = []
    for idx, name, dep in ((0, "fir1.local", "it"), (1, "fir2.local", "jt")):
        lead = promote(substitute(K.coord(dep) - firs[name], subk), SR)
        display.append(lead + ilam * gsub[idx])
    return display, gsub, (s1sub, s2sub)


def _subflow_row(C):
    """Substituting the flux closure must turn the flow display into
    the stated first-order part plus the skew rows at the squared
    inverse parameter."""
    K = _catalog.RING_K
    store = NonlocalStore(K)
    SR = store.ring
    display, _gsub, _bal = _substituted_display(C, store)
    f12 = C.get("F12")
    jimg = C.get("Jop").apply((f12["F1"], f12["F2"]), store)
    kimg = C.get("Kmat").apply((K.coord("f"), K.coord("g")), store)
    ilam = SR.param("lam", -1)
    pairs = []
    for idx, dep in ((0, "i"), (1, "j")):
        pairs.append(("substituted %s flow display minus the stated "
                      "first-order and skew rows" % dep,
                      store.reduce(display[idx] - kimg[idx]
                                   - ilam ** 2 * jimg[idx])))
    # the stated first-order matrix reproduces the mixed-flow system
    Y = _catalog.RING_Y
    md = C.get("sys.mdflow")
    kflow = C.get("Kmat").apply((Y.coord("f"), Y.coord("g")))
    for idx, dep in ((0, "i"), (1, "j")):
        pairs.append(("first-order row for %s minus the transformed "
                      "system" % dep, kflow[idx] - md.evolution[dep]))
    # the recipe matrix and the stated skew matrix are one operator
    G = C.get("Grecipe")
    J = C.get("Jop")
    for a in range(2):
        for b in range(2):
            pairs.extend(_pseudo_pairs(
                "recipe minus skew operator, entry (%d,%d)," % (a, b),
                G.grid[a][b] - J.grid[a][b]))
    notes = ["inverse-parameter integral arguments reuse the "
             "unsubstituted auxiliaries through parameter-shift "
             "matching: %s"
             % ", ".join(name for name, _k, _c in store.allocated)]
    return Claim(C.citation("subk"), pairs, NORMAL_FORM, notes)


def _balance_row(C):
    """Under the flux closure the balance expressions are the stated
    third-order flux expressions at inverse parameter, and the recipe
    rows on them scale to the recipe rows on those expressions."""
    K = _catalog.RING_K
    store = NonlocalStore(K)
    SR = store.ring
    _display, gsub, (s1sub, s2sub) = _substituted_display(C, store)
    f12 = C.get("F12")
    lam = K.param("lam")
    pairs = [
        ("parameter-scaled first balance expression minus the first "
         "flux expression", lam * s1sub - promote(f12["F1"], K)),
        ("parameter-scaled second balance expression minus the second "
         "flux expression", lam * s2sub - promote(f12["F2"], K)),
    ]
    gF = C.get("Grecipe").apply((f12["F1"], f12["F2"]), store)
    lamS = SR.param("lam")
    for idx in (0, 1):
        pairs.append(("parameter-scaled recipe row %d on the balance "
                      "pair minus the recipe row on the flux "
                      "expressions" % (idx + 1),
                      store.reduce(lamS * gsub[idx] - gF[idx])))
    return Claim(C.citation("F12"), pairs, NORMAL_FORM)


def _omega_row(C):
    """The stated linearization matrix is the Frechet derivative of
    the quadratic substitution pair."""
    omega = C.get("OmegaPrime")
    m_ij = C.get("miura.m")
    n_ij = C.get("miura.n")
    pairs = []
    for a, src in ((0, m_ij), (1, n_ij)):
        for b, dep in ((0, "i"), (1, "j")):
            diff = frechet_row(src, dep) - omega.grid[a][b].local
            pairs.extend(("linearization entry (%d,%d) coefficient %d"
                          % (a, b, k), c)
                         for k, c in sorted(diff.coeffs.items()))
            if omega.grid[a][b].tail or omega.grid[a][b].words:
                pairs.append(("linearization entry (%d,%d) nonlocal part"
                              % (a, b), omega.ring.one()))
    return Claim(C.citation("OmegaPrime"), pairs, NORMAL_FORM)


def _link_part(C):
    """The derived half of the recursion link, everything before the
    second operator: the two triangular-solve certificate pairs, the
    solved vector Y, the reduced linearized skew images, the store's
    final relations and the auxiliary names it allocated, in that
    order."""
    Y = _catalog.RING_Y
    store = NonlocalStore(Y, relations=mn_rules(C))
    xvec = (Y.coord("phi"), Y.coord("psi"))
    omega = C.get("OmegaPrime")
    w = omega.apply(C.get("Kmat").apply(xvec, store), store)
    # triangular solve: the first row only involves the second
    # component's derivative, the second row then gives the first
    p1 = C.get("P1")
    y2 = store.resolve_dinv(w[0] * F(1, 4))
    y1 = store.resolve_dinv((w[1] - p1.grid[1][1].apply(y2, store))
                            * F(1, 4))
    yvec = (y1, y2)
    p1img = p1.apply(yvec, store)
    pairs = tuple(("triangular-solve certificate, row %d" % (idx + 1),
                   store.reduce(p1img[idx] - w[idx])) for idx in (0, 1))
    jtx = C.get("Jop").apply(C.get("Thetamat").apply(xvec, store), store)
    left = tuple(store.reduce(e) for e in omega.apply(jtx, store))
    aux = tuple(name for name, _kind, _core in store.allocated)
    return pairs, yvec, left, store.relations, aux


def _link_row(C, link):
    """Inverse-free recursion link on a generic vector: with Y solved
    from the triangular first operator against the linearized image,
    the skew rows of the constraint map land on minus the second
    operator's image of Y.

    link is _link_part's value.  P2 is local, with no tail and no word,
    so its image of Y needs no store and is reduced under the store's
    final relations, exactly as the store that solved Y would reduce
    it."""
    pairs, yvec, left, relations, aux = link
    pairs = list(pairs)
    p2img = C.get("P2").apply(yvec)
    right = [relations.reduce(-e) for e in p2img]
    for idx in (0, 1):
        pairs.append(("linearized skew image minus the negated second "
                      "operator image, row %d" % (idx + 1),
                      left[idx] - right[idx]))
    notes = ["second solved component is exact; the first needs one "
             "auxiliary antiderivative"]
    notes.extend(aux_hygiene_notes(aux, left, right))
    return Claim(C.citation("P2"), pairs, TEST_VECTOR, notes)


def _constants_on_vectors(cands, vecs, image, targets):
    """For each target, the constants c with target(vec) = c * image(vec)
    entry by entry on every vector.  The vectors are taken in order and
    every list is pruned on each, so once no constant is left for any
    target no further image is built."""
    found = [list(cands) for _target in targets]
    for vec in vecs:
        if not any(found):
            break
        img = image(vec)
        for k, target in enumerate(targets):
            if found[k]:
                got = target(vec)
                found[k] = [c for c in found[k]
                            if all(t == c * e for e, t in zip(img, got))]
    return found


def _scan_row(C):
    """Exploratory: conjugating the transformed operators by the
    linearization, scan rational constants against the stated pair.
    Findings are reported as information; absence of a match is not a
    failure of any displayed claim.

    The integral form is tested by application, one basis vector at a
    time, and the scan stops once no constant is left for either
    operator.  On the catalog that is after the first vector: its
    reduced images name auxiliaries, which the images of the two local
    operators cannot, so the second vector's larger images are never
    built.  Each image is reduced under the relations as they stand
    after it, not after both vectors: a later rule rewrites only the
    jets of an auxiliary allocated later, which the image cannot
    contain."""
    Y = _catalog.RING_Y
    mn = mn_rules(C)
    omega = C.get("OmegaPrime")
    p1 = C.get("P1")
    p2 = C.get("P2")
    cands = [F(c) for c in (1, -1, 2, -2, 4, -4, 8, -8, 16, -16)]

    def local_matches(target, sandwich):
        out = []
        for c in cands:
            ok = True
            for a in range(2):
                for b in range(2):
                    diff = target.grid[a][b] - sandwich.grid[a][b].scaled(c)
                    if (diff.tail or diff.words
                            or any(not mn.reduce(co).is_zero
                                   for co in diff.local.coeffs.values())):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(c)
        return out

    sandwich2 = omega.compose(C.get("Jt2")).compose(omega.adjoint())
    found2 = local_matches(p2, sandwich2)

    # the nonlocal sandwich is only testable by application; its
    # images do not depend on the target
    store = NonlocalStore(Y, relations=mn)
    omA = omega.adjoint()
    lam, middle = C.get("Lambda"), C.get("Jt1.middle")
    lam_adjoint = lam.adjoint()

    def image(vec):
        # reduction is linear, so each image is reduced once and a
        # candidate c matches when every reduced target is c times it
        sandwich = apply_sandwich(F(-1, 16), lam, middle, lam_adjoint,
                                  omA.apply(vec, store), store)
        return [store.reduce(e) for e in omega.apply(sandwich, store)]

    def applied(target):
        return lambda vec: [store.reduce(t)
                            for t in target.apply(vec, store)]

    # the transformed labels cross under the main-theorem erratum, so
    # record the crossed assignment as well
    found1, crossed_applied = _constants_on_vectors(
        cands, _basis_vectors(Y), image, (applied(p1), applied(p2)))
    crossed_local = local_matches(p1, sandwich2)

    def report(label, found):
        if found:
            return "%s: matching constants %s" % (
                label, ", ".join(str(c) for c in found))
        return "%s: no candidate constant matches" % label

    notes = [
        report("second operator against the conjugated local form",
               found2),
        report("first operator against the conjugated integral form",
               found1),
        report("crossed assignment, first against local", crossed_local),
        report("crossed assignment, second against integral",
               crossed_applied),
        "reported as information; no displayed identity depends on a "
        "match",
    ]
    return Claim(C.citation("P1"), [], TEST_VECTOR, notes)


def appendix_a(C):
    def formal():
        return C.derive("formal", lambda: _FormalCurvature(C))

    def span():
        return C.derive("formal.span", lambda: _curvature_span(formal()))

    yield "appendix_a.blocks", lambda: _blocks_row(formal(), C), whole
    yield ("appendix_a.relations", lambda: _relations_row(formal(), span, C),
           whole)
    yield "appendix_a.flow", lambda: _flow_row(formal(), C), whole
    yield "appendix_a.subflow", lambda: _subflow_row(C), whole
    yield "appendix_a.balance", lambda: _balance_row(C), whole
    yield "appendix_a.omega", lambda: _omega_row(C), whole
    yield ("appendix_a.link", lambda: _link_part(C),
           lambda link: _link_row(C, link))
    yield "appendix_a.scan", lambda: _scan_row(C), whole


def appendix_b(C):
    yield "appendix_b.zc", lambda: check_zero_curvature(
        C, "lax.appb", "sys.appb"), whole
    yield "appendix_b.zc_trans", lambda: check_zero_curvature(
        C, "lax.appb.trans", "sys.appb.trans"), whole
    yield "appendix_b.conservation", lambda: check_conservation(
        C, "recip.appb", "sys.appb"), whole
    yield ("appendix_b.reciprocal", *check_reciprocal_system_map(
        C, "sys.appb", "recip.appb", "sys.appb.trans"))
