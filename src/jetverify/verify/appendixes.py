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
    RelationSet, SystemDef, antiderivative, evolutionary_derivative,
    promote, solve_for, substitute, total_derivative,
)
from ..opcalc import Echelon, NonlocalStore, frechet_row
from .base import (
    NORMAL_FORM, TEST_VECTOR, aux_hygiene_notes, conclude, mn_rules,
)
from .flows import (
    check_conservation, check_reciprocal_system_map, check_zero_curvature,
)

F = Fraction


def _combination(target, basis):
    """Exact rational combination of basis expressions reproducing the
    target; returns (coefficients, remainder) or (None, target)."""
    sol = Echelon(b.terms for b in basis).solve(target.terms)
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
        self.zc = tuple(tuple(self._entry(a, b) for b in range(4))
                        for a in range(4))
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

    def _entry(self, a, b):
        e = (evolutionary_derivative(self.u4[a][b], self.system)
             - total_derivative(self.v4[a][b]))
        for c in range(4):
            e = e + self.u4[a][c] * self.v4[c][b] \
                - self.v4[a][c] * self.u4[c][b]
        return e


def _blocks_row(ctx, fc, C):
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
    return conclude(ctx, "appendix_a.blocks", C.citation("lax.formal.space"),
                    pairs, NORMAL_FORM, notes)


def _relations_row(ctx, fc, C):
    """Each displayed scalar consequence must be an exact rational
    combination of the surviving curvature entries and their total
    derivatives; one consequence needs an integration (constant zero)
    and the unorientable one a shared normal form instead."""
    disp = dict(C.get("krel.display"))
    basis = fc.entries + [total_derivative(e) for e in fc.entries]
    labels = fc.entry_labels + ["D %s" % l for l in fc.entry_labels]
    merged = fc.flow_rules.merged(C.get("krel.rules"))
    pairs = []
    notes = []
    for name in ("rel1", "rel2", "rel3", "rel4", "rel5", "rel6"):
        rel = fc.flow_rules.reduce(disp[name])
        sol, rem = _combination(rel, basis)
        if sol is not None:
            pairs.append(("%s minus its curvature combination" % name, rem))
            notes.append("%s = %s" % (name, _combination_text(sol, labels)))
            continue
        sol, rem = _combination(total_derivative(rel), basis)
        if sol is not None:
            pairs.append(("derivative of %s minus its curvature "
                          "combination" % name, rem))
            combo = sum((c * b for c, b in zip(sol, basis)),
                        fc.ring.zero())
            pairs.append(("%s minus the integrated combination, constant "
                          "zero" % name, rel - antiderivative(combo)))
            notes.append("D(%s) = %s; recovered by exact integration with "
                         "zero constant" % (name,
                                            _combination_text(sol, labels)))
            continue
        # the remaining consequence resists a terminating orientation;
        # compare normal forms against the one unconsumed entry instead
        rem6 = merged.reduce(disp[name]) - merged.reduce(fc.entries[2])
        pairs.append(("%s minus the remaining curvature entry, both in "
                      "normal form modulo the oriented consequences"
                      % name, rem6))
        notes.append("%s shares the normal form of %s modulo the five "
                     "oriented consequences"
                     % (name, fc.entry_labels[2]))
    return conclude(ctx, "appendix_a.relations", C.citation("krel.display"),
                    pairs, NORMAL_FORM, notes)


def _flow_row(ctx, fc, C):
    """The stated flow pair: leading parts at the spectral parameter
    plus the recipe rows on the balance expressions at its inverse,
    reduced modulo the derived relations."""
    K = fc.ring
    merged = fc.flow_rules.merged(C.get("krel.rules"))
    store = NonlocalStore(K, relations=merged)
    SR = store.ring
    s1e = C.get("S1op").promote(SR).apply(promote(K.coord("X12"), SR), store)
    s2e = C.get("S2op").promote(SR).apply(promote(K.coord("X21"), SR), store)
    gimg = C.get("Grecipe").promote(SR).apply((s1e, s2e), store)
    ilam = SR.param("lam", -1)
    firs = dict(C.get("fir.local"))
    resid = [store.reduce(promote(firs[name], SR) - ilam * gimg[idx])
             for idx, name in ((0, "fir1.local"), (1, "fir2.local"))]
    pairs = [("first flow component minus its display", resid[0])]
    notes = []
    # the second component closes only together with the unoriented
    # sixth consequence; match the multiple exactly
    sixth = store.reduce(promote(merged.reduce(fc.entries[2]), SR))
    sol, rem = _combination(resid[1], [sixth, total_derivative(sixth)])
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
    return conclude(ctx, "appendix_a.flow", C.citation("fir.local"),
                    pairs, NORMAL_FORM, notes)


def _pseudo_pairs(label, op):
    """Residual expressions exposing every component of an operator."""
    pairs = [("%s local coefficient %d" % (label, k), c)
             for k, c in sorted(op.local.coeffs.items())]
    pairs.extend(("%s integral tail" % label, p * q) for p, q in op.tail)
    pairs.extend(("%s nonlocal word" % label, op.ring.const(c))
                 for c, _factors in op.words)
    return pairs


def _substituted_display(C, store):
    """The flow display with the off-diagonal unknowns closed through
    the flux pair at inverse parameter: leading parts substituted and
    the recipe rows applied to the substituted balance expressions."""
    K = _catalog.RING_K
    subk = dict(C.get("subk"))
    s1sub = substitute(C.get("S1op").promote(K).apply(K.coord("X12")), subk)
    s2sub = substitute(C.get("S2op").promote(K).apply(K.coord("X21")), subk)
    SR = store.ring
    gsub = C.get("Grecipe").promote(SR).apply(
        (promote(s1sub, SR), promote(s2sub, SR)), store)
    firs = dict(C.get("fir.local"))
    ilam = SR.param("lam", -1)
    display = []
    for idx, name, dep in ((0, "fir1.local", "it"), (1, "fir2.local", "jt")):
        lead = promote(substitute(K.coord(dep) - firs[name], subk), SR)
        display.append(lead + ilam * gsub[idx])
    return display, gsub, (s1sub, s2sub)


def _subflow_row(ctx, C):
    """Substituting the flux closure must turn the flow display into
    the stated first-order part plus the skew rows at the squared
    inverse parameter."""
    K = _catalog.RING_K
    store = NonlocalStore(K)
    SR = store.ring
    display, _gsub, _bal = _substituted_display(C, store)
    f12 = dict(C.get("F12"))
    jimg = C.get("Jop").promote(SR).apply(
        (promote(f12["F1"], SR), promote(f12["F2"], SR)), store)
    kimg = C.get("Kmat").promote(SR).apply(
        (promote(K.coord("f"), SR), promote(K.coord("g"), SR)), store)
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
    return conclude(ctx, "appendix_a.subflow", C.citation("subk"),
                    pairs, NORMAL_FORM, notes)


def _balance_row(ctx, C):
    """Under the flux closure the balance expressions are the stated
    third-order flux expressions at inverse parameter, and the recipe
    rows on them scale to the recipe rows on those expressions."""
    K = _catalog.RING_K
    store = NonlocalStore(K)
    SR = store.ring
    _display, gsub, (s1sub, s2sub) = _substituted_display(C, store)
    f12 = dict(C.get("F12"))
    lam = K.param("lam")
    pairs = [
        ("parameter-scaled first balance expression minus the first "
         "flux expression", lam * s1sub - promote(f12["F1"], K)),
        ("parameter-scaled second balance expression minus the second "
         "flux expression", lam * s2sub - promote(f12["F2"], K)),
    ]
    gF = C.get("Grecipe").promote(SR).apply(
        (promote(f12["F1"], SR), promote(f12["F2"], SR)), store)
    lamS = SR.param("lam")
    for idx in (0, 1):
        pairs.append(("parameter-scaled recipe row %d on the balance "
                      "pair minus the recipe row on the flux "
                      "expressions" % (idx + 1),
                      store.reduce(lamS * gsub[idx] - gF[idx])))
    return conclude(ctx, "appendix_a.balance", C.citation("F12"),
                    pairs, NORMAL_FORM)


def _omega_row(ctx, C):
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
    return conclude(ctx, "appendix_a.omega", C.citation("OmegaPrime"),
                    pairs, NORMAL_FORM)


def _link_row(ctx, C):
    """Inverse-free recursion link on a generic vector: with Y solved
    from the triangular first operator against the linearized image,
    the skew rows of the constraint map land on minus the second
    operator's image of Y."""
    Y = _catalog.RING_Y
    store = NonlocalStore(Y, relations=mn_rules(C))
    SR = store.ring
    xvec = (promote(Y.coord("phi"), SR), promote(Y.coord("psi"), SR))
    omega = C.get("OmegaPrime").promote(SR)
    w = omega.apply(C.get("Kmat").promote(SR).apply(xvec, store), store)
    # triangular solve: the first row only involves the second
    # component's derivative, the second row then gives the first
    p1 = C.get("P1").promote(SR)
    y2 = store.resolve_dinv(w[0] * F(1, 4))
    y1 = store.resolve_dinv((w[1] - p1.grid[1][1].apply(y2, store))
                            * F(1, 4))
    yvec = (y1, y2)
    p1img = p1.apply(yvec, store)
    pairs = [("triangular-solve certificate, row %d" % (idx + 1),
              store.reduce(p1img[idx] - w[idx])) for idx in (0, 1)]
    jtx = C.get("Jop").promote(SR).apply(
        C.get("Thetamat").promote(SR).apply(xvec, store), store)
    lhs = omega.apply(jtx, store)
    p2img = C.get("P2").promote(SR).apply(yvec, store)
    left = []
    right = []
    for idx in (0, 1):
        lred = store.reduce(lhs[idx])
        rred = store.reduce(-p2img[idx])
        left.append(lred)
        right.append(rred)
        pairs.append(("linearized skew image minus the negated second "
                      "operator image, row %d" % (idx + 1), lred - rred))
    notes = ["second solved component is exact; the first needs one "
             "auxiliary antiderivative"]
    notes.extend(aux_hygiene_notes(store, left, right))
    return conclude(ctx, "appendix_a.link", C.citation("P2"),
                    pairs, TEST_VECTOR, notes)


def _scan_row(ctx, C):
    """Exploratory: conjugating the transformed operators by the
    linearization, scan rational constants against the stated pair.
    Findings are reported as information; absence of a match is not a
    failure of any displayed claim."""
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
                    if (not diff.is_closed or diff.tail or diff.words
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

    # the nonlocal sandwich is only testable by application
    store = NonlocalStore(Y, relations=mn)
    SR = store.ring
    omS = omega.promote(SR)
    omA = omega.adjoint().promote(SR)
    lamS = C.get("Lambda").promote(SR)
    lamA = C.get("Lambda").adjoint().promote(SR)
    midS = C.get("Jt1.middle").promote(SR)
    vecs = [(promote(Y.coord("phi"), SR), SR.zero()),
            (SR.zero(), promote(Y.coord("psi"), SR))]

    def applied_matches(target):
        images = []
        targets = []
        for vec in vecs:
            inner = lamS.apply(midS.apply(lamA.apply(omA.apply(vec, store),
                                                     store), store), store)
            images.append([e * F(-1, 16) for e in inner])
            targets.append(target.promote(SR).apply(vec, store))
        images = [omS.apply(img, store) for img in images]
        return [c for c in cands
                if all(store.reduce(t - c * e).is_zero
                       for img, tgt in zip(images, targets)
                       for e, t in zip(img, tgt))]

    found1 = applied_matches(p1)
    # the transformed labels cross under the main-theorem erratum, so
    # record the crossed assignment as well
    crossed_local = local_matches(p1, sandwich2)
    crossed_applied = applied_matches(p2)

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
    return conclude(ctx, "appendix_a.scan", C.citation("P1"), [],
                    TEST_VECTOR, notes)


def appendix_a(ctx):
    C = ctx.catalog
    fc = _FormalCurvature(C)
    yield _blocks_row(ctx, fc, C)
    yield _relations_row(ctx, fc, C)
    yield _flow_row(ctx, fc, C)
    yield _subflow_row(ctx, C)
    yield _balance_row(ctx, C)
    yield _omega_row(ctx, C)
    yield _link_row(ctx, C)
    yield _scan_row(ctx, C)


def appendix_b(ctx):
    C = ctx.catalog
    yield check_zero_curvature(C.get("lax.appb"), C.get("sys.appb"), ctx,
                               "appendix_b.zc", C.citation("lax.appb"))
    yield check_zero_curvature(C.get("lax.appb.trans"),
                               C.get("sys.appb.trans"), ctx,
                               "appendix_b.zc_trans",
                               C.citation("lax.appb.trans"))
    yield check_conservation(C.get("recip.appb"), C.get("sys.appb"), ctx,
                             "appendix_b.conservation",
                             C.citation("recip.appb"))
    yield check_reciprocal_system_map(C.get("sys.appb"),
                                      C.get("recip.appb"),
                                      C.get("sys.appb.trans"), ctx,
                                      "appendix_b.reciprocal",
                                      C.citation("sys.appb.trans"))
