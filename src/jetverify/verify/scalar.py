"""Scalar-problem checks: the second/fourth-order reductions of the
spectral problem, the factorization chains, and the recipe identity
connecting the constraint pair to the negative flow."""

from ..jetalg import (
    NotIntegrable, RelationSet, antiderivative, euler_derivative,
    is_total_derivative, substitute, total_derivative,
)
from ..opcalc import NonlocalStore
from .. import catalog as _catalog
from .base import (
    NORMAL_FORM, TEST_VECTOR, aux_hygiene_notes, conclude, mn_rules, to_y,
)

# s through u and the ratio root h
_HSUB = {"s": _catalog.RING_Y.coord("u")
              * _catalog.RING_Y.coord("h") ** -2}


# -- scalar reduction -----------------------------------------------------

def _gauge_ring():
    # one extra unit dependent carrying the square-rooted gauge factor;
    # its first derivative rule encodes the squared defining relation
    return _catalog.RING_Y.extend(("alp",))


def _strip_unit(e, name):
    """Divide out one overall power of the gauge unit.

    Every term must carry the unit linearly, otherwise the gauge
    bookkeeping went wrong and we raise."""
    ring = e.ring
    unit = ring.coord(name)
    out = e / unit
    didx = out.ring.index(name)
    for (vk, _pk) in out.terms:
        for (d, _k), _ex in vk:
            if d == didx:
                raise ValueError("expression is not homogeneous of degree "
                                 "one in the gauge unit")
    return out


def scalar_reduction(ctx):
    C = ctx.catalog
    Y = _catalog.RING_Y
    ring = _gauge_ring()
    u = ring.coord("u")
    s = ring.coord("s")
    alp = ring.coord("alp")
    lam = ring.param("lam")
    phi = ring.coord("phi")
    psi = ring.coord("psi")
    D = total_derivative

    # alpha^2 = 1/s, squared so the kernel stays Laurent; the unit only
    # ever enters linearly, through its logarithmic derivative
    gauge = RelationSet(ring).with_rule(
        "alp", 1, -(ring.coord("s", 1) / (2 * s)) * alp)

    pair = C.get("lax.main")
    subs = dict(C.get("recip.main").substitutions)

    def carry(e):
        return substitute(to_y(substitute(e, subs)), {},
                          target_ring=ring)

    U = [[carry(e) for e in row] for row in pair.space]

    # first-order relations of the spatial problem, rewritten over the
    # new variable and gauged: the upper block gives components 3, 4
    # from the derivatives of components 1, 2, and the lower block
    # closes the system
    comp1 = alp * phi
    comp2 = (s / u) * alp * psi
    comp3 = u * D(comp1) / U[0][2]
    comp4 = u * D(comp2) / U[1][3]
    eq_phi = u * D(comp3) - (U[2][0] * comp1 + U[2][1] * comp2
                             + U[2][2] * comp3 + U[2][3] * comp4)
    eq_psi = u * D(comp4) - (U[3][0] * comp1 + U[3][1] * comp2
                             + U[3][2] * comp3 + U[3][3] * comp4)

    eq_phi = _strip_unit(gauge.reduce(eq_phi), "alp") * u ** -2
    eq_psi = _strip_unit(gauge.reduce(eq_psi), "alp") * (u * s) ** -1

    back = {name: Y.coord(name) for name in ("u", "s", "phi", "psi")}
    eq_phi = substitute(eq_phi, back, target_ring=Y)
    eq_psi = substitute(eq_psi, back, target_ring=Y)

    claims = dict(C.get("reduction2"))
    yield conclude(
        ctx, "scalar_reduction.pair", C.citation("reduction2"),
        [("derived second-order relation for the first component minus "
          "the displayed one", eq_phi - claims["phi.eq"]),
         ("derived second-order relation for the second component minus "
          "the displayed one", eq_psi - claims["psi.eq"])],
        NORMAL_FORM)

    # eliminate the second component: the first relation solves for it,
    # the second then closes a fourth-order equation at squared
    # spectral parameter
    lam = Y.param("lam")
    psi_expr = (eq_phi + lam * Y.coord("psi")) / lam
    fourth = lam * substitute(eq_psi, {"psi": psi_expr})

    mn = dict(C.get("scalar.mn"))
    claim4 = substitute(C.get("scalar4"), {"m": mn["m"], "n": mn["n"]})
    yield conclude(
        ctx, "scalar_reduction.fourth", C.citation("scalar4"),
        [("derived fourth-order relation minus the displayed scalar "
          "problem", substitute(fourth, _HSUB) - claim4)],
        NORMAL_FORM)

    # the two parametrizations of the scalar coefficients agree
    usrules = dict(C.get("usdefs"))
    msub = {"i": usrules["i"], "j": usrules["j"]}
    pairs = []
    for name, ident in (("m", "miura.m"), ("n", "miura.n")):
        through_s = substitute(substitute(C.get(ident), msub), _HSUB)
        pairs.append(("coefficient %s through the parametrization pair "
                      "minus its ratio-root form" % name,
                      through_s - mn[name]))
    yield conclude(ctx, "scalar_reduction.mn",
                   C.citation("scalar.mn"), pairs, NORMAL_FORM)


# -- factorizations -------------------------------------------------------

def _op_coeff_pairs(label, diff, rules=None):
    pairs = []
    for k in sorted(diff.local.coeffs):
        c = diff.local.coeffs[k]
        red = rules.reduce(c) if rules is not None else c
        pairs.append(("%s, coefficient of order %d" % (label, k), red))
    if diff.tail or diff.words:
        raise ValueError("local factorization produced nonlocal parts")
    return pairs


def factorizations(ctx):
    C = ctx.catalog
    Y = _catalog.RING_Y

    mn = mn_rules(C)
    quad = C.get("factor2.left").compose(C.get("factor2.right"))
    yield conclude(
        ctx, "factorizations.quadratic", C.citation("miura.m"),
        _op_coeff_pairs("second-order factor product minus the "
                        "fourth-order operator",
                        quad - C.get("L4"), mn),
        NORMAL_FORM)

    a1 = Y.coord("a1")
    b1 = Y.coord("b1")
    ij_rules = (mn
                .with_rule("i", 0, -2 * b1)
                .with_rule("j", 0, total_derivative(a1) + a1 ** 2
                           - total_derivative(b1) - b1 ** 2))
    linear = C.get("factor1.1")
    for k in ("2", "3", "4"):
        linear = linear.compose(C.get("factor1." + k))
    yield conclude(
        ctx, "factorizations.linear", C.citation("factor1.1"),
        _op_coeff_pairs("linear factor product minus the fourth-order "
                        "operator", linear - C.get("L4"), ij_rules),
        NORMAL_FORM)

    ab = dict(C.get("ab1"))
    usdefs = dict(C.get("usdefs"))
    i_from_ab = -2 * ab["b1"]
    j_from_ab = (total_derivative(ab["a1"]) + ab["a1"] ** 2
                 - total_derivative(ab["b1"]) - ab["b1"] ** 2)
    yield conclude(
        ctx, "factorizations.firstorder", C.citation("ab1"),
        [("first coefficient from the linear-factor data minus its "
          "parametrized form", i_from_ab - substitute(usdefs["i"], _HSUB)),
         ("second coefficient from the linear-factor data minus its "
          "parametrized form", j_from_ab - substitute(usdefs["j"], _HSUB))],
        NORMAL_FORM)


# -- connecting identity --------------------------------------------------

def connecting_identity(ctx):
    C = ctx.catalog
    Y = _catalog.RING_Y
    fexp = dict(C.get("F12"))
    f1e, f2e = fexp["F1"], fexp["F2"]

    store = NonlocalStore(Y)
    # seed the store with the difference integral so both displays
    # resolve their antiderivatives through one shared kernel
    store.resolve_dinv(f1e - f2e)
    recipe = C.get("Grecipe").promote(store.ring)
    matrix = C.get("Jop").promote(store.ring)
    vec = [substitute(f1e, {}, target_ring=store.ring),
           substitute(f2e, {}, target_ring=store.ring)]
    left = recipe.apply(vec, store)
    right = matrix.apply(vec, store)
    pairs = [("recipe row %d minus matrix row %d" % (k + 1, k + 1),
              store.reduce(left[k] - right[k])) for k in range(2)]
    notes = aux_hygiene_notes(store, left, right)
    try:
        antiderivative(f1e - f2e)
        verdict = "exact"
    except NotIntegrable:
        verdict = "not exact"
    witness = euler_derivative(f1e - f2e, "f")
    notes.append("difference of the constraint expressions is %s as a "
                 "total derivative (variational derivative in the first "
                 "flux %s)" % (verdict,
                               "vanishes" if witness.is_zero
                               else "is nonzero"))
    assert is_total_derivative(f1e - f2e) == (verdict == "exact")
    yield conclude(ctx, "connecting_identity.expand",
                   C.citation("Grecipe"), pairs, TEST_VECTOR, notes)

    # unit-normalized constraints annihilate the recipe
    cstore = NonlocalStore(Y)
    cvec = [-cstore.ring.one(), -cstore.ring.one()]
    image = C.get("Grecipe").promote(cstore.ring).apply(cvec, cstore)
    yield conclude(
        ctx, "connecting_identity.constants", C.citation("Grecipe"),
        [("recipe row %d on the unit-normalized pair" % (k + 1),
          cstore.reduce(image[k])) for k in range(2)],
        TEST_VECTOR)
