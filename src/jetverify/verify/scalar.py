"""Scalar-problem checks: the second/fourth-order reductions of the
spectral problem, the factorization chains, and the recipe identity
connecting the constraint pair to the negative flow."""

from ..jetalg import (
    NotIntegrable, RelationSet, antiderivative, euler_derivative, max_order,
    promote, substitute, total_derivative,
)
from ..opcalc import NonlocalStore
from .. import catalog as _catalog
from .base import (
    NORMAL_FORM, TEST_VECTOR, Claim, aux_hygiene_notes, mn_rules,
    op_coeff_pairs, to_y, whole,
)


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
    if max_order(out, name) >= 0:
        raise ValueError("expression is not homogeneous of degree "
                         "one in the gauge unit")
    return out


def _gauged_relations(C):
    """The two second-order relations of the spatial problem, derived
    over the new variable and gauged by the square-rooted density."""
    Y = _catalog.RING_Y
    ring = _gauge_ring()
    u = ring.coord("u")
    s = ring.coord("s")
    alp = ring.coord("alp")
    phi = ring.coord("phi")
    psi = ring.coord("psi")
    D = total_derivative

    # alpha^2 = 1/s, squared so the kernel stays Laurent; the unit only
    # ever enters linearly, through its logarithmic derivative
    gauge = RelationSet(ring).with_rule(
        "alp", 1, -(ring.coord("s", 1) / (2 * s)) * alp)

    pair = C.get("lax.main")
    subs = C.get("recip.main").substitutions

    def carry(e):
        return promote(to_y(substitute(e, subs)), ring)

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

    return promote(eq_phi, Y), promote(eq_psi, Y)


def _fourth_order(eq_phi, eq_psi, hmap):
    """The fourth-order relation at squared spectral parameter that the
    gauged pair closes, reduced through hmap: the first relation solves
    for the second component, and the second relation, with it
    eliminated, closes."""
    Y = _catalog.RING_Y
    lam = Y.param("lam")
    psi_expr = (eq_phi + lam * Y.coord("psi")) / lam
    return hmap.reduce(lam * substitute(eq_psi, {"psi": psi_expr}))


def scalar_reduction(C):
    def relations():
        return _gauged_relations(C)

    def pair(derived):
        eq_phi, eq_psi = derived
        claims = C.get("reduction2")
        return Claim(
            C.citation("reduction2"),
            [("derived second-order relation for the first component "
              "minus the displayed one", eq_phi - claims["phi.eq"]),
             ("derived second-order relation for the second component "
              "minus the displayed one", eq_psi - claims["psi.eq"])],
            NORMAL_FORM)

    def fourth(derived):
        mn = C.get("scalar.mn")
        claim4 = substitute(C.get("scalar4"), mn)
        return Claim(
            C.citation("scalar4"),
            [("derived fourth-order relation minus the displayed scalar "
              "problem", derived - claim4)],
            NORMAL_FORM)

    def mn_pair():
        # the two parametrizations of the scalar coefficients agree
        mn = C.get("scalar.mn")
        usdefs = C.get("usdefs")
        hmap = C.get("hmap")
        pairs = []
        for name, ident in (("m", "miura.m"), ("n", "miura.n")):
            through_s = hmap.reduce(substitute(C.get(ident), usdefs))
            pairs.append(("coefficient %s through the parametrization "
                          "pair minus its ratio-root form" % name,
                          through_s - mn[name]))
        return Claim(C.citation("scalar.mn"), pairs, NORMAL_FORM)

    yield "scalar_reduction.pair", relations, pair
    # the fourth row's half nests the pair row's
    yield "scalar_reduction.fourth", lambda: _fourth_order(
        *C.derive("scalar_reduction.pair", relations), C.get("hmap")), fourth
    yield "scalar_reduction.mn", mn_pair, whole


# -- factorizations -------------------------------------------------------

def _local_part(op):
    if op.tail or op.words:
        raise ValueError("local factorization produced nonlocal parts")
    return op.local


def _ij_from_factor_data(a1, b1):
    """The coefficient pair (i, j) the linear-factor data (a1, b1)
    determines: (-2 b1, D a1 + a1^2 - D b1 - b1^2)."""
    return (-2 * b1, total_derivative(a1) + a1 ** 2
            - total_derivative(b1) - b1 ** 2)


def factorizations(C):
    Y = _catalog.RING_Y

    def quadratic():
        quad = C.get("factor2.left").compose(C.get("factor2.right"))
        return Claim(
            C.citation("miura.m"),
            op_coeff_pairs("second-order factor product minus the "
                           "fourth-order operator",
                           _local_part(quad - C.get("L4")), mn_rules(C)),
            NORMAL_FORM)

    def linear():
        i_rhs, j_rhs = _ij_from_factor_data(Y.coord("a1"), Y.coord("b1"))
        ij_rules = mn_rules(C).with_rule("i", 0, i_rhs).with_rule(
            "j", 0, j_rhs)
        product = C.get("factor1.1")
        for k in ("2", "3", "4"):
            product = product.compose(C.get("factor1." + k))
        return Claim(
            C.citation("factor1.1"),
            op_coeff_pairs("linear factor product minus the fourth-order "
                           "operator", _local_part(product - C.get("L4")),
                           ij_rules),
            NORMAL_FORM)

    def firstorder():
        ab = C.get("ab1")
        usdefs = C.get("usdefs")
        hmap = C.get("hmap")
        i_from_ab, j_from_ab = _ij_from_factor_data(ab["a1"], ab["b1"])
        return Claim(
            C.citation("ab1"),
            [("first coefficient from the linear-factor data minus its "
              "parametrized form",
              i_from_ab - hmap.reduce(usdefs["i"])),
             ("second coefficient from the linear-factor data minus its "
              "parametrized form",
              j_from_ab - hmap.reduce(usdefs["j"]))],
            NORMAL_FORM)

    yield "factorizations.quadratic", quadratic, whole
    yield "factorizations.linear", linear, whole
    yield "factorizations.firstorder", firstorder, whole


# -- connecting identity --------------------------------------------------

def connecting_identity(C):
    Y = _catalog.RING_Y

    def expand():
        fexp = C.get("F12")
        f1e, f2e = fexp["F1"], fexp["F2"]
        store = NonlocalStore(Y)
        # seed the store with the difference integral so both displays
        # resolve their antiderivatives through one shared kernel
        store.resolve_dinv(f1e - f2e)
        left = C.get("Grecipe").apply((f1e, f2e), store)
        right = C.get("Jop").apply((f1e, f2e), store)
        pairs = [("recipe row %d minus matrix row %d" % (k + 1, k + 1),
                  store.reduce(left[k] - right[k])) for k in range(2)]
        notes = aux_hygiene_notes(
            [name for name, _kind, _core in store.allocated], left, right)
        try:
            antiderivative(f1e - f2e)
            verdict = "exact"
        except NotIntegrable:
            verdict = "not exact"
        witness = euler_derivative(f1e - f2e, "f")
        notes.append("difference of the constraint expressions is %s as a "
                     "total derivative (variational derivative in the "
                     "first flux %s)" % (verdict,
                                         "vanishes" if witness.is_zero
                                         else "is nonzero"))
        return Claim(C.citation("Grecipe"), pairs, TEST_VECTOR, notes)

    def constants():
        # unit-normalized constraints annihilate the recipe
        store = NonlocalStore(Y)
        image = C.get("Grecipe").apply((-Y.one(), -Y.one()), store)
        return Claim(
            C.citation("Grecipe"),
            [("recipe row %d on the unit-normalized pair" % (k + 1),
              store.reduce(image[k])) for k in range(2)],
            TEST_VECTOR)

    yield "connecting_identity.expand", expand, whole
    yield "connecting_identity.constants", constants, whole
