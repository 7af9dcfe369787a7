"""Flow-level checks: zero curvature, conservation, reciprocal map.

Everything here re-derives its target from the evolution systems and
the spectral pairs; the catalogued display values enter only as the
claims being compared against.
"""

from fractions import Fraction as F

from ..jetalg import (
    RelationSet, SystemDef, evolutionary_derivative, max_order, solve_for,
    split_param, substitute, total_derivative,
)
from .. import catalog as _catalog
from .base import NORMAL_FORM, Claim, to_y, usdef_rules, whole


# -- zero curvature -------------------------------------------------------

def flat_part(U, V):
    """Every entry of the flat part -V_x + [U, V] of the curvature of the
    pair (U, V), row by row, which reads the pair alone.  A commutator
    product with a zero factor is skipped: adding zero returns the sum
    itself, so the term order is that of the full sum."""
    n = len(U)

    def entry(a, b):
        e = -total_derivative(V[a][b])
        for k in range(n):
            if U[a][k] and V[k][b]:
                e = e + U[a][k] * V[k][b]
            if V[a][k] and U[k][b]:
                e = e - V[a][k] * U[k][b]
        return e

    return tuple(tuple(entry(a, b) for b in range(n)) for a in range(n))


def curvature(U, sysdef, flat):
    """Every entry of U_t - V_x + [U, V], row by row: the time
    derivative of U taken through the evolution rules of sysdef, plus
    flat, the flat part of the pair."""
    return tuple(tuple(evolutionary_derivative(u, sysdef) + f
                       for u, f in zip(urow, frow))
                 for urow, frow in zip(U, flat))


def check_zero_curvature(C, pair_ident, sys_ident):
    """Flatness of the spectral pair pair_ident on the flow sys_ident:
    one residual per nonvanishing spectral-parameter power of each
    matrix entry, reduced modulo the constraints.  The flat part reads
    the pair alone, so it is a part of its own, which a mutant of the
    flow is handed."""
    U = C.get(pair_ident).space
    sysdef = C.get(sys_ident)
    flat = C.derive(pair_ident + ".flat", lambda: flat_part(
        C.get(pair_ident).space, C.get(pair_ident).time))
    pairs = []
    reduced = []
    powers = set()
    for a, row in enumerate(curvature(U, sysdef, flat)):
        for b, e in enumerate(row):
            powers.update(split_param(e, "lam"))
            red = sysdef.constraints.reduce(e)
            if red != e:
                reduced.append("(%d,%d)" % (a + 1, b + 1))
            for power, coeff in sorted(split_param(red, "lam").items()):
                pairs.append(("entry (%d,%d) at parameter power %d"
                              % (a + 1, b + 1, power), coeff))
    notes = ["parameter powers entering the comparison: %s"
             % (", ".join(str(p) for p in sorted(powers)) or "none")]
    if reduced:
        notes.append("constraint reduction acted on entries: %s"
                     % ", ".join(reduced))
    else:
        notes.append("no entry needed the constraints")
    return Claim(C.citation(pair_ident), pairs, NORMAL_FORM, notes)


def zc_main(C):
    yield "zc_main", lambda: check_zero_curvature(
        C, "lax.main", "sys.main"), whole


def zc_trans(C):
    yield "zc_trans", lambda: check_zero_curvature(
        C, "lax.trans", "sys.mdflow"), whole


# -- conservation ---------------------------------------------------------

def check_conservation(C, map_ident, sys_ident):
    """Cleared conservation identity for the quarter-power density of
    the reciprocal map map_ident under the flow sys_ident.

    With density**4 equal to the momentum product, the conserved-form
    evolution of the density is equivalent to D_t(v*w) = ratio*D_x(v*w)
    + 4*D(ratio)*(v*w) where ratio is flux/density; both the identity
    and the clearing bookkeeping are compared."""
    map_ = C.get(map_ident)
    sysdef = C.get(sys_ident)
    ring = map_.ring
    momentum = ring.coord("v") * ring.coord("w")
    ratio = map_.flux / map_.density
    e = (evolutionary_derivative(momentum, sysdef)
         - ratio * total_derivative(momentum)
         - 4 * total_derivative(ratio) * momentum)
    return Claim(
        C.citation(map_ident),
        [("cleared conservation identity", sysdef.constraints.reduce(e)),
         ("quarter-power clearing of the density",
          map_.density ** 4 - substitute(momentum, map_.substitutions))],
        NORMAL_FORM)


def conservation(C):
    yield "conservation.main", lambda: check_conservation(
        C, "recip.main", "sys.main"), whole
    yield "conservation.appb", lambda: check_conservation(
        C, "recip.appb", "sys.appb"), whole


# -- reciprocal transformation --------------------------------------------

def _parametrized_time_rules(sysdef, map_):
    """Evolution of the parametrization pair (u, s) induced by the flow
    on the momenta through the cleared substitutions."""
    ring = sysdef.ring
    subs = map_.substitutions
    vt = substitute(sysdef.evolution["v"], subs)
    wt = substitute(sysdef.evolution["w"], subs)
    u = ring.coord("u")
    s = ring.coord("s")
    ut = F(1, 4) * u * (vt / subs["v"] + wt / subs["w"])
    st = s * (wt / subs["w"] - ut / u)
    return SystemDef(ring, {"u": ut, "s": st})


def _constraint_equations(sysdef, map_):
    """The momentum constraints confronted with the parametrization,
    keyed by the constrained momentum."""
    subs = map_.substitutions
    return {dep: rule.rhs - subs[dep]
            for dep, rule in sysdef.constraints.rules.items()}


def _orient_constraints(sysdef, map_):
    """A solved orientation of the constraint/parametrization system.

    Each equation in turn, reduced by the rules so far, is solved for
    its top potential jet (q on a tie); the original equations must then
    reduce to zero."""
    eqs = _constraint_equations(sysdef, map_).values()
    rules = RelationSet(sysdef.ring)
    for eq in eqs:
        eq = rules.reduce(eq)
        dep = max(("q", "r"), key=lambda name: max_order(eq, name))
        k = max_order(eq, dep)
        rules = rules.with_rule(dep, k, solve_for(eq, dep, k))
    for eq in eqs:
        if not rules.reduce(eq).is_zero:
            raise ValueError("constraint orientation failed to close")
    return rules


def transported_taus(C, src_ident, map_ident, coefficients):
    """The reciprocal time derivatives of the definitions
    ymap[coefficient], transported from the flow src_ident through the
    map map_ident: each reduced modulo the oriented constraints,
    rewritten over the new independent variable and reduced modulo the
    coefficient definitions.  The constraints are oriented and the
    parametrized time rules built once for all of them."""
    sysdef, map_ = C.get(src_ident), C.get(map_ident)
    named = C.get("ymap")
    usys = _parametrized_time_rules(sysdef, map_)
    ratio = map_.flux / map_.density
    xrules = _orient_constraints(sysdef, map_)
    rules = usdef_rules(C)
    return tuple(
        rules.reduce(to_y(xrules.reduce(
            evolutionary_derivative(named[c], usys)
            - ratio * total_derivative(named[c]))))
        for c in coefficients)


def check_reciprocal_system_map(C, src_ident, map_ident, dst_ident):
    """(derive, compare) of the row comparing the coefficient
    definitions' flow, transported from src_ident through map_ident,
    with the system dst_ident.

    Residuals are reduced modulo the coefficient definitions, since the
    destination displays keep the transported coefficients symbolic;
    reduction is linear, so the transported half and the stated flow
    are reduced apart."""
    def compare(got):
        dst = C.get(dst_ident)
        return Claim(
            C.citation(dst_ident),
            [("transported time derivative of %s minus the stated flow"
              % dep, tau - usdef_rules(C).reduce(dst.evolution[dep]))
             for dep, tau in zip(("i", "j"), got)],
            NORMAL_FORM)

    return (lambda: transported_taus(C, src_ident, map_ident, ("Q1", "Q2")),
            compare)


def reciprocal(C):
    Y = _catalog.RING_Y

    def idef():
        named = C.get("ymap")
        usdefs = C.get("usdefs")
        return Claim(
            C.citation("usdefs"),
            [("transported first coefficient minus its direct definition",
              to_y(named["Q1"]) - usdefs["i"])],
            NORMAL_FORM)

    def jdef():
        named = C.get("ymap")
        usdefs = C.get("usdefs")
        return Claim(
            C.citation("ymap"),
            [("transported second coefficient, displayed overall power, "
              "minus the direct definition",
              to_y(named["Q2.display"]) - usdefs["j"])],
            NORMAL_FORM,
            corrected=[("transported second coefficient, corrected "
                        "overall power, minus the direct definition",
                        to_y(named["Q2"]) - usdefs["j"])])

    def tau(dep, coefficient):
        def compare(got):
            flows = C.get("flow.intermediate")
            return Claim(
                C.citation("flow.intermediate"),
                [("transported time derivative of %s minus the stated "
                  "mixed flow" % dep,
                  got[0] - usdef_rules(C).reduce(flows[dep + "_tau"]))],
                NORMAL_FORM)

        return (lambda: transported_taus(C, "sys.main", "recip.main",
                                         (coefficient,)),
                compare)

    def constraints():
        # the momentum constraints confronted with the parametrization,
        # v then w, over the new variable
        eqs = _constraint_equations(C.get("sys.main"), C.get("recip.main"))
        return to_y(eqs["v"]), to_y(eqs["w"])

    def kernels(eqs):
        # forced reading of the constraint notation: the transported
        # momentum constraints factor through the third-order kernel
        # expressions with a single density prefactor
        eq_v, eq_w = eqs
        flows = C.get("flow.intermediate")
        u = Y.coord("u")
        return Claim(
            C.citation("flow.intermediate"),
            [("first transported constraint minus density times its "
              "kernel reading", eq_v - u * flows["kernelr"]),
             ("second transported constraint minus density times its "
              "kernel reading", eq_w - u * flows["kernelq"])],
            NORMAL_FORM)

    def flowlink():
        flows = C.get("flow.intermediate")
        fg = C.get("fg")
        md = C.get("sys.mdflow")
        rules = usdef_rules(C)
        return Claim(
            C.citation("sys.mdflow"),
            [("negative-flow %s component under the flux parametrization "
              "minus the mixed flow" % dep,
              rules.reduce(substitute(md.evolution[dep], fg)
                           - flows[dep + "_tau"]))
             for dep in ("i", "j")],
            NORMAL_FORM)

    yield "reciprocal.main.idef", idef, whole
    yield "reciprocal.main.jdef", jdef, whole
    yield ("reciprocal.main.itau", *tau("i", "Q1"))
    yield ("reciprocal.main.jtau", *tau("j", "Q2"))
    yield "reciprocal.main.kernels", constraints, kernels
    yield "reciprocal.main.flowlink", flowlink, whole
    yield ("reciprocal.appb", *check_reciprocal_system_map(
        C, "sys.appb", "recip.appb", "sys.appb.trans"))
