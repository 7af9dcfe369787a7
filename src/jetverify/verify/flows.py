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
from .base import NORMAL_FORM, conclude, conclude_erratum, to_y, usdef_rules


# -- zero curvature -------------------------------------------------------

def curvature_entry(U, V, sysdef, a, b):
    """Entry (a, b) of U_t - V_x + [U, V], the time derivative taken
    through the evolution rules of sysdef."""
    e = evolutionary_derivative(U[a][b], sysdef) - total_derivative(V[a][b])
    for k in range(len(U)):
        e = e + U[a][k] * V[k][b] - V[a][k] * U[k][b]
    return e


def zero_curvature_pairs(pair, sysdef):
    """Labelled residual components of the flatness identity.

    Returns (pairs, reduced_entries, powers): one pair per nonvanishing
    spectral-parameter power of each matrix entry, the entries whose
    reduction used the constraints, and every power entering the
    comparison before reduction."""
    U, V = pair.space, pair.time
    n = len(U)
    cons = sysdef.constraints
    pairs = []
    reduced_entries = []
    powers = set()
    for a in range(n):
        for b in range(n):
            e = curvature_entry(U, V, sysdef, a, b)
            powers.update(split_param(e, "lam"))
            red = cons.reduce(e) if cons is not None else e
            if red != e:
                reduced_entries.append("(%d,%d)" % (a + 1, b + 1))
            for power, coeff in sorted(split_param(red, "lam").items()):
                pairs.append(("entry (%d,%d) at parameter power %d"
                              % (a + 1, b + 1, power), coeff))
    return pairs, reduced_entries, sorted(powers)


def check_zero_curvature(pair, sysdef, ctx, rid, citation):
    pairs, reduced, powers = zero_curvature_pairs(pair, sysdef)
    notes = ["parameter powers entering the comparison: %s"
             % (", ".join(str(p) for p in powers) or "none")]
    if reduced:
        notes.append("constraint reduction acted on entries: %s"
                     % ", ".join(reduced))
    else:
        notes.append("no entry needed the constraints")
    return conclude(ctx, rid, citation, pairs, NORMAL_FORM, notes)


def zc_main(ctx):
    C = ctx.catalog
    yield check_zero_curvature(C.get("lax.main"), C.get("sys.main"), ctx,
                               "zc_main", C.citation("lax.main"))


def zc_trans(ctx):
    C = ctx.catalog
    yield check_zero_curvature(C.get("lax.trans"), C.get("sys.mdflow"),
                               ctx, "zc_trans", C.citation("lax.trans"))


# -- conservation ---------------------------------------------------------

def conservation_pairs(map_, sysdef):
    """Cleared conservation identity for the quarter-power density.

    With density**4 equal to the momentum product, the conserved-form
    evolution of the density is equivalent to D_t(v*w) = ratio*D_x(v*w)
    + 4*D(ratio)*(v*w) where ratio is flux/density; both the identity
    and the clearing bookkeeping are returned."""
    ring = map_.ring
    v = ring.coord("v")
    w = ring.coord("w")
    momentum = v * w
    ratio = map_.flux / map_.density
    e = (evolutionary_derivative(momentum, sysdef)
         - ratio * total_derivative(momentum)
         - 4 * total_derivative(ratio) * momentum)
    cons = sysdef.constraints
    red = cons.reduce(e) if cons is not None else e
    subs = dict(map_.substitutions)
    clearing = map_.density ** 4 - substitute(momentum, subs)
    return [("cleared conservation identity", red),
            ("quarter-power clearing of the density", clearing)]


def check_conservation(map_, sysdef, ctx, rid, citation):
    return conclude(ctx, rid, citation, conservation_pairs(map_, sysdef),
                    NORMAL_FORM)


def conservation(ctx):
    C = ctx.catalog
    yield check_conservation(C.get("recip.main"), C.get("sys.main"), ctx,
                             "conservation.main", C.citation("recip.main"))
    yield check_conservation(C.get("recip.appb"), C.get("sys.appb"), ctx,
                             "conservation.appb", C.citation("recip.appb"))


# -- reciprocal transformation --------------------------------------------

def _parametrized_time_rules(sysdef, map_):
    """Evolution of the parametrization pair (u, s) induced by the flow
    on the momenta through the cleared substitutions."""
    ring = sysdef.ring
    subs = dict(map_.substitutions)
    vt = substitute(sysdef.evolution["v"], subs)
    wt = substitute(sysdef.evolution["w"], subs)
    u = ring.coord("u")
    s = ring.coord("s")
    ut = F(1, 4) * u * (vt / subs["v"] + wt / subs["w"])
    st = s * (wt / subs["w"] - ut / u)
    return SystemDef(ring, {"u": ut, "s": st})


def _constraint_equations(sysdef, map_):
    """The momentum constraints confronted with the parametrization."""
    subs = dict(map_.substitutions)
    cons = sysdef.constraints
    return [cons.rules[dep].rhs - subs[dep] for dep in cons.rules]


def _orient_constraints(sysdef, map_):
    """A solved orientation of the constraint/parametrization system.

    Each equation in turn, reduced by the rules so far, is solved for
    its top potential jet (q on a tie); the original equations must then
    reduce to zero."""
    eqs = _constraint_equations(sysdef, map_)
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


def _tau_derivative(e, usys, ratio):
    return evolutionary_derivative(e, usys) - ratio * total_derivative(e)


def transported_tau(sysdef, map_, xdef):
    """The reciprocal time derivative of one transported coefficient,
    reduced modulo the oriented constraints and rewritten over the new
    independent variable."""
    usys = _parametrized_time_rules(sysdef, map_)
    ratio = map_.flux / map_.density
    xrules = _orient_constraints(sysdef, map_)
    return to_y(xrules.reduce(_tau_derivative(xdef, usys, ratio)))


def check_reciprocal_system_map(src, map_, dst, ctx, rid, citation):
    """Compare the transported flow of the coefficient definitions with
    the destination system's right-hand sides.

    Residuals are reduced modulo the coefficient definitions, since the
    destination displays keep the transported coefficients symbolic."""
    C = ctx.catalog
    named = dict(C.get("ymap"))
    defs = {"i": named["Q1"], "j": named["Q2"]}
    rules = usdef_rules(C)
    pairs = []
    for dep in ("i", "j"):
        got = transported_tau(src, map_, defs[dep])
        pairs.append(("transported time derivative of %s minus the stated "
                      "flow" % dep, rules.reduce(got - dst.evolution[dep])))
    return conclude(ctx, rid, citation, pairs, NORMAL_FORM)


def reciprocal(ctx):
    C = ctx.catalog
    Y = _catalog.RING_Y

    src = C.get("sys.main")
    map_ = C.get("recip.main")
    named = dict(C.get("ymap"))
    usdefs = dict(C.get("usdefs"))
    flows = dict(C.get("flow.intermediate"))
    cite = C.citation("flow.intermediate")

    yield conclude(
        ctx, "reciprocal.main.idef", C.citation("usdefs"),
        [("transported first coefficient minus its direct definition",
          to_y(named["Q1"]) - usdefs["i"])],
        NORMAL_FORM)

    yield conclude_erratum(
        ctx, "reciprocal.main.jdef", C.citation("ymap"),
        [("transported second coefficient, displayed overall power, "
          "minus the direct definition",
          to_y(named["Q2.display"]) - usdefs["j"])],
        [("transported second coefficient, corrected overall power, "
          "minus the direct definition",
          to_y(named["Q2"]) - usdefs["j"])],
        NORMAL_FORM)

    rules = usdef_rules(C)
    for dep, xdef, label in (("i", named["Q1"], "itau"),
                             ("j", named["Q2"], "jtau")):
        got = transported_tau(src, map_, xdef)
        yield conclude(
            ctx, "reciprocal.main." + label, cite,
            [("transported time derivative of %s minus the stated mixed "
              "flow" % dep, rules.reduce(got - flows[dep + "_tau"]))],
            NORMAL_FORM)

    # forced reading of the constraint notation: the transported
    # momentum constraints factor through the third-order kernel
    # expressions with a single density prefactor
    eq_r, eq_q = _constraint_equations(src, map_)
    u = Y.coord("u")
    yield conclude(
        ctx, "reciprocal.main.kernels", cite,
        [("first transported constraint minus density times its kernel "
          "reading", to_y(eq_r) - u * flows["kernelr"]),
         ("second transported constraint minus density times its kernel "
          "reading", to_y(eq_q) - u * flows["kernelq"])],
        NORMAL_FORM)

    fg = dict(C.get("fg"))
    md = C.get("sys.mdflow")
    yield conclude(
        ctx, "reciprocal.main.flowlink", C.citation("sys.mdflow"),
        [("negative-flow %s component under the flux parametrization "
          "minus the mixed flow" % dep,
          rules.reduce(substitute(md.evolution[dep], fg)
                       - flows[dep + "_tau"]))
         for dep in ("i", "j")],
        NORMAL_FORM)

    yield check_reciprocal_system_map(
        C.get("sys.appb"), C.get("recip.appb"), C.get("sys.appb.trans"),
        ctx, "reciprocal.appb", C.citation("sys.appb.trans"))
