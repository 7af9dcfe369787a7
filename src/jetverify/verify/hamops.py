"""Hamiltonian-operator checks: the two weighted kernel conjugations
and the bihamiltonian formulation of the cubic flow in the original
variable."""

from ..jetalg import (
    NotIntegrable, euler_derivative, promote, substitute, to_text,
    total_derivative,
)
from ..opcalc import (
    LocalOp, NonlocalStore, OperatorRegistry, solve_e_image,
    transport_local,
)
from .. import catalog as _catalog
from .base import NORMAL_FORM, conclude, to_y, usdef_rules


def carry_coeff(c):
    """Coefficient transport: momenta through the parametrization, then
    the independent-variable change."""
    return to_y(substitute(c, _catalog.parametrization(_catalog.RING_X)))


def transported_kernel(ctx):
    """The kernel operator in the new variable, split as the density
    times a skew remainder.

    Returns (registry, ehat) with ehat registered under "EHY"; the full
    transported kernel is mult(u) o ehat."""
    C = ctx.catalog
    Y = _catalog.RING_Y
    u = Y.coord("u")
    full = transport_local(C.get("E").local, carry_coeff, u)
    ehat = LocalOp.mult(u ** -1).compose(full)
    registry = OperatorRegistry()
    # raises unless ehat is exactly skew, which pins the density split
    registry.register_invertible("EHY", ehat, -1)
    return registry, ehat


def _conjugation_residual(ctx, left_x, right_x, result_local):
    """mult(left) o kernel o mult(right) minus result after transport,
    with the result coefficients reduced through the derivative-ratio
    definitions; jets of phi tag the orders so one expression carries
    every coefficient."""
    C = ctx.catalog
    Y = _catalog.RING_Y
    rules = usdef_rules(C)
    kernel = C.get("E").local
    # raises unless the kernel is skew, so a mutant breaking that aborts
    OperatorRegistry().register_invertible("E", kernel, -1)
    composed = (LocalOp.mult(left_x).compose(kernel)
                .compose(LocalOp.mult(right_x)))
    got = transport_local(composed, carry_coeff, Y.coord("u"))
    residual = Y.zero()
    for k in sorted(set(got.coeffs) | set(result_local.coeffs)):
        g = got.coeffs.get(k, Y.zero())
        w = rules.reduce(result_local.coeffs.get(k, Y.zero()))
        residual = residual + (g - w) * Y.coord("phi", k)
    return residual


def prop1(ctx):
    C = ctx.catalog
    X = _catalog.RING_X
    u = X.coord("u")
    s = X.coord("s")
    th1 = C.get("Theta1").local
    th1c = C.get("Theta1.conj").local
    pairs = [("transported weighted conjugation minus the displayed "
              "operator, orders tagged by jets of phi",
              _conjugation_residual(ctx, s * u ** -3, s ** -1, th1))]
    diff = th1.adjoint() + th1c
    for k in sorted(diff.coeffs):
        pairs.append(("adjoint display, coefficient of order %d" % k,
                      diff.coeffs[k]))
    # reversed weights give the negative adjoint, i.e. the conjugate
    # display itself
    pairs.append(("reversed-weight conjugation minus the conjugate "
                  "display",
                  _conjugation_residual(ctx, u ** -1 * s ** -1,
                                        s * u ** -2, th1c)))
    yield conclude(ctx, "prop1", C.citation("Theta1"), pairs, NORMAL_FORM)


def prop2(ctx):
    C = ctx.catalog
    X = _catalog.RING_X
    u = X.coord("u")
    th2 = C.get("Theta2").local
    pairs = [("transported weighted conjugation minus the displayed "
              "operator, orders tagged by jets of phi",
              _conjugation_residual(ctx, u ** -2, u ** -1, th2))]
    skew = th2.adjoint() + th2
    for k in sorted(skew.coeffs):
        pairs.append(("skewness, coefficient of order %d" % k,
                      skew.coeffs[k]))
    yield conclude(ctx, "prop2", C.citation("Theta2"), pairs, NORMAL_FORM)


def bihamiltonian_x(ctx):
    C = ctx.catalog
    X = _catalog.RING_X
    sysdef = C.get("sys.main")
    cons = sysdef.constraints
    kernel = C.get("E").local

    def gradient(density):
        """Constrained functional gradient in the momenta: the
        potentials vary through the inverse kernel, whose adjoint is
        its negative."""
        out = []
        for mom, pot in (("v", "r"), ("w", "q")):
            direct = euler_derivative(density, mom)
            through = solve_e_image(cons.reduce(
                euler_derivative(density, pot)))
            out.append(direct - through)
        return out


    h0 = C.get("H0").density
    # the gradient's inverse-kernel component stays a formal atom here:
    # composing with the local operator cancels it exactly, leaving the
    # potential-direction derivative
    flow0 = {
        "v": -kernel.apply(euler_derivative(h0, "w"))
             + euler_derivative(h0, "q"),
        "w": -kernel.apply(euler_derivative(h0, "v"))
             + euler_derivative(h0, "r"),
    }
    notes0 = []
    for pot in ("q", "r"):
        try:
            solve_e_image(cons.reduce(euler_derivative(h0, pot)))
            word = "lies"
        except NotIntegrable:
            word = "does not lie"
        notes0.append("potential-direction derivative in %s %s in the "
                      "kernel image, so only the composed cancellation "
                      "is exact" % (pot, word))
    pairs = [("local-operator flow minus the stated evolution, %s row"
              % name,
              cons.reduce(flow0[name] - sysdef.evolution[name]))
             for name in ("v", "w")]
    yield conclude(ctx, "bihamiltonian_x.local",
                   C.citation("H0"), pairs, NORMAL_FORM, notes0)

    h1 = C.get("H1").density
    g1 = gradient(h1)
    registry = OperatorRegistry()
    registry.register_invertible("E", kernel, -1)
    store = NonlocalStore(X, relations=cons, registry=registry)
    vec = [promote(e, store.ring) for e in g1]
    # each row combines two inverse-kernel words whose arguments are
    # only jointly in the image; seeding the combined argument lets the
    # store distribute the inverse linearly
    v = X.coord("v")
    w = X.coord("w")
    weigh = {"v": LocalOp(X, {1: 2 * v, 0: total_derivative(v)}),
             "w": LocalOp(X, {1: 2 * w, 0: total_derivative(w)})}
    store.resolve_inv("E", promote(weigh["v"].apply(g1[0])
                                   + weigh["w"].apply(g1[1]), store.ring))
    image = C.get("J1").promote(store.ring).apply(vec, store)
    pairs = [("nonlocal-operator flow minus the stated evolution, %s row"
              % name,
              store.reduce(image[k] - promote(sysdef.evolution[name],
                                              store.ring)))
             for k, name in enumerate(("v", "w"))]
    notes = ["quadratic-functional gradient closes to (%s, %s)"
             % tuple(to_text(e) for e in g1)]
    survivors = store.used_names([store.reduce(e) for e in image])
    if survivors:
        notes.append("auxiliaries surviving into the flow: %s"
                     % ", ".join(sorted(survivors)))
    else:
        notes.append("intermediate auxiliaries (%s) all cancel in the "
                     "assembled flow"
                     % (", ".join(n for n, _k, _c in store.allocated)
                        or "none"))
    witness = euler_derivative(cons.reduce(h1), "q")
    pairs.append(("constrained quadratic density must have a "
                  "nonvanishing variational derivative",
                  X.one() if witness.is_zero else X.zero()))
    yield conclude(ctx, "bihamiltonian_x.nonlocal",
                   C.citation("H1"), pairs, NORMAL_FORM, notes)
