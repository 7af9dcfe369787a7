"""Hamiltonian-operator checks: the two weighted kernel conjugations
and the bihamiltonian formulation of the cubic flow in the original
variable."""

from ..jetalg import (
    NotIntegrable, euler_derivative, promote, substitute, to_text,
)
from ..opcalc import (
    LocalOp, NonlocalStore, PseudoOp, solve_e_image, transport_local,
)
from .. import catalog as _catalog
from .base import (
    NORMAL_FORM, Claim, op_coeff_pairs, to_y, usdef_rules, whole,
)


def carry_coeff(c):
    """Coefficient transport: momenta through the parametrization, then
    the independent-variable change."""
    return to_y(substitute(c, _catalog.parametrization(_catalog.RING_X)))


def transported_kernel(C):
    """The kernel operator in the new variable, split as the density
    times a skew remainder.

    Returns the store inverses {"EHY": ehat}, ehat the skew remainder;
    the full transported kernel is mult(u) o ehat.  A store built on
    them raises unless ehat is exactly skew, which pins the density
    split."""
    Y = _catalog.RING_Y
    u = Y.coord("u")
    full = transport_local(C.get("E").local, carry_coeff, u)
    return {"EHY": LocalOp.mult(u ** -1).compose(full)}


def transport_pseudo(op, jac):
    """A pseudo-differential operator carried through the variable
    change: coefficients through the momentum parametrization, the
    derivation rescaled by the density, and integral tails reweighted.
    A word citing inv[E] cites inv[EHY] of ``transported_kernel``
    instead, the density 1/jac folded into its right side; a word
    citing any other name raises KeyError."""
    local = transport_local(op.local, carry_coeff, jac)
    tail = [(carry_coeff(p), carry_coeff(q) / jac) for p, q in op.tail]
    words = []
    for scalar, left, name, right in op.words:
        if name != "E":
            raise KeyError("no transported inverse for %s" % (name,))
        right = transport_local(right, carry_coeff, jac).scaled(jac ** -1)
        words.append((scalar, transport_local(left, carry_coeff, jac),
                      "EHY", right))
    return PseudoOp(jac.ring, local, tail, words)


def _conjugations(C, *displays):
    """For each display, mult(left) o kernel o mult(right) after
    transport, with the weights (left, right) of the conjugation
    compared with that display."""
    X = _catalog.RING_X
    u = X.coord("u")
    s = X.coord("s")
    weights = {
        "Theta1": (s * u ** -3, s ** -1),
        # reversed weights give the negative adjoint, i.e. the
        # conjugate display itself
        "Theta1.conj": (u ** -1 * s ** -1, s * u ** -2),
        "Theta2": (u ** -2, u ** -1),
    }
    kernel = C.get("E").local
    return tuple(
        transport_local(LocalOp.mult(left).compose(kernel)
                        .compose(LocalOp.mult(right)),
                        carry_coeff, _catalog.RING_Y.coord("u"))
        for left, right in (weights[d] for d in displays))


def _conjugation_residual(C, got, result_local):
    """The weighted conjugation got minus result_local, with the result
    coefficients reduced through the derivative-ratio definitions; jets
    of phi tag the orders so one expression carries every
    coefficient."""
    Y = _catalog.RING_Y
    rules = usdef_rules(C)
    residual = Y.zero()
    for k in sorted(set(got.coeffs) | set(result_local.coeffs)):
        g = got.coeffs.get(k, Y.zero())
        w = rules.reduce(result_local.coeffs.get(k, Y.zero()))
        residual = residual + (g - w) * Y.coord("phi", k)
    return residual


def prop1(C):
    yield ("prop1", lambda: _conjugations(C, "Theta1", "Theta1.conj"),
           lambda got: _prop1_row(C, *got))


def _prop1_row(C, conj, conj_reversed):
    th1 = C.get("Theta1").local
    th1c = C.get("Theta1.conj").local
    pairs = [("transported weighted conjugation minus the displayed "
              "operator, orders tagged by jets of phi",
              _conjugation_residual(C, conj, th1))]
    pairs += op_coeff_pairs("adjoint display", th1.adjoint() + th1c)
    pairs.append(("reversed-weight conjugation minus the conjugate "
                  "display",
                  _conjugation_residual(C, conj_reversed, th1c)))
    return Claim(C.citation("Theta1"), pairs, NORMAL_FORM)


def prop2(C):
    yield ("prop2", lambda: _conjugations(C, "Theta2"),
           lambda got: _prop2_row(C, *got))


def _prop2_row(C, conj):
    th2 = C.get("Theta2").local
    pairs = [("transported weighted conjugation minus the displayed "
              "operator, orders tagged by jets of phi",
              _conjugation_residual(C, conj, th2))]
    pairs += op_coeff_pairs("skewness", th2.adjoint() + th2)
    return Claim(C.citation("Theta2"), pairs, NORMAL_FORM)


def bihamiltonian_x(C):
    yield "bihamiltonian_x.local", lambda: _bihamiltonian_local(C), whole
    yield ("bihamiltonian_x.nonlocal", lambda: _bihamiltonian_nonlocal(C),
           whole)


def _bihamiltonian_local(C):
    sysdef = C.get("sys.main")
    cons = sysdef.constraints
    kernel = C.get("E").local
    h0 = C.get("H0")
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
    return Claim(C.citation("H0"), pairs, NORMAL_FORM, notes0)


def _h1_gradient(C):
    """The constrained functional gradient of H1 in the momenta, and
    the q-derivative of the constrained density, which witnesses that
    the gradient is not vacuous.  The potentials vary through the
    inverse kernel, whose adjoint is its negative."""
    cons = C.get("sys.main").constraints
    h1 = C.get("H1")
    gradient = tuple(
        euler_derivative(h1, mom)
        - solve_e_image(cons.reduce(euler_derivative(h1, pot)))
        for mom, pot in (("v", "r"), ("w", "q")))
    return gradient, euler_derivative(cons.reduce(h1), "q")


def _bihamiltonian_nonlocal(C):
    X = _catalog.RING_X
    sysdef = C.get("sys.main")
    cons = sysdef.constraints
    kernel = C.get("E").local
    # the gradient reads neither E nor J1, so their mutants are handed it
    g1, witness = C.derive("H1.gradient", lambda: _h1_gradient(C))
    store = NonlocalStore(X, relations=cons, inverses={"E": kernel})
    # each row combines two inverse-kernel words whose arguments are
    # only jointly in the image; seeding the first row's combined
    # argument, built from the catalog's word sides, lets the store
    # distribute the inverse linearly
    j1 = C.get("J1")
    seed = X.zero()
    for op, grad in zip(j1.grid[0], g1):
        for _c, _left, _name, right in op.words:
            seed = seed + right.apply(grad)
    store.resolve_inv("E", seed)
    image = j1.apply(g1, store)
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
    pairs.append(("constrained quadratic density must have a "
                  "nonvanishing variational derivative",
                  X.one() if witness.is_zero else X.zero()))
    return Claim(C.citation("H1"), pairs, NORMAL_FORM, notes)
