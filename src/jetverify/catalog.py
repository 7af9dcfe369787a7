"""Catalog of verification targets.

Every concrete object the checking suite works against lives here as
immutable data: evolution systems, matrix spectral pairs, reciprocal
changes of the independent variable, conserved functionals, Hamiltonian
and recursion operators, substitution chains, and zero-curvature
relation sets.  Each entry carries a stable short identifier, a kind
tag, the ring it lives over, and a one-line citation describing the
object in words.  The suite re-derives its own versions of these
objects and compares against the stored forms, so nothing here is
computed from anything the checks produce.

Quarter powers of the product v*w never appear: the catalog stores the
cleared parametrization v = u^3/s, w = u*s and phrases every density or
coefficient through (u, s) instead.
"""

from fractions import Fraction

from .jetalg import (
    RelationSet,
    RingContext,
    SystemDef,
    perturb_term,
    solve_for,
    total_derivative,
)
from .opcalc import LocalOp, MatrixOp, PseudoOp

__all__ = [
    "RING_X",
    "RING_Y",
    "RING_K",
    "RINGS",
    "KINDS",
    "KIND_TABLE",
    "parametrization",
    "Entry",
    "LaxPair",
    "ReciprocalMap",
    "NamedFunctional",
    "CatalogView",
    "CATALOG",
    "mutated",
    "part_windows",
    "emat_add",
    "emat_sub",
    "emat_mul",
    "emat_d",
]

F = Fraction

# Ring of the original independent variable: momenta (v, w), potentials
# (q, r), and the cleared parametrization pair (u, s).
RING_X = RingContext("x", ("v", "w", "q", "r", "u", "s"), ("lam",))

# Ring of the transformed independent variable: scalar-problem
# coefficients (m, n), substitution variables (i, j), factorization
# coefficients (a1, b1), fluxes (f, g), eigenfunctions (phi, psi),
# potentials carried over, and the parametrization (h, u, s).
RING_Y = RingContext(
    "y",
    ("m", "n", "v", "w", "i", "j", "a1", "b1", "f", "g",
     "phi", "psi", "q", "r", "h", "u", "s"),
    ("lam",))

# Ring for the formal zero-curvature elimination: the eight unknown
# block entries, the flow placeholders (it, jt), and (i, j, f, g).
RING_K = RingContext(
    "y",
    ("it", "jt", "X11", "X12", "X21", "X22", "Y11", "Y12", "Y21", "Y22",
     "i", "j", "f", "g"),
    ("lam",))

RINGS = {"x": RING_X, "y": RING_Y, "k": RING_K}


def parametrization(ring):
    """The cleared parametrization of the momenta, v = u^3/s and
    w = u*s, over a ring carrying (u, s)."""
    u = ring.coord("u")
    s = ring.coord("s")
    return {"v": u ** 3 / s, "w": u * s}


class LaxPair:
    """A matrix spectral pair: two grids of jet expressions whose
    compatibility (zero curvature) the suite checks."""

    __slots__ = ("ring", "space", "time")

    def __init__(self, ring, space, time):
        self.ring = ring
        self.space = tuple(tuple(row) for row in space)
        self.time = tuple(tuple(row) for row in time)


class ReciprocalMap:
    """An exact one-form (density dx + flux dt) introducing a new
    independent variable, with the dependent-variable substitutions
    that clear fractional powers."""

    __slots__ = ("ring", "density", "flux", "substitutions")

    def __init__(self, ring, density, flux, substitutions):
        self.ring = ring
        self.density = density
        self.flux = flux
        self.substitutions = tuple(substitutions)


class NamedFunctional:
    """A conserved functional stored through its density."""

    __slots__ = ("ring", "density")

    def __init__(self, ring, density):
        self.ring = ring
        self.density = density


# -- kind table --------------------------------------------------------
#
# One walk per kind defines the mutation surface.  KIND_TABLE[kind](value,
# fn) returns value rebuilt with every expression leaf e replaced by
# fn(label, e), calling fn in slot order; label names the structural part
# holding the leaf, "all" for kinds without named parts.  part_windows
# records this walk and mutated perturbs one leaf of it, so the slot
# order is written here and nowhere else.

def _walk_grid(grid, fn, label):
    return tuple(tuple(fn(label, e) for e in row) for row in grid)


def _walk_rules(relations, fn, label=None):
    rules = RelationSet(relations.ring)
    for dep, rule in relations.rules.items():
        rules = rules.with_rule(dep, rule.order, fn(label or dep, rule.rhs))
    return rules


def _walk_op(op, fn):
    return op.map_coefficients(lambda e: fn("all", e))


KIND_TABLE = {
    "expr": lambda v, fn: fn("all", v),
    "exprs": lambda v, fn: tuple((label, fn(label, e)) for label, e in v),
    "op": _walk_op,
    "matrix": lambda v, fn: MatrixOp(tuple(tuple(_walk_op(e, fn) for e in row)
                                           for row in v.grid)),
    "exprmatrix": lambda v, fn: _walk_grid(v, fn, "all"),
    "system": lambda v, fn: SystemDef(
        v.ring, {dep: fn("evolution", e) for dep, e in v.evolution.items()},
        _walk_rules(v.constraints, fn, "constraints")),
    "laxpair": lambda v, fn: LaxPair(v.ring, _walk_grid(v.space, fn, "space"),
                                     _walk_grid(v.time, fn, "time")),
    "reciprocal": lambda v, fn: ReciprocalMap(
        v.ring, fn("density", v.density), fn("flux", v.flux),
        tuple((dep, fn("substitutions", e)) for dep, e in v.substitutions)),
    "functional": lambda v, fn: NamedFunctional(v.ring, fn("all", v.density)),
    "relations": _walk_rules,
}

KINDS = tuple(KIND_TABLE)


class Entry:
    """One catalog record: identifier, kind tag, ring key, citation
    text, and the stored value.  Records are write-once."""

    __slots__ = ("ident", "kind", "ring_key", "citation", "value")

    def __init__(self, ident, kind, ring_key, citation, value):
        if kind not in KINDS:
            raise ValueError("unknown catalog kind %r" % (kind,))
        if ring_key not in RINGS:
            raise ValueError("unknown ring key %r" % (ring_key,))
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ring_key", ring_key)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("catalog entries are read-only")

    @property
    def ring(self):
        return RINGS[self.ring_key]


# -- expression-grid helpers --------------------------------------------

def emat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def emat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def emat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(mid)),
                           a[0][0].ring.zero())
                       for j in range(m)) for i in range(n))


def emat_d(a):
    return tuple(tuple(total_derivative(x) for x in row) for row in a)


# -- operator shorthands -------------------------------------------------

def _pd(ring, k=1, coeff=1):
    return PseudoOp.from_local(LocalOp.derivative(ring, k, coeff))


def _pm(expr):
    return PseudoOp.from_expr(expr)


def _pl(ring, coeffs):
    return PseudoOp.from_local(LocalOp(ring, coeffs))


def _pt(p, q):
    return PseudoOp.from_tail(p, q)


def _ij_operators(ring):
    """d, d^2, d^3, the coordinates i, j and their multiplication
    operators over ring."""
    i = ring.coord("i")
    j = ring.coord("j")
    return (LocalOp.derivative(ring), LocalOp.derivative(ring, 2),
            LocalOp.derivative(ring, 3), i, j, LocalOp.mult(i),
            LocalOp.mult(j))


def _s1_local(ring):
    """Third-order operator acting on the upper off-diagonal unknown in
    the balance relations: (1/2)d^3 - i d^2 - j d - d j - (1/2) d i d
    + i^2 d + 2 i j."""
    d1, d2, d3, i, j, mi, mj = _ij_operators(ring)
    return (d3.scaled(F(1, 2)) - mi.compose(d2) - mj.compose(d1)
            - d1.compose(mj) - d1.compose(mi).compose(d1).scaled(F(1, 2))
            + LocalOp.mult(i * i).compose(d1) + LocalOp.mult(2 * i * j))


def _s2_local(ring):
    """Companion operator on the lower off-diagonal unknown:
    -[(1/2)d^3 + d^2 i - j d - d j + (1/2) d i d + 2 i d i - i^2 d
    - 2 i j]."""
    d1, d2, d3, i, j, mi, mj = _ij_operators(ring)
    inner = (d3.scaled(F(1, 2)) + d2.compose(mi) - mj.compose(d1)
             - d1.compose(mj) + d1.compose(mi).compose(d1).scaled(F(1, 2))
             + mi.compose(d1).compose(mi).scaled(2)
             - LocalOp.mult(i * i).compose(d1) - LocalOp.mult(2 * i * j))
    return inner.scaled(-1)


def _rel6_local(ring):
    """Operator on the diagonal difference in the sixth consequence:
    (1/2)(d^3 + d^2 i - i d^2 - i d i) - j d - d j."""
    d1, d2, d3, _i, _j, mi, mj = _ij_operators(ring)
    return (d3.scaled(F(1, 2)) + d2.compose(mi).scaled(F(1, 2))
            - mi.compose(d2).scaled(F(1, 2))
            - mi.compose(d1).compose(mi).scaled(F(1, 2))
            - mj.compose(d1) - d1.compose(mj))


# -- entry builders ------------------------------------------------------

def _x_entries(add):
    X = RING_X
    z = X.zero()
    one = X.one()

    def co(name, k=0):
        return X.coord(name, k)

    lam = X.param("lam")
    ilam = X.param("lam", -1)
    ilam2 = X.param("lam", -2)
    v, v1 = co("v"), co("v", 1)
    w, w1 = co("w"), co("w", 1)
    q, q1, q2, q3 = co("q"), co("q", 1), co("q", 2), co("q", 3)
    r, r1, r2, r3 = co("r"), co("r", 1), co("r", 2), co("r", 3)
    u = co("u")

    kappa = q * r1 - q1 * r
    cons_main = (RelationSet(X)
                 .with_rule("v", 0, r3 - r1)
                 .with_rule("w", 0, q3 - q1))
    add("sys.main", "system", "x",
        SystemDef(X,
                  {"v": 2 * v1 * kappa
                        + 2 * v * (3 * q * r2 - q2 * r - q1 * r1 - q * r),
                   "w": 2 * w1 * kappa
                        - 2 * w * (3 * q2 * r - q * r2 - q1 * r1 - q * r)},
                  cons_main),
        "two-component flow with cubic nonlinearity in the potentials "
        "(q, r), momenta (v, w) tied by third-order constraints")

    space4 = ((z, z, one, z),
              (z, z, z, one),
              (F(1, 4) * one, lam * v, z, z),
              (lam * w, F(1, 4) * one, z, z))
    k1 = F(1, 2) * ilam2 + q1 * r1 + q * r
    k2 = F(1, 2) * kappa
    time_main = (
        (2 * q2 * r - k1, r1 * ilam, 4 * k2, -2 * r * ilam),
        (-q1 * ilam, k1 - 2 * q * r2, 2 * q * ilam, 4 * k2),
        (q2 * r1 - q1 * r2 - k2, 4 * lam * v * k2 + (r2 - F(1, 2) * r) * ilam,
         2 * q * r2 - k1, -r1 * ilam),
        (4 * lam * w * k2 + (F(1, 2) * q - q2) * ilam,
         q2 * r1 - q1 * r2 - k2, q1 * ilam, k1 - 2 * q2 * r),
    )
    add("lax.main", "laxpair", "x",
        LaxPair(X, space4, time_main),
        "4x4 spectral pair whose zero curvature reproduces the cubic flow")

    param = parametrization(X)
    subs = tuple(param.items())
    add("recip.main", "reciprocal", "x",
        ReciprocalMap(X, u, 2 * u * kappa, subs),
        "independent-variable change generated by the conserved "
        "quarter-power density, in cleared (u, s) form")

    cons_b = (RelationSet(X)
              .with_rule("v", 0, q2 - q + r1)
              .with_rule("w", 0, q2 - q - r1))
    add("sys.appb", "system", "x",
        SystemDef(X,
                  {"v": 4 * v * q1 + 2 * v1 * q + 2 * v * r,
                   "w": 4 * w * q1 + 2 * w1 * q - 2 * w * r},
                  cons_b),
        "companion two-component flow with quadratic nonlinearity "
        "sharing the same spatial problem")

    time_b = (
        (r - q1, z, 2 * q, ilam),
        (z, -r - q1, ilam, 2 * q),
        (F(1, 2) * (v + w + q) - q2, 2 * lam * v * q + F(1, 4) * ilam,
         r + q1, z),
        (2 * lam * w * q + F(1, 4) * ilam, F(1, 2) * (v + w + q) - q2,
         z, q1 - r),
    )
    add("lax.appb", "laxpair", "x",
        LaxPair(X, space4, time_b),
        "4x4 spectral pair for the companion quadratic flow")

    add("recip.appb", "reciprocal", "x",
        ReciprocalMap(X, u, 2 * q * u, subs),
        "independent-variable change for the companion flow")

    # Coefficient functions transported to the new variable, written
    # through the cleared parametrization so no fractional powers of
    # v*w appear.  Q2 is stored twice: the overall-power reading that
    # the suite confirms, and the reading with power -5/4 of v*w that
    # it refutes.
    vv = param["v"]
    ww = param["w"]
    vv1 = total_derivative(vv)
    ww1 = total_derivative(ww)
    vv2 = total_derivative(vv1)
    ww2 = total_derivative(ww1)
    q1x = F(-1, 2) * u ** -5 * (ww * vv1 - ww1 * vv)
    poly = (16 * ww ** 2 * vv ** 2 - 33 * vv ** 2 * ww1 ** 2
            + 6 * ww * ww1 * vv * vv1 + 7 * ww ** 2 * vv1 ** 2
            + 24 * vv ** 2 * ww * ww2 - 8 * ww ** 2 * vv * vv2)
    add("ymap", "exprs", "x",
        (("density", u),
         ("Q1", q1x),
         ("Q2", F(1, 64) * u ** -10 * poly),
         ("Q2.display", F(1, 64) * u ** -5 * poly)),
        "new independent variable and the two transported coefficient "
        "functions, cleared of quarter powers")

    add("E", "op", "x", _pl(X, {3: one, 1: -one}),
        "third-order kernel operator d^3 - d")

    pz = PseudoOp.zero(X)
    neg_e = _pl(X, {3: -one, 1: one})
    add("J2", "matrix", "x", MatrixOp(((pz, neg_e), (neg_e, pz))),
        "local Hamiltonian operator: minus the kernel operator against "
        "the swapped pair")

    x_v = LocalOp(X, {1: 2 * v, 0: v1})
    x_w = LocalOp(X, {1: 2 * w, 0: w1})

    def j1_entry(a_name, b_name, tail_sign):
        a = co(a_name)
        b = co(b_name)
        ops = {"v": x_v, "w": x_w}
        word = (F(-2), ops[a_name], "E", ops[b_name])
        return PseudoOp(X, None, ((tail_sign * 2 * a, b),), (word,))

    add("J1", "matrix", "x",
        MatrixOp(((j1_entry("v", "v", -1), j1_entry("v", "w", 1)),
                  (j1_entry("w", "v", 1), j1_entry("w", "w", -1)))),
        "nonlocal Hamiltonian operator with momentum-weighted integral "
        "tails and kernel-inverse words")

    add("H0", "functional", "x",
        NamedFunctional(X, F(1, 2) * (
            v * (2 * q ** 2 * r2 - 2 * q * q1 * r1 + q1 ** 2 * r
                 - q ** 2 * r)
            + w * (2 * r * q1 * r1 - 2 * q2 * r ** 2 - r1 ** 2 * q
                   + r ** 2 * q))),
        "quartic conserved functional driving the flow through the "
        "local operator")
    add("H1", "functional", "x",
        NamedFunctional(X, F(1, 2) * (w * r - q * v)),
        "quadratic conserved functional driving the flow through the "
        "nonlocal operator")


def _y_entries(add):
    Y = RING_Y
    z = Y.zero()
    one = Y.one()

    def co(name, k=0):
        return Y.coord(name, k)

    d = total_derivative
    lam = Y.param("lam")
    lam2 = Y.param("lam", 2)
    ilam = Y.param("lam", -1)
    ilam2 = Y.param("lam", -2)
    i, i1, i2 = co("i"), co("i", 1), co("i", 2)
    j, j1, j2 = co("j"), co("j", 1), co("j", 2)
    u, u1, u2 = co("u"), co("u", 1), co("u", 2)
    h, h1, h2, h3, h4 = (co("h"), co("h", 1), co("h", 2), co("h", 3),
                         co("h", 4))
    s, s1, s2 = co("s"), co("s", 1), co("s", 2)
    f, f1, f2, f3 = co("f"), co("f", 1), co("f", 2), co("f", 3)
    g, g1, g2, g3 = co("g"), co("g", 1), co("g", 2), co("g", 3)
    m, m1 = co("m"), co("m", 1)
    n = co("n")
    q, q1 = co("q"), co("q", 1)
    r = co("r")
    v, w = co("v"), co("w")
    phi, phi1, phi2, phi4 = (co("phi"), co("phi", 1), co("phi", 2),
                             co("phi", 4))
    psi, psi1, psi2 = co("psi"), co("psi", 1), co("psi", 2)

    add("hmap", "relations", "y",
        RelationSet(Y).with_rule("s", 0, u * h ** -2),
        "bridge relation expressing s through u and the ratio root h")

    add("miura.m", "expr", "y", -i1 - i ** 2 - 2 * j,
        "second-order scalar coefficient from the quadratic "
        "substitution in (i, j)")
    add("miura.n", "expr", "y", j ** 2 - j2 - d(i * j),
        "zeroth-order scalar coefficient from the quadratic "
        "substitution in (i, j)")

    mh = (-F(1, 2) * u ** -2 + F(1, 2) * u1 ** 2 * u ** -2 - u2 / u
          - 6 * h1 ** 2 * h ** -2 + 4 * h2 / h)
    dmh = d(mh)
    nh = (-(h1 / h) * dmh + h1 ** 2 * h ** -2 * mh + F(1, 2) * d(dmh)
          - h4 / h + 36 * h1 ** 4 * h ** -4 - 48 * h1 ** 2 * h2 * h ** -3
          + 6 * h2 ** 2 * h ** -2 + 10 * h1 * h3 * h ** -2
          + F(1, 4) * u2 * u ** -3 + F(1, 4) * u2 ** 2 * u ** -2
          + F(1, 16) * u ** -4 - F(1, 4) * u1 ** 2 * u2 * u ** -3
          + F(1, 16) * u1 ** 4 * u ** -4 - F(1, 8) * u1 ** 2 * u ** -4)
    add("scalar.mn", "exprs", "y", (("m", mh), ("n", nh)),
        "fourth-order scalar problem coefficients written through "
        "(u, h)")

    add("fg", "exprs", "y", (("f", q * u ** 2 / s), ("g", r * s)),
        "flux pair (f, g) parametrized by (q, r, u, s)")

    add("F12", "exprs", "y",
        (("F1", 3 * i * g2 - g3 + (i1 - 2 * i ** 2 + 4 * j) * g1
                + (2 * j1 - 4 * i * j) * g),
         ("F2", (4 * i * j + 2 * j1 - 2 * i2 - 4 * i * i1) * f
                + (4 * j - 5 * i1 - 2 * i ** 2) * f1 - 3 * i * f2 - f3)),
        "third-order expressions in the fluxes entering the "
        "unit-normalized constraints")

    cons_md = (RelationSet(Y)
               .with_rule("g", 3,
                          3 * i * g2 + (i1 - 2 * i ** 2 + 4 * j) * g1
                          + (2 * j1 - 4 * i * j) * g + one)
               .with_rule("f", 3,
                          (4 * i * j + 2 * j1 - 2 * i2 - 4 * i * i1) * f
                          + (4 * j - 5 * i1 - 2 * i ** 2) * f1
                          - 3 * i * f2 + one))
    add("sys.mdflow", "system", "y",
        SystemDef(Y,
                  {"i": -2 * (f + g),
                   "j": f1 - 3 * g1 + 2 * i * (f + g)},
                  cons_md),
        "negative flow of the modified hierarchy with both flux "
        "constraints normalized to -1")

    add("flow.intermediate", "exprs", "y",
        (("i_tau", -2 * (r * s + q * u ** 2 / s)),
         ("j_tau", -3 * d(r * s) + 2 * r * s * i
                   + (u ** 2 / s) * (q1 + q * s1 / s)),
         ("kernelr", d(u * d(u * d(r))) - d(r) - u ** 2 / s),
         ("kernelq", d(u * d(u * d(q))) - d(q) - s)),
        "transported flow in mixed variables with the third-order "
        "kernel identities for the flux combinations")

    idef = s1 / s - u1 / u
    jdef = (F(1, 4) * u ** -2 + F(1, 2) * u1 * s1 / (u * s)
            - F(3, 4) * s1 ** 2 * s ** -2 + F(1, 2) * s2 / s)
    cons_bt = (RelationSet(Y)
               .with_rule("i", 0, idef)
               .with_rule("j", 0, jdef))
    add("sys.appb.trans", "system", "y",
        SystemDef(Y,
                  {"i": s - u ** 2 / s,
                   "j": F(1, 2) * s1 + u1 * s / u
                        + F(1, 2) * u ** 2 * s1 * s ** -2},
                  cons_bt),
        "transported companion flow in (i, j) with their (u, s) "
        "definitions as constraints")

    add("usdefs", "exprs", "y", (("i", idef), ("j", jdef)),
        "definitions of (i, j) through the parametrization pair (u, s)")

    space_t = ((z, z, one, z),
               (z, z, z, one),
               (j, lam, i, z),
               (lam, j - i1, z, -i))
    a2 = g2 - 2 * g1 * i - 2 * g * j
    a3 = -f2 - 2 * d(f * i) + 2 * f * j
    time_t = (
        (F(-1, 2) * ilam2, (g1 - 2 * g * i) * ilam, z, -2 * g * ilam),
        (-(f1 + 2 * f * i) * ilam, F(1, 2) * ilam2, 2 * f * ilam, z),
        (-2 * g, a2 * ilam, F(-1, 2) * ilam2, -g1 * ilam),
        (a3 * ilam, 2 * f, f1 * ilam, F(1, 2) * ilam2),
    )
    add("lax.trans", "laxpair", "y",
        LaxPair(Y, space_t, time_t),
        "transported 4x4 spectral pair in (i, j) with fluxes (f, g)")

    a1_coef = (F(1, 4) * s * u ** -2 + F(1, 4) * s1 ** 2 / s
               - F(1, 2) * u1 * s1 / u)
    time_bt = (
        (z, (F(1, 2) * s1 - s * u1 / u) * ilam, z, s * ilam),
        (F(-1, 2) * u ** 2 * s1 * s ** -2 * ilam, z, u ** 2 / s * ilam, z),
        (s, a1_coef * ilam, z, F(1, 2) * s1 * ilam),
        (u ** 2 * a1_coef * s ** -2 * ilam, u ** 2 / s,
         d(F(1, 2) * u ** 2 / s) * ilam, z),
    )
    add("lax.appb.trans", "laxpair", "y",
        LaxPair(Y, space_t, time_bt),
        "transported companion spectral pair written through (u, s)")

    add("reduction2", "exprs", "y",
        (("phi.eq", phi2 + (u1 / u - s1 / s) * phi1
                    + (F(3, 4) * s1 ** 2 * s ** -2 - F(1, 2) * s2 / s
                       - F(1, 2) * u1 * s1 / (u * s)
                       - F(1, 4) * u ** -2) * phi - lam * psi),
         ("psi.eq", psi2 + (s1 / s - u1 / u) * psi1
                    + (F(1, 2) * s2 / s - F(1, 4) * s1 ** 2 * s ** -2
                       - F(1, 2) * u1 * s1 / (u * s) - u2 / u
                       + u1 ** 2 * u ** -2 - F(1, 4) * u ** -2) * psi
                    - lam * phi)),
        "coupled second-order reduction of the transported spectral "
        "problem, as zero claims")

    add("scalar4", "expr", "y",
        phi4 + m * phi2 + m1 * phi1 + n * phi - lam2 * phi,
        "fourth-order scalar spectral problem with squared eigenvalue, "
        "as a zero claim")

    add("ab1", "exprs", "y",
        (("a1", F(1, 2) * u1 / u + F(1, 2) / u), ("b1", h1 / h)),
        "first-order factorization coefficients through (u, h)")

    add("factor2.left", "op", "y", _pl(Y, {2: one, 1: i, 0: i1 - j}),
        "left second-order factor of the fourth-order operator")
    add("factor2.right", "op", "y", _pl(Y, {2: one, 1: -i, 0: -j}),
        "right second-order factor of the fourth-order operator")

    a1c, b1c = co("a1"), co("b1")
    for k, coeff0 in (("1", a1c - b1c), ("2", -a1c - b1c),
                      ("3", a1c + b1c), ("4", b1c - a1c)):
        add("factor1." + k, "op", "y", _pl(Y, {1: one, 0: coeff0}),
            "linear factor %s of 4 of the fourth-order operator" % k)

    add("L4", "op", "y", _pl(Y, {4: one, 2: m, 1: m1, 0: n}),
        "fourth-order scalar operator in coefficient form")

    # Claimed linearization rows of the variable change and their
    # adjoints.
    add("frechet.Pv", "op", "y", _pt(F(1, 4) * one, one / v),
        "claimed linearization of the variable map in the v direction")
    add("frechet.Pw", "op", "y", _pt(F(1, 4) * one, one / w),
        "claimed linearization of the variable map in the w direction")

    add("frechet.Q1v", "op", "y",
        _pd(Y, 1).compose(_pm(F(1, 2) / v)).scaled(-1)
        + _pm(F(-1, 4) * i / v),
        "claimed linearization of the first coefficient in the v "
        "direction")
    add("frechet.Q1w", "op", "y",
        _pd(Y, 1).compose(_pm(F(1, 2) / w)) + _pm(F(-1, 4) * i / w),
        "claimed linearization of the first coefficient in the w "
        "direction")
    add("frechet.Q2v", "op", "y",
        (_pm(F(-1, 2) * j) + _pd(Y, 2, F(-1, 8))
         + _pd(Y, 1).scaled(F(1, 8) * i)).compose(_pm(one / v)),
        "claimed linearization of the second coefficient in the v "
        "direction")
    add("frechet.Q2w", "op", "y",
        (_pm(F(-1, 2) * j) + _pd(Y, 2, F(3, 8))
         + _pd(Y, 1).scaled(F(-3, 8) * i)).compose(_pm(one / w)),
        "claimed linearization of the second coefficient in the w "
        "direction")
    add("frechet.Pv.star", "op", "y", _pt(F(-1, 4) * u / v, one / u),
        "claimed adjoint of the variable-map linearization, v "
        "direction")
    add("frechet.Pw.star", "op", "y", _pt(F(-1, 4) * u / w, one / u),
        "claimed adjoint of the variable-map linearization, w "
        "direction")
    add("frechet.Q1v.u", "op", "y",
        _pl(Y, {1: F(1, 2) * u / v, 0: F(-1, 4) * i * u / v}),
        "claimed weighted adjoint of the first-coefficient "
        "linearization, v direction")
    add("frechet.Q1w.u", "op", "y",
        _pl(Y, {1: F(-1, 2) * u / w, 0: F(-1, 4) * i * u / w}),
        "claimed weighted adjoint of the first-coefficient "
        "linearization, w direction")
    add("frechet.Q2v.u", "op", "y",
        _pl(Y, {2: F(-1, 8) * u / v, 1: F(-1, 8) * i * u / v,
                0: F(-1, 2) * j * u / v - F(1, 8) * i1 * u / v}),
        "claimed weighted adjoint of the second-coefficient "
        "linearization, v direction")
    add("frechet.Q2w.u", "op", "y",
        _pl(Y, {2: F(3, 8) * u / w, 1: F(3, 8) * i * u / w,
                0: F(-1, 2) * j * u / w + F(3, 8) * i1 * u / w}),
        "claimed weighted adjoint of the second-coefficient "
        "linearization, w direction")

    didinv = (_pd(Y, 1).compose(_pm(i)).compose(_pt(one, one)))
    lam_11 = didinv + _pd(Y, 1, 2)
    lam_12 = didinv + _pd(Y, 1, -2)
    lam_21 = (_pt(j1, one)
              + _pl(Y, {2: F(1, 2) * one, 1: F(-1, 2) * i, 0: 2 * j}))
    lam_22 = (_pt(j1, one)
              + _pl(Y, {2: F(-3, 2) * one, 1: F(3, 2) * i, 0: 2 * j}))
    add("Lambda", "matrix", "y",
        MatrixOp(((lam_11, lam_12), (lam_21, lam_22))),
        "common left factor of the forward Jacobian block matrix")

    add("T1", "matrix", "y",
        MatrixOp(((lam_11.compose(_pm(one / v)),
                   lam_12.compose(_pm(one / w))),
                  (lam_21.compose(_pm(one / v)),
                   lam_22.compose(_pm(one / w))))).scaled(F(1, 4)),
        "claimed forward Jacobian block matrix of the variable change")

    t2_11 = _pm(u / v).compose(_pl(Y, {1: 2 * one, 0: -i}) + _pt(one, i1))
    t2_12 = _pm(u / v).compose(
        _pl(Y, {2: F(-1, 2) * one, 1: F(-1, 2) * i,
                0: F(-1, 2) * i1 - 2 * j}) + _pt(one, j1))
    t2_21 = _pm(u / w).compose(_pl(Y, {1: -2 * one, 0: -i}) + _pt(one, i1))
    t2_22 = _pm(u / w).compose(
        _pl(Y, {2: F(3, 2) * one, 1: F(3, 2) * i,
                0: F(3, 2) * i1 - 2 * j}) + _pt(one, j1))
    add("T2", "matrix", "y",
        MatrixOp(((t2_11, t2_12), (t2_21, t2_22))).scaled(F(1, 4)),
        "claimed backward Jacobian block matrix of the variable change")

    th1 = {3: one, 2: -3 * i, 1: 2 * i ** 2 - i1 - 4 * j,
           0: 4 * i * j - 2 * j1}
    add("Theta1", "op", "y", _pl(Y, th1),
        "third-order operator from the weighted kernel conjugation")
    th1c = {3: one, 2: 3 * i, 1: 2 * i ** 2 + 5 * i1 - 4 * j,
            0: 2 * i2 - 2 * j1 + 4 * i * i1 - 4 * i * j}
    add("Theta1.conj", "op", "y", _pl(Y, th1c),
        "claimed negative adjoint of the conjugation operator")
    ce = i1 - F(1, 2) * i ** 2 - 2 * j
    add("Theta2", "op", "y", _pl(Y, {3: one, 1: 2 * ce, 0: d(ce)}),
        "skew third-order operator from the symmetric kernel "
        "conjugation")

    add("Jt1.middle", "matrix", "y",
        MatrixOp(((PseudoOp.zero(Y), _pl(Y, th1)),
                  (_pl(Y, th1c), PseudoOp.zero(Y)))),
        "middle block matrix of the transformed nonlocal Hamiltonian "
        "operator, before the -1/16 sandwich")

    jt2_22 = (_pm(j).compose(_pd(Y, 1)) + _pd(Y, 1).compose(_pm(j))
              - (_pd(Y, 1) - _pm(i)).compose(_pd(Y, 1))
                .compose(_pd(Y, 1) + _pm(i)))
    add("Jt2", "matrix", "y",
        MatrixOp(((_pd(Y, 1, 2),
                   _pl(Y, {2: -one, 1: -i, 0: -i1})),
                  (_pl(Y, {2: one, 1: -i}), jt2_22))),
        "transformed local Hamiltonian operator in composed normal "
        "form")

    add("Jop", "matrix", "y",
        MatrixOp(((_pl(Y, {1: F(1, 2) * one, 0: F(1, 4) * i})
                   + _pt(F(1, 4) * i1, one),
                   _pl(Y, {1: F(1, 2) * one, 0: F(-1, 4) * i})
                   + _pt(F(-1, 4) * i1, one)),
                  (_pl(Y, {2: F(1, 8) * one, 1: F(-1, 8) * i,
                           0: F(1, 2) * j}) + _pt(F(1, 4) * j1, one),
                   _pl(Y, {2: F(3, 8) * one, 1: F(-3, 8) * i,
                           0: F(-1, 2) * j}) + _pt(F(-1, 4) * j1, one)))),
        "skew matrix operator annihilating the flux pair")

    wop = (_pd(Y, 3, F(-1, 2)) + _pd(Y, 2).scaled(F(1, 2) * i)
           + _pm(j).compose(_pd(Y, 1)) + _pd(Y, 1).compose(_pm(j)))
    winv = wop.compose(_pt(one, one))
    add("Grecipe", "matrix", "y",
        MatrixOp((((_pd(Y, 1, 2) + didinv).scaled(F(1, 4)),
                   (_pd(Y, 1, 2) - didinv).scaled(F(1, 4))),
                  ((_pd(Y, 2) - _pm(i).compose(_pd(Y, 1))
                    + winv).scaled(F(1, 4)),
                   (_pd(Y, 2) - _pm(i).compose(_pd(Y, 1))
                    - winv).scaled(F(1, 4))))),
        "quarter-weighted recipe matrix producing the negative-flow "
        "right-hand sides from the constraint pair")

    add("S1op", "op", "y", PseudoOp.from_local(_s1_local(Y)),
        "third-order operator on the upper off-diagonal unknown in the "
        "balance relations")
    add("S2op", "op", "y", PseudoOp.from_local(_s2_local(Y)),
        "third-order operator on the lower off-diagonal unknown in the "
        "balance relations")

    add("Kmat", "matrix", "y",
        MatrixOp(((_pm(-2 * one), _pm(-2 * one)),
                  (_pl(Y, {1: one, 0: 2 * i}),
                   _pl(Y, {1: -3 * one, 0: 2 * i})))),
        "first-order matrix giving the transported flow from the flux "
        "pair")

    add("Thetamat", "matrix", "y",
        MatrixOp(((PseudoOp.zero(Y), _pl(Y, th1).scaled(-1)),
                  (_pl(Y, th1c).scaled(-1), PseudoOp.zero(Y)))),
        "off-diagonal block matrix mapping the flux pair to the "
        "constraint right-hand sides")

    add("P1", "matrix", "y",
        MatrixOp(((PseudoOp.zero(Y), _pd(Y, 1, 4)),
                  (_pd(Y, 1, 4), _pl(Y, {3: 3 * one, 1: 2 * m, 0: m1})))),
        "first local Hamiltonian operator of the fourth-order "
        "hierarchy")

    p2_12 = (_pd(Y, 5, F(3, 2))
             + _pd(Y, 2, F(3, 2)).compose(_pm(m)).compose(_pd(Y, 1))
             + _pm(4 * n).compose(_pd(Y, 1)) + _pm(3 * co("n", 1)))
    p2_21 = (_pd(Y, 5, F(3, 2))
             + _pd(Y, 1, F(3, 2)).compose(_pm(m)).compose(_pd(Y, 2))
             + _pm(4 * n).compose(_pd(Y, 1)) + _pm(co("n", 1)))
    inner = (_pd(Y, 3).compose(_pm(m)) + _pm(m).compose(_pd(Y, 3))
             + _pm(m).compose(_pd(Y, 1)).compose(_pm(m))
             + _pm(n).compose(_pd(Y, 1)) + _pd(Y, 1).compose(_pm(n)))
    p2_22 = ((_pd(Y, 7) + _pd(Y, 1).compose(inner).compose(_pd(Y, 1)))
             .scaled(F(1, 2))
             + _pd(Y, 3).compose(_pm(n)) + _pm(n).compose(_pd(Y, 3))
             + _pd(Y, 1).compose(_pm(m * n)) + _pm(m * n).compose(_pd(Y, 1)))
    add("P2", "matrix", "y",
        MatrixOp(((_pl(Y, {3: 5 * one, 1: 2 * m, 0: m1}), p2_12),
                  (p2_21, p2_22))),
        "second local Hamiltonian operator of the fourth-order "
        "hierarchy")

    add("OmegaPrime", "matrix", "y",
        MatrixOp(((_pl(Y, {1: -one, 0: -2 * i}), _pm(-2 * one)),
                  (_pl(Y, {1: -j, 0: -j1}),
                   _pl(Y, {2: -one, 1: -i, 0: 2 * j - i1})))),
        "linearization matrix of the quadratic substitution")


def _k_entries(add):
    K = RING_K
    z = K.zero()
    one = K.one()

    def co(name, k=0):
        return K.coord(name, k)

    d = total_derivative
    lam = K.param("lam")
    ilam = K.param("lam", -1)
    i, i1 = co("i"), co("i", 1)
    j = co("j")
    f, g = co("f"), co("g")
    it, jt = co("it"), co("jt")
    x11, x12, x21, x22 = co("X11"), co("X12"), co("X21"), co("X22")
    y11, y12, y21, y22 = co("Y11"), co("Y12"), co("Y21"), co("Y22")

    add("lax.formal.space", "exprmatrix", "k",
        ((z, z, one, z),
         (z, z, z, one),
         (j, lam, i, z),
         (lam, j - i1, z, -i)),
        "formal spatial problem whose time side carries unknown blocks")

    agrid = ((j, lam), (lam, j - i1))
    bgrid = ((i, z), (z, -i))
    xgrid = ((x11, x12), (x21, x22))
    ygrid = ((y11, y12), (y21, y22))

    k1grid = emat_sub(emat_sub(ygrid, emat_d(xgrid)), emat_mul(xgrid, bgrid))
    k3grid = emat_add(
        emat_sub(emat_sub(emat_d(ygrid), emat_d(emat_d(xgrid))),
                 emat_d(emat_mul(xgrid, bgrid))),
        emat_mul(xgrid, agrid))

    atau = ((jt, z), (z, jt - d(it)))
    btau = ((it, z), (z, -it))
    atau_res = emat_sub(
        emat_add(emat_sub(emat_sub(emat_d(k3grid), emat_mul(agrid, k1grid)),
                          emat_mul(bgrid, k3grid)),
                 emat_mul(ygrid, agrid)),
        atau)
    btau_res = emat_sub(
        emat_add(emat_add(emat_sub(emat_sub(emat_d(ygrid),
                                            emat_mul(agrid, xgrid)),
                                   emat_mul(bgrid, ygrid)),
                          k3grid),
                 emat_mul(ygrid, bgrid)),
        btau)
    add("kzc.atau", "exprmatrix", "k", atau_res,
        "zero-curvature residual grid for the coefficient block")
    add("kzc.btau", "exprmatrix", "k", btau_res,
        "zero-curvature residual grid for the diagonal block")

    e1 = 2 * y12 - d(x12)
    e2 = 2 * y21 - d(x21)
    rel1 = i * e1 - d(e1) + lam * (x22 - x11)
    rel2 = i * e2 + d(e2) + lam * (x22 - x11)
    rel3 = y11 + y22 - F(1, 2) * (d(x11) + i * x11 + d(x22) - i * x22)
    s1e = _s1_local(K).apply(x12)
    s2e = _s2_local(K).apply(x21)
    rel4 = s1e - s2e - 2 * lam * d(x11 + x22)
    rel5 = s1e + s2e + lam * (2 * y22 - 2 * y11 + d(x11) - d(x22)
                              + 2 * i * (x11 + x22))
    rel6 = (_rel6_local(K).apply(x11 - x22)
            + lam * (d(x12) - d(x21) + 2 * y21 - 2 * y12))
    add("krel.display", "exprs", "k",
        (("rel1", rel1), ("rel2", rel2), ("rel3", rel3),
         ("rel4", rel4), ("rel5", rel5), ("rel6", rel6)),
        "six scalar consequences of the zero-curvature elimination, as "
        "zero claims")

    # Partial solved orientation: five of the six consequences admit a
    # terminating rewrite; the sixth stays a plain zero claim.  The add
    # order matters for the acyclicity validation.
    rules = RelationSet(K)
    rules = rules.with_rule("Y11", 0, solve_for(rel3, "Y11", 0))
    combo_p = rules.reduce((rel4 + rel5) * F(1, 2))
    rules = rules.with_rule("X12", 3, solve_for(combo_p, "X12", 3))
    combo_m = rules.reduce((rel4 - rel5) * F(1, 2))
    rules = rules.with_rule("X21", 3, solve_for(combo_m, "X21", 3))
    rules = rules.with_rule("Y12", 1, solve_for(rules.reduce(rel1),
                                                "Y12", 1))
    rules = rules.with_rule("Y21", 1, solve_for(rules.reduce(rel2),
                                                "Y21", 1))
    add("krel.rules", "relations", "k", rules,
        "partial solved orientation of the zero-curvature consequences")

    add("fir.local", "exprs", "k",
        (("fir1.local", it - lam * (x12 - x21)),
         ("fir2.local", jt - lam * (F(1, 2) * (3 * d(x12) + d(x21))
                                    + i * (x21 - x12)))),
        "leading parts of the transported flow; the remaining pieces "
        "are the recipe rows applied to the balance expressions at "
        "inverse lambda")

    add("subk", "exprs", "k",
        (("X12", -2 * g * ilam), ("X21", 2 * f * ilam)),
        "inverse-lambda substitution closing the off-diagonal unknowns "
        "through the flux pair")


# -- registry ------------------------------------------------------------

def _build():
    registry = {}
    order = []

    def add(ident, kind, ring_key, value, citation):
        if ident in registry:
            raise ValueError("duplicate catalog identifier %r" % (ident,))
        registry[ident] = Entry(ident, kind, ring_key, citation, value)
        order.append(ident)

    _x_entries(add)
    _y_entries(add)
    _k_entries(add)
    return registry, tuple(order)


_REGISTRY, _ORDER = _build()


# -- mutation support ----------------------------------------------------

def part_windows(ent):
    """Slot ranges of the entry grouped by structural part.

    Returns a tuple of (label, start, stop) with stop exclusive.  The
    walk of the entry's kind numbers the terms of its leaves in visiting
    order, the numbering mutated() perturbs, and consecutive leaves with
    one label form one window."""
    windows = []

    def record(label, e):
        if not windows or windows[-1][0] != label:
            start = windows[-1][2] if windows else 0
            windows.append([label, start, start])
        windows[-1][2] += len(e.terms)
        return e

    KIND_TABLE[ent.kind](ent.value, record)
    return tuple(tuple(w) for w in windows)


def mutated(ent, slot):
    """A copy of the entry with one coefficient slot perturbed.

    One walk of the entry's kind numbers the terms of its leaves in
    visiting order and raises the coefficient at slot by 1, so a
    coefficient of -1 becomes 0 and the mutant deletes that term.  A
    slot outside that numbering, negative ones included, raises
    IndexError."""
    seen = 0

    def perturb(_label, e):
        nonlocal seen
        index = slot - seen
        seen += len(e.terms)
        return perturb_term(e, index) if 0 <= index < len(e.terms) else e

    value = KIND_TABLE[ent.kind](ent.value, perturb)
    if not 0 <= slot < seen:
        raise IndexError("mutation slot %d out of range for %s"
                         % (slot, ent.ident))
    return Entry(ent.ident, ent.kind, ent.ring_key, ent.citation, value)


class CatalogView:
    """Read-only catalog access with optional entry overrides.

    Mutation runs hand the checks a view carrying one perturbed entry;
    everything else resolves to the shared registry."""

    def __init__(self, overrides=None):
        self._overrides = {}
        for ident, ent in (overrides or {}).items():
            if ident not in _REGISTRY:
                raise KeyError("no catalog entry %r" % (ident,))
            self._overrides[ident] = ent

    def entry(self, ident):
        if ident in self._overrides:
            return self._overrides[ident]
        try:
            return _REGISTRY[ident]
        except KeyError:
            raise KeyError("no catalog entry %r" % (ident,)) from None

    def get(self, ident):
        return self.entry(ident).value

    def citation(self, ident):
        return self.entry(ident).citation

    def idents(self):
        return _ORDER

    def with_mutation(self, ident, slot):
        merged = dict(self._overrides)
        merged[ident] = mutated(self.entry(ident), slot)
        return CatalogView(merged)


CATALOG = CatalogView()
