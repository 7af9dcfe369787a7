"""Exact differential algebra on a jet space.

Values are Laurent polynomials over the rationals in jet coordinates,
where a jet coordinate is a dependent-variable name paired with a
derivative order with respect to the single independent variable of the
ring.  Scalar parameters (a spectral parameter, a bookkeeping epsilon)
enter as extra Laurent generators that every derivation treats as
constant.

On top of the polynomial arithmetic the module provides the derivations
and integrals of the variational calculus:

* ``total_derivative``: the formal derivative along the independent
  variable, shifting every jet order up by one.
* ``evolutionary_derivative``: the time derivative induced by an
  evolution system, replacing each time derivative of a dependent by a
  total derivative of the system right-hand side.
* ``euler_derivative``: the variational derivative; it annihilates
  total derivatives.
* ``frechet_coeffs``: coefficients of the linearization operator.
* ``antiderivative``: exact integration by parts through scaling
  homotopies, with a verified round trip.
* ``RelationSet``: terminating rewriting by solved differential
  relations.
* ``substitute``: ring homomorphisms on dependents, with an optional
  jacobian factor rescaling the derivative chain (change of independent
  variable through a conservation law).
* ``random_eval``: an exact rational point-evaluation oracle.

All values are immutable after construction.  Equality of expressions
is structural equality of canonical normal forms; ``random_eval`` is a
secondary confirmation oracle, never the decision procedure.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "RingContext", "JetExpr", "Rule", "RelationSet", "SystemDef", "Assignment",
    "ContextMismatch", "NotIntegrable", "NotReducible", "EvalDivisionByZero",
    "MissingEvolutionRule",
    "total_derivative", "partial_derivative", "evolutionary_derivative",
    "euler_derivative", "frechet_coeffs", "is_total_derivative", "antiderivative",
    "substitute", "promote", "solve_for", "split_param",
    "coords_of", "params_of", "max_order", "random_eval", "random_assignment",
    "random_expr", "perturb_term", "to_text", "parse",
]


class ContextMismatch(ValueError):
    """Operands carry different ring contexts."""


class NotIntegrable(ValueError):
    """The expression has no antiderivative in the jet algebra."""


class NotReducible(ValueError):
    """No normal form exists under the requested rewriting."""


class EvalDivisionByZero(ZeroDivisionError):
    """A numeric assignment hit a zero base at a negative exponent."""


class MissingEvolutionRule(KeyError):
    """A dependent of the expression has no evolution rule."""


_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


class RingContext:
    """One independent variable, an ordered dependent roster, parameters.

    The roster order is semantic: it is the elimination priority used by
    relation sets and part of the canonical monomial order.  Names must
    be underscore-free so that the serialized coordinate form
    ``name_order`` stays unambiguous.
    """

    __slots__ = ("independent", "dependents", "parameters", "_dep_index",
                 "_param_index")

    def __init__(self, independent, dependents, parameters=()):
        dependents = tuple(dependents)
        parameters = tuple(parameters)
        names = (independent,) + dependents + parameters
        if len(set(names)) != len(names):
            raise ValueError("ring names must be pairwise distinct")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError("bad ring name %r" % (name,))
        self.independent = independent
        self.dependents = dependents
        self.parameters = parameters
        self._dep_index = {d: i for i, d in enumerate(dependents)}
        self._param_index = {p: i for i, p in enumerate(parameters)}

    def __eq__(self, other):
        return (isinstance(other, RingContext)
                and self.independent == other.independent
                and self.dependents == other.dependents
                and self.parameters == other.parameters)

    def __hash__(self):
        return hash((self.independent, self.dependents, self.parameters))

    def __repr__(self):
        return "RingContext(%r, %r, %r)" % (
            self.independent, self.dependents, self.parameters)

    def index(self, dep):
        try:
            return self._dep_index[dep]
        except KeyError:
            raise ContextMismatch("no dependent %r in ring over %s"
                                  % (dep, self.independent)) from None

    def coord(self, name, order=0):
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        key = ((((self.index(name), order), 1),), ())
        return JetExpr(self, {key: Fraction(1)})

    def param(self, name, power=1):
        if name not in self._param_index:
            raise ContextMismatch("no parameter %r" % (name,))
        if power == 0:
            return self.one()
        key = ((), ((self._param_index[name], power),))
        return JetExpr(self, {key: Fraction(1)})

    def const(self, value):
        value = _as_fraction(value)
        if value == 0:
            return JetExpr(self, {})
        return JetExpr(self, {((), ()): value})

    def zero(self):
        return JetExpr(self, {})

    def one(self):
        return self.const(1)

    def extend(self, dependents=(), parameters=()):
        """A new ring with extra dependents or parameters appended.

        Appending keeps existing roster indices stable, so extension
        gives freshly added names the lowest elimination priority."""
        return RingContext(self.independent,
                           self.dependents + tuple(dependents),
                           self.parameters + tuple(parameters))


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an exact rational, got %r" % (value,))


def _acc(acc, key, val):
    cur = acc.get(key)
    if cur is None:
        acc[key] = val
    else:
        acc[key] = cur + val


def _canon(acc):
    return {k: v for k, v in acc.items() if v != 0}


def _merge_powers(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for gen, ex in b:
        n = d.get(gen, 0) + ex
        if n:
            d[gen] = n
        else:
            del d[gen]
    return tuple(sorted(d.items()))


def _key_mul(k1, k2):
    return (_merge_powers(k1[0], k2[0]), _merge_powers(k1[1], k2[1]))


class JetExpr:
    """A canonical Laurent polynomial in jet coordinates and parameters.

    ``terms`` maps a monomial key to a nonzero rational coefficient.  A
    key is a pair (variable part, parameter part); the variable part is
    a sorted tuple of ((dependent index, order), exponent) with nonzero
    integer exponents, the parameter part a sorted tuple of
    (parameter index, exponent).  Instances are never mutated.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    @property
    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and ((), ()) in self.terms)

    def as_fraction(self):
        if not self.terms:
            return Fraction(0)
        if self.is_rational:
            return self.terms[((), ())]
        raise ValueError("not a pure rational: %s" % (self,))

    def key(self):
        """A hashable canonical form, usable as a dictionary key."""
        return (self.ring.independent, tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, JetExpr):
            if other.ring != self.ring:
                raise ContextMismatch("mixed ring contexts: %r vs %r"
                                      % (self.ring, other.ring))
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self.terms)
        for key, val in other.terms.items():
            _acc(acc, key, val)
        return JetExpr(self.ring, _canon(acc))

    __radd__ = __add__

    def __neg__(self):
        return JetExpr(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _acc(acc, _key_mul(k1, k2), c1 * c2)
        return JetExpr(self.ring, _canon(acc))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n == 0:
            return self.ring.one()
        if n < 0:
            if len(self.terms) != 1:
                raise NotReducible("only monomials can be inverted: %s" % (self,))
            ((vk, pk), c), = self.terms.items()
            inv_key = (tuple((g, -e) for g, e in vk),
                       tuple((g, -e) for g, e in pk))
            inv = JetExpr(self.ring, {inv_key: Fraction(1) / c})
            return inv if n == -1 else inv ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, JetExpr):
            return self * other ** -1
        return self * (Fraction(1) / _as_fraction(other))

    def __rtruediv__(self, other):
        return self._coerce(other) * self ** -1

    def __eq__(self, other):
        if isinstance(other, JetExpr):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self.ring.const(other).terms
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return to_text(self)


# -- structural queries ------------------------------------------------

def coords_of(e):
    """Sorted list of (dependent name, order) occurring in e."""
    seen = set()
    for (vk, _pk) in e.terms:
        for (didx, order), _ex in vk:
            seen.add((didx, order))
    return [(e.ring.dependents[d], k) for d, k in sorted(seen)]


def params_of(e):
    seen = set()
    for (_vk, pk) in e.terms:
        for pidx, _ex in pk:
            seen.add(pidx)
    return [e.ring.parameters[p] for p in sorted(seen)]


def max_order(e, dep=None):
    """Highest derivative order present, or -1 when absent.

    With ``dep`` the search is restricted to that dependent."""
    didx = e.ring.index(dep) if dep is not None else None
    best = -1
    for (vk, _pk) in e.terms:
        for (d, k), _ex in vk:
            if didx is None or d == didx:
                if k > best:
                    best = k
    return best


def split_param(e, name):
    """Decompose e = sum_k name^k * coefficient; returns {k: coefficient}.

    The coefficients no longer mention the parameter."""
    pidx = e.ring._param_index.get(name)
    if pidx is None:
        raise ContextMismatch("no parameter %r" % (name,))
    parts = {}
    for (vk, pk), c in e.terms.items():
        ex = 0
        rest = []
        for g, p in pk:
            if g == pidx:
                ex = p
            else:
                rest.append((g, p))
        _acc(parts.setdefault(ex, {}), (vk, tuple(rest)), c)
    return {ex: JetExpr(e.ring, _canon(t)) for ex, t in sorted(parts.items())}


# -- derivations -------------------------------------------------------

def total_derivative(e):
    """The formal derivative along the ring's independent variable."""
    acc = {}
    for (vk, pk), c in e.terms.items():
        for (d, k), ex in vk:
            rest = dict(vk)
            if ex == 1:
                del rest[(d, k)]
            else:
                rest[(d, k)] = ex - 1
            up = rest.get((d, k + 1), 0) + 1
            if up:
                rest[(d, k + 1)] = up
            else:
                del rest[(d, k + 1)]
            _acc(acc, (tuple(sorted(rest.items())), pk), c * ex)
    return JetExpr(e.ring, _canon(acc))


def partial_derivative(e, dep, order):
    """Partial derivative with respect to one jet coordinate."""
    coord = (e.ring.index(dep), order)
    acc = {}
    for (vk, pk), c in e.terms.items():
        m = dict(vk)
        ex = m.get(coord)
        if not ex:
            continue
        if ex == 1:
            del m[coord]
        else:
            m[coord] = ex - 1
        _acc(acc, (tuple(sorted(m.items())), pk), c * ex)
    return JetExpr(e.ring, _canon(acc))


def evolutionary_derivative(e, sys):
    """Time derivative of e induced by the evolution system.

    Every dependent occurring in e must carry an evolution rule; the
    derivative of the jet (d, k) is the k-th total derivative of the
    rule's right-hand side, so the result commutes with
    total_derivative by construction."""
    if e.ring != sys.ring:
        raise ContextMismatch("expression and system rings differ")
    out = e.ring.zero()
    for name, k in coords_of(e):
        pd = partial_derivative(e, name, k)
        if pd.is_zero:
            continue
        out = out + pd * sys.rhs_jet(name, k)
    return out


def euler_derivative(e, dep):
    """Variational derivative: sum over k of (-D)^k of de/du_k."""
    out = e.ring.zero()
    top = max_order(e, dep)
    for k in range(top + 1):
        pd = partial_derivative(e, dep, k)
        if pd.is_zero:
            continue
        for _ in range(k):
            pd = total_derivative(pd)
        out = out + pd if k % 2 == 0 else out - pd
    return out


def frechet_coeffs(e, dep):
    """Coefficients {k: de/du_k} of the linearization row operator."""
    out = {}
    for k in range(max_order(e, dep) + 1):
        pd = partial_derivative(e, dep, k)
        if not pd.is_zero:
            out[k] = pd
    return out


def _euler_vanishes(e):
    seen = set()
    for (vk, _pk) in e.terms:
        for (d, _k), _ex in vk:
            seen.add(d)
    for d in sorted(seen):
        if not euler_derivative(e, e.ring.dependents[d]).is_zero:
            return False
    return True


def _scaling_invariant_part(e):
    """The component whose degree vanishes for every dependent.

    Jet-free terms belong here too.  The total derivative preserves
    each per-dependent degree, so this component of an exact expression
    is exact on its own; it is also the only place where the vanishing
    of the variational derivative fails to be sufficient (logarithmic
    obstructions such as the derivative-over-value quotient)."""
    ndeps = len(e.ring.dependents)
    zero = (0,) * ndeps
    acc = {k: c for k, c in e.terms.items() if _multidegree(k[0], ndeps) == zero}
    return JetExpr(e.ring, acc)


def is_total_derivative(e):
    """Whether e is an exact total derivative inside the jet algebra.

    Decided constructively: the variational derivative must vanish for
    every dependent in the support, and the scaling-invariant component
    must integrate by parts (on the remaining components the homotopy
    formula succeeds whenever the variational derivative vanishes, so
    no further work is needed).  A bare constant, even a parameter
    dependent one, is rejected here."""
    if e.is_zero:
        return True
    if not _euler_vanishes(e):
        return False
    inv = _scaling_invariant_part(e)
    if inv.is_zero:
        return True
    try:
        _integrate_peel(inv)
    except NotIntegrable:
        return False
    return True


def _interior_product(e, dep):
    """Homotopy interior product along one dependent.

    For e homogeneous of degree m in ``dep`` with vanishing variational
    derivative for ``dep``, the total derivative of the result equals
    m*e."""
    ring = e.ring
    out = ring.zero()
    for k in range(1, max_order(e, dep) + 1):
        pd = partial_derivative(e, dep, k)
        if pd.is_zero:
            continue
        cur = pd
        for j in range(k):
            out = out + ring.coord(dep, k - 1 - j) * cur
            cur = -total_derivative(cur)
    return out


def _multidegree(vk, ndeps):
    deg = [0] * ndeps
    for (d, _k), ex in vk:
        deg[d] += ex
    return tuple(deg)


def _integrate_peel(e):
    """Fallback integration for components of vanishing multidegree.

    Peels the single highest jet coordinate by one integration by parts
    per round.  Any exact expression is linear in its top-order
    coordinates, which keeps each round well defined; a bounded round
    count guards against drift on malformed input."""
    ring = e.ring
    out = ring.zero()
    for _round in range(200):
        if e.is_zero:
            return out
        top = max_order(e)
        if top <= 0:
            raise NotIntegrable("no derivative left to peel in %s" % (e,))
        cands = sorted({(d, k) for (vk, _pk) in e.terms
                        for (d, k), _ex in vk if k == top})
        d, k = cands[-1]
        name = ring.dependents[d]
        lin = partial_derivative(e, name, k)
        if max_order(lin) == top:
            raise NotIntegrable("top-order coordinates enter nonlinearly")
        below = (d, k - 1)
        acc = {}
        for (vk, pk), c in lin.terms.items():
            m = dict(vk)
            p = m.get(below, 0) + 1
            if p == 0:
                raise NotIntegrable("logarithmic obstruction at %s_%d"
                                    % (name, k - 1))
            m[below] = p
            _acc(acc, (tuple(sorted(m.items())), pk), c / p)
        piece = JetExpr(ring, _canon(acc))
        out = out + piece
        e = e - total_derivative(piece)
    raise NotIntegrable("integration by parts failed to settle")


def antiderivative(e):
    """An exact F with total_derivative(F) = e and no constant term.

    Splits e by its per-dependent multidegree vector (the total
    derivative preserves each of these degrees), integrates each
    component by a single-dependent scaling homotopy, and falls back to
    direct integration by parts on scaling-invariant components.  The
    round trip is verified before returning; failures raise
    NotIntegrable."""
    ring = e.ring
    if e.is_zero:
        return ring.zero()
    if not _euler_vanishes(e):
        raise NotIntegrable("variational derivative does not vanish")
    ndeps = len(ring.dependents)
    components = {}
    for key, c in e.terms.items():
        deg = _multidegree(key[0], ndeps)
        _acc(components.setdefault(deg, {}), key, c)
    out = ring.zero()
    for deg in sorted(components):
        comp = JetExpr(ring, _canon(components[deg]))
        if comp.is_zero:
            continue
        pick = next((i for i, m in enumerate(deg) if m), None)
        if pick is None:
            out = out + _integrate_peel(comp)
        else:
            name = ring.dependents[pick]
            out = out + _interior_product(comp, name) / deg[pick]
    if total_derivative(out) != e:
        raise NotIntegrable("homotopy round trip failed")
    return out


# -- solved relations and reduction ------------------------------------

class Rule:
    """One solved differential relation: the jet (dep, order) equals rhs.

    The rhs may mention the same dependent only at strictly lower
    orders.  Higher derivatives of the left side rewrite through cached
    total derivatives of the rhs."""

    __slots__ = ("dep", "order", "rhs", "_jets")

    def __init__(self, dep, order, rhs):
        if not isinstance(rhs, JetExpr):
            raise TypeError("rule right-hand side must be a JetExpr")
        rhs.ring.index(dep)
        if max_order(rhs, dep) >= order:
            raise NotReducible(
                "rule for %s_%d mentions the same dependent at order >= %d"
                % (dep, order, order))
        self.dep = dep
        self.order = order
        self.rhs = rhs
        self._jets = [rhs]

    def jet(self, j):
        while len(self._jets) <= j:
            self._jets.append(total_derivative(self._jets[-1]))
        return self._jets[j]

    def __repr__(self):
        return "Rule(%s_%d -> %s)" % (self.dep, self.order, self.rhs)


class RelationSet:
    """A terminating rewrite system with at most one rule per dependent.

    Termination is enforced structurally: each rule's rhs mentions the
    ruled dependent only below the rule order, and the cross-dependent
    mention graph stays acyclic."""

    __slots__ = ("ring", "rules")

    def __init__(self, ring, rules=None):
        self.ring = ring
        self.rules = dict(rules) if rules else {}

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(sorted(self.rules.values(),
                           key=lambda r: self.ring.index(r.dep)))

    def rule_for(self, dep):
        return self.rules.get(dep)

    def _ruled_mentions(self, rule):
        out = set()
        for name, _k in coords_of(rule.rhs):
            if name != rule.dep and name in self.rules:
                out.add(name)
        return out

    def with_rule(self, dep, order, rhs):
        if rhs.ring != self.ring:
            raise ContextMismatch("rule rhs from a different ring")
        if dep in self.rules:
            raise NotReducible("dependent %s already has a rule" % (dep,))
        rule = Rule(dep, order, rhs)
        merged = dict(self.rules)
        merged[dep] = rule
        probe = RelationSet(self.ring, merged)
        stack = list(probe._ruled_mentions(rule))
        seen = set()
        while stack:
            cur = stack.pop()
            if cur == dep:
                raise NotReducible("cyclic relation through %s" % (dep,))
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(probe._ruled_mentions(probe.rules[cur]))
        return probe

    def merged(self, other):
        if other.ring != self.ring:
            raise ContextMismatch("merging relation sets over different rings")
        out = self
        for rule in other:
            existing = out.rule_for(rule.dep)
            if existing is not None:
                if existing.order != rule.order or existing.rhs != rule.rhs:
                    raise NotReducible("conflicting rules for %s" % (rule.dep,))
                continue
            out = out.with_rule(rule.dep, rule.order, rule.rhs)
        return out

    def reduce(self, e, order_cap=None):
        """The normal form of e: no ruled jet (nor any of its higher
        derivatives) survives.  Substitution of equal values makes the
        result independent of rule application order."""
        if e.ring != self.ring:
            raise ContextMismatch("expression from a different ring")
        if not self.rules:
            return e
        for _round in range(10000):
            acc = {}
            extra = []
            changed = False
            for (vk, pk), c in e.terms.items():
                clean = []
                repl = []
                for (d, k), ex in vk:
                    rule = self.rules.get(self.ring.dependents[d])
                    if rule is not None and k >= rule.order:
                        repl.append((rule.jet(k - rule.order), ex))
                    else:
                        clean.append(((d, k), ex))
                if not repl:
                    _acc(acc, (vk, pk), c)
                    continue
                changed = True
                prod = JetExpr(self.ring, {(tuple(clean), pk): c})
                for rep, ex in repl:
                    prod = prod * rep ** ex
                extra.append(prod)
            if not changed:
                return e
            for piece in extra:
                for key, val in piece.terms.items():
                    _acc(acc, key, val)
            e = JetExpr(self.ring, _canon(acc))
            if order_cap is not None and max_order(e) > order_cap:
                raise NotReducible("derivative order cap %d exceeded"
                                   % (order_cap,))
        raise NotReducible("reduction did not terminate")


def solve_for(e, dep, order):
    """Solve e = 0 for the jet (dep, order).

    The coordinate must occur linearly with an invertible (monomial)
    coefficient; the solved right-hand side is returned."""
    coeff = partial_derivative(e, dep, order)
    if coeff.is_zero:
        raise NotReducible("%s_%d does not occur" % (dep, order))
    if max_order(coeff, dep) >= order:
        raise NotReducible("%s_%d occurs nonlinearly" % (dep, order))
    rest = e - coeff * e.ring.coord(dep, order)
    if not partial_derivative(rest, dep, order).is_zero:
        raise NotReducible("%s_%d occurs nonlinearly" % (dep, order))
    return -rest * coeff ** -1


# -- evolution systems --------------------------------------------------

class SystemDef:
    """An evolution system over one ring.

    ``evolution`` maps dependent names to right-hand sides written in
    space jets; ``constraints`` is a RelationSet tying the remaining
    dependents together; ``citation`` documents where the data comes
    from."""

    __slots__ = ("ring", "evolution", "constraints", "citation", "_rhs_jets")

    def __init__(self, ring, evolution, constraints=None, citation=""):
        self.ring = ring
        evo = {}
        for dep, rhs in evolution.items():
            ring.index(dep)
            if not isinstance(rhs, JetExpr) or rhs.ring != ring:
                raise ContextMismatch("evolution rhs for %s off-ring" % (dep,))
            evo[dep] = rhs
        self.evolution = evo
        if constraints is None:
            constraints = RelationSet(ring)
        if constraints.ring != ring:
            raise ContextMismatch("constraints over a different ring")
        self.constraints = constraints
        self.citation = citation
        self._rhs_jets = {}

    def rhs_jet(self, dep, k):
        if dep not in self.evolution:
            raise MissingEvolutionRule(dep)
        jets = self._rhs_jets.setdefault(dep, [self.evolution[dep]])
        while len(jets) <= k:
            jets.append(total_derivative(jets[-1]))
        return jets[k]


# -- substitution -------------------------------------------------------

def substitute(e, rules, target_ring=None, jacobian=None):
    """Homomorphic replacement of dependents.

    ``rules`` maps dependent names of e's ring to replacement
    expressions over the target ring.  Unmapped dependents keep their
    name, which the target ring must then carry.  The image of one
    derivative step is jacobian * D(image); passing the jacobian moves
    jets between independent variables related by d/dx = jacobian * d/dy.
    """
    src = e.ring
    if target_ring is None:
        target_ring = next(iter(rules.values())).ring if rules else src
    tgt = target_ring
    for name, rhs in rules.items():
        src.index(name)
        if not isinstance(rhs, JetExpr) or rhs.ring != tgt:
            raise ContextMismatch("replacement for %s off the target ring"
                                  % (name,))
    if jacobian is not None and jacobian.ring != tgt:
        raise ContextMismatch("jacobian off the target ring")

    images = {}

    def image(didx, k):
        got = images.get((didx, k))
        if got is not None:
            return got
        if k == 0:
            name = src.dependents[didx]
            img = rules.get(name)
            if img is None:
                img = tgt.coord(name, 0)
        else:
            img = total_derivative(image(didx, k - 1))
            if jacobian is not None:
                img = jacobian * img
        images[(didx, k)] = img
        return img

    acc = {}
    for (vk, pk), c in e.terms.items():
        npk = []
        for pidx, ex in pk:
            pname = src.parameters[pidx]
            if pname not in tgt._param_index:
                raise ContextMismatch("no parameter %r in target" % (pname,))
            npk.append((tgt._param_index[pname], ex))
        term = JetExpr(tgt, {((), tuple(sorted(npk))): c})
        for (didx, k), ex in vk:
            term = term * image(didx, k) ** ex
        for key, val in term.terms.items():
            _acc(acc, key, val)
    return JetExpr(tgt, _canon(acc))


def promote(e, ring):
    """Re-tag e into a wider ring over the same independent variable."""
    if ring.independent != e.ring.independent:
        raise ContextMismatch("promotion cannot change the independent "
                              "variable; use substitute with a jacobian")
    return substitute(e, {}, target_ring=ring)


# -- numeric oracle ------------------------------------------------------

class Assignment:
    """Exact rational values for jet coordinates and parameters."""

    __slots__ = ("values", "params")

    def __init__(self, values, params=None):
        self.values = {k: _as_fraction(v) for k, v in values.items()}
        self.params = {k: _as_fraction(v) for k, v in (params or {}).items()}

    def value(self, dep, order):
        try:
            return self.values[(dep, order)]
        except KeyError:
            raise KeyError("assignment missing %s_%d" % (dep, order)) from None

    def param(self, name):
        try:
            return self.params[name]
        except KeyError:
            raise KeyError("assignment missing parameter %s" % (name,)) from None


def random_eval(e, assignment):
    """Exact rational value of e at the assignment."""
    ring = e.ring
    total = Fraction(0)
    for (vk, pk), c in e.terms.items():
        val = c
        for (d, k), ex in vk:
            base = assignment.value(ring.dependents[d], k)
            if base == 0 and ex < 0:
                raise EvalDivisionByZero("%s_%d = 0 raised to %d"
                                         % (ring.dependents[d], k, ex))
            val *= base ** ex
        for pidx, ex in pk:
            base = assignment.param(ring.parameters[pidx])
            if base == 0 and ex < 0:
                raise EvalDivisionByZero("parameter %s = 0 raised to %d"
                                         % (ring.parameters[pidx], ex))
            val *= base ** ex
        total += val
    return total


def random_assignment(rng, coords, params=()):
    """Nonzero rational test point: numerators in -9..9, denominators
    up to 7, drawn from the supplied random generator."""
    def draw():
        num = rng.choice([n for n in range(-9, 10) if n])
        den = rng.randint(1, 7)
        return Fraction(num, den)

    return Assignment({c: draw() for c in coords},
                      {p: draw() for p in params})


def random_expr(rng, ring, deps=None, params=(), max_jet_order=2,
                n_terms=3, max_factors=2, allow_negative=False):
    """A small random expression, deterministic given the generator."""
    deps = tuple(deps) if deps is not None else ring.dependents
    out = ring.zero()
    for _ in range(n_terms):
        coeff = Fraction(rng.choice([n for n in range(-5, 6) if n]),
                         rng.randint(1, 3))
        term = ring.const(coeff)
        for _ in range(rng.randint(1, max_factors)):
            name = rng.choice(deps)
            order = rng.randint(0, max_jet_order)
            ex = rng.choice([1, 1, 2])
            if allow_negative and rng.random() < 0.25:
                ex = -ex
            term = term * ring.coord(name, order) ** ex
        for p in params:
            if rng.random() < 0.5:
                term = term * ring.param(p, rng.choice([-1, 1]))
        out = out + term
    return out


def perturb_term(e, index, delta=1):
    """e with the coefficient of one canonical-order term shifted.

    Testing support for mutation sensitivity; index is taken modulo the
    term count."""
    items = sorted(e.terms.items())
    if not items:
        raise ValueError("cannot perturb the zero expression")
    key, c = items[index % len(items)]
    terms = dict(e.terms)
    terms[key] = c + delta
    return JetExpr(e.ring, _canon(terms))


# -- text form -----------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
_COORD_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)_([0-9]+)$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")


def _factor_text(ring, vk, pk):
    out = []
    for (d, k), ex in vk:
        coord = "%s_%d" % (ring.dependents[d], k)
        out.append(coord if ex == 1 else "(^ %s %d)" % (coord, ex))
    for pidx, ex in pk:
        out.append("(param %s %d)" % (ring.parameters[pidx], ex))
    return out


def _fold(op, parts):
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = "(%s %s %s)" % (op, part, out)
    return out


def to_text(e):
    """Fully parenthesized prefix form; the canonical term order makes
    it unique, and parse() inverts it bit-exactly."""
    if e.is_zero:
        return "0"
    terms = []
    for (vk, pk), c in sorted(e.terms.items()):
        factors = _factor_text(e.ring, vk, pk)
        if c != 1 or not factors:
            factors = [str(c)] + factors
        terms.append(_fold("*", factors))
    return _fold("+", terms)


def parse(text, ring):
    """Parse the prefix grammar back into an expression.

    Grammar: expr := rational | coord | (+ expr expr) | (* expr expr)
    | (^ coord int) | (param name int), with coord spelled name_order."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of input in %r" % (text,))
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(tok):
        got = take()
        if got != tok:
            raise ValueError("expected %r, got %r" % (tok, got))

    def coord_token(tok):
        m = _COORD_RE.match(tok)
        if not m:
            raise ValueError("bad coordinate token %r" % (tok,))
        return ring.coord(m.group(1), int(m.group(2)))

    def expr():
        tok = take()
        if tok == "(":
            op = take()
            if op == "+":
                a = expr()
                b = expr()
                expect(")")
                return a + b
            if op == "*":
                a = expr()
                b = expr()
                expect(")")
                return a * b
            if op == "^":
                base = coord_token(take())
                ex = take()
                if not _INT_RE.match(ex):
                    raise ValueError("bad exponent %r" % (ex,))
                expect(")")
                return base ** int(ex)
            if op == "param":
                name = take()
                ex = take()
                if not _INT_RE.match(ex):
                    raise ValueError("bad parameter power %r" % (ex,))
                expect(")")
                return ring.param(name, int(ex))
            raise ValueError("unknown operator %r" % (op,))
        if _RATIONAL_RE.match(tok):
            return ring.const(Fraction(tok))
        return coord_token(tok)

    out = expr()
    if pos != len(tokens):
        raise ValueError("trailing tokens in %r" % (text,))
    return out
