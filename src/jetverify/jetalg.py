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
* ``antiderivative``: exact integration by parts, peeling the top jet
  one round at a time, with a verified round trip.
* ``RelationSet``: terminating rewriting by solved differential
  relations.
* ``substitute``: ring homomorphisms on dependents, with an optional
  jacobian factor rescaling the derivative chain (change of independent
  variable through a conservation law).
* ``promote``: the identity substitution into a wider ring, done as a
  re-tag of indices that never multiplies; a ring extended by
  appending keeps every index, so the promoted value shares its
  numerators.
* ``random_eval``: an exact rational point-evaluation oracle.

All values are immutable after construction.  Equality of expressions
is structural equality of canonical normal forms; ``random_eval`` is a
secondary confirmation oracle, never the decision procedure.

Coefficients are exact rationals held as integer numerators over one
common denominator per expression, the rational content, as sympy's
``PolyElement`` does: ``nums`` maps each monomial key to a nonzero
``int`` and ``den`` is a positive ``int`` sharing no factor with all of
them.  The quarter-power coefficients of the calculus (1/64, 5/16)
then cost integer arithmetic plus one multi-argument ``math.gcd`` per
result, and an integral expression has ``den == 1`` and pays nothing
extra.  A numerator is not a coefficient: readers that need values go
through ``JetExpr.coeff_items``, which yields each coefficient in the
canonical form ``rational`` gives, an ``int`` when integral and a
``Fraction`` otherwise.  Every division of values goes through
``Fraction``, never ``int / int``, which would give a float.

Term order is part of the contract.  Each result keeps its keys in the
order of their first appearance: a sum walks its left operand's terms,
then the right one's; a product walks its left operand's terms
outermost, or the other operand's when one of them is a single term; a
derivation walks the terms and, within a term, its jets in key order.
Keys whose numerators cancel drop out.  Equality, ``JetExpr.key``,
``to_text`` and ``perturb_term`` sort, so they ignore the order, but
``opcalc.Echelon`` pivots each row on the first key of its reduced
vector, which is built from ``coeff_items`` in term order.  A shortcut
must therefore reproduce the order as well as the values, and the hot
paths do so by leaving alone what an operation preserves: a rational
constant factor keeps every key, a derivative splices its new key from
slices of the sorted old one, and power tuples merge linearly.

A monomial key is a pair (variable part, parameter part) of sorted
power tuples.  The variable part holds (g, exponent) pairs, where the
generator g = d * STRIDE + k is one int for the jet of dependent index
d at order k; the parameter part holds (parameter index, exponent)
pairs.  Orders are bounded by ``0 <= k < STRIDE``: ``RingContext.coord``
and ``partial_derivative`` reject a larger order and
``total_derivative`` raises rather than carry into the next dependent.
The map (d, k) -> g preserves order, so every sort of keys sees the
order that sorting the pairs would give, while the total derivative
raises a jet by adding one and a key compares and hashes one level
shallower.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "RingContext", "JetExpr", "Rule", "RelationSet", "SystemDef", "Assignment",
    "ContextMismatch", "NotIntegrable", "NotReducible", "EvalDivisionByZero",
    "MissingEvolutionRule",
    "total_derivative", "partial_derivative", "evolutionary_derivative",
    "euler_derivative", "frechet_coeffs", "is_total_derivative", "antiderivative",
    "substitute", "promote", "solve_for", "split_param",
    "coords_of", "params_of", "max_order", "random_eval", "random_assignment",
    "random_expr", "perturb_term", "to_text", "rational", "STRIDE",
]

# the generator of the jet (d, k) is d * STRIDE + k
STRIDE = 1 << 16


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
        if self is other:
            return True
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

    def generator(self, name, order):
        """The int d * STRIDE + order naming the jet (name, order) in
        monomial keys."""
        if not 0 <= order < STRIDE:
            raise ValueError("derivative order %d outside 0..%d"
                             % (order, STRIDE - 1))
        return self.index(name) * STRIDE + order

    def coord(self, name, order=0):
        key = (((self.generator(name, order), 1),), ())
        return JetExpr(self, {key: 1})

    def param(self, name, power=1):
        if name not in self._param_index:
            raise ContextMismatch("no parameter %r" % (name,))
        if power == 0:
            return self.one()
        key = ((), ((self._param_index[name], power),))
        return JetExpr(self, {key: 1})

    def const(self, value):
        return JetExpr.monomial(self, ((), ()), value)

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

    def appends_to(self, other):
        """Whether this ring is other's with dependents or parameters
        appended, as ``extend`` builds it: every dependent and parameter
        index of other then names the same generator here, so every
        monomial key of other's ring means the same monomial here."""
        deps, params = other.dependents, other.parameters
        return (self.independent == other.independent
                and self.dependents[:len(deps)] == deps
                and self.parameters[:len(params)] == params)


def rational(value):
    """The canonical form of an exact rational value, the form
    ``JetExpr.coeff_items`` yields: an int when the value is integral,
    else a Fraction with denominator > 1.  Floats and other inexact
    values are rejected."""
    if value.__class__ is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError("expected an exact rational, got %r" % (value,))


def _reduced(ring, nums, den):
    """The expression nums / den with their common factor cancelled;
    nums holds no zero."""
    if den > 1:
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    return JetExpr(ring, nums, den)


def _nonzero(acc):
    return {k: v for k, v in acc.items() if v}


def _sum_over(ring, acc, pieces, den):
    """(acc + the sum of pieces) / den, where acc maps keys to integer
    numerators; keys keep their order of first appearance."""
    scale = lcm(*(piece.den for piece in pieces))
    if scale > 1:
        acc = {k: v * scale for k, v in acc.items()}
    get = acc.get
    for piece in pieces:
        f = scale // piece.den
        for key, val in piece.nums.items():
            acc[key] = get(key, 0) + val * f
    return _reduced(ring, _nonzero(acc), den * scale)


def _merge_powers(a, b):
    """The product of two sorted power tuples, itself sorted: a single
    power is placed by bisection, longer tuples are walked side by
    side."""
    if not a:
        return b
    if not b:
        return a
    # generator ranges that do not overlap concatenate in order
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        gen, ex = b[0]
        i = bisect_left(a, (gen,))  # sorts just before (gen, exponent)
        if a[i][0] != gen:
            return a[:i] + b + a[i:]
        n = a[i][1] + ex
        return a[:i] + ((gen, n),) + a[i + 1:] if n else a[:i] + a[i + 1:]
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ga, ea = a[i]
        gb, eb = b[j]
        if ga < gb:
            out.append(a[i])
            i += 1
        elif gb < ga:
            out.append(b[j])
            j += 1
        else:
            if ea + eb:
                out.append((ga, ea + eb))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


class JetExpr:
    """A canonical Laurent polynomial in jet coordinates and parameters.

    The value is the sum of ``nums[key] / den`` times the monomial of
    each key.  ``nums`` maps a monomial key to a nonzero int numerator
    and ``den`` is a positive int with ``gcd(den, *nums.values()) ==
    1``, so each value has exactly one representation and the zero
    expression is ``{}`` over 1.  ``coeff_items`` gives the coefficients
    themselves.  A key is a pair (variable part, parameter part) of
    sorted tuples of (generator, exponent) with nonzero integer
    exponents: in the variable part the generator is the int
    d * STRIDE + k of the jet of dependent index d at order
    k < STRIDE, in the parameter part it is the parameter index.
    Instances are never mutated.
    """

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, nums, den=1):
        self.ring = ring
        self.nums = nums
        self.den = den

    @classmethod
    def monomial(cls, ring, key, value):
        """value times the monomial of key, for an exact rational value."""
        value = rational(value)
        if not value:
            return cls(ring, {})
        if value.__class__ is int:
            return cls(ring, {key: value})
        return cls(ring, {key: value.numerator}, value.denominator)

    def coeff_items(self):
        """(key, coefficient) pairs in term order, each coefficient in
        the canonical form ``rational`` gives."""
        den = self.den
        if den == 1:
            return self.nums.items()
        return [(k, rational(Fraction(n, den))) for k, n in self.nums.items()]

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.nums

    @property
    def is_rational(self):
        return not self.nums or (len(self.nums) == 1 and ((), ()) in self.nums)

    def key(self):
        """A hashable canonical form, usable as a dictionary key; it
        carries coefficient values, so keys of two expressions compare
        by value."""
        return (self.ring.independent, tuple(sorted(self.coeff_items())))

    def __bool__(self):
        return bool(self.nums)

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
        if not other.nums:
            return self
        if not self.nums:
            return other
        den, dother = self.den, other.den
        if den == dother:
            acc = dict(self.nums)
            items = other.nums.items()
        else:
            g = gcd(den, dother)
            scale, oscale = dother // g, den // g
            den *= scale
            acc = {k: v * scale for k, v in self.nums.items()}
            items = [(k, v * oscale) for k, v in other.nums.items()]
        # other's keys are distinct, so a cancelled key never returns:
        # deleting it at once leaves the survivors in the order that
        # accumulating first and dropping zeros afterwards would give
        get = acc.get
        for key, val in items:
            cur = get(key)
            if cur is None:
                acc[key] = val
            else:
                cur += val
                if cur:
                    acc[key] = cur
                else:
                    del acc[key]
        return _reduced(self.ring, acc, den)

    __radd__ = __add__

    def __neg__(self):
        return JetExpr(self.ring, {k: -v for k, v in self.nums.items()},
                       self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.nums, other.nums
        den = self.den * other.den
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # a Laurent monomial times anything: multiplying by it is
            # injective on keys and two nonzero numerators have a
            # nonzero product, so no key collides and none cancels
            ((v1, p1), c1), = a.items()
            if not v1 and not p1:
                # a rational constant keeps every key as it is
                return _reduced(self.ring, {k: c1 * c2 for k, c2 in b.items()},
                                den)
            return _reduced(self.ring, {
                (_merge_powers(v1, v2),
                 _merge_powers(p1, p2) if p1 and p2 else p1 or p2): c1 * c2
                for (v2, p2), c2 in b.items()}, den)
        acc = {}
        get = acc.get
        for (v1, p1), c1 in a.items():
            for (v2, p2), c2 in b.items():
                key = (_merge_powers(v1, v2),
                       _merge_powers(p1, p2) if p1 and p2 else p1 or p2)
                acc[key] = get(key, 0) + c1 * c2
        return _reduced(self.ring, _nonzero(acc), den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n == 0:
            return self.ring.one()
        if n < 0:
            if len(self.nums) != 1:
                raise NotReducible("only monomials can be inverted: %s" % (self,))
            ((vk, pk), c), = self.nums.items()
            inv_key = (tuple((g, -e) for g, e in vk),
                       tuple((g, -e) for g, e in pk))
            # c / den is in lowest terms, so den / c is as well
            den = self.den if c > 0 else -self.den
            inv = JetExpr(self.ring, {inv_key: den}, abs(c))
            return inv if n == -1 else inv ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, JetExpr):
            return self * other ** -1
        return self * Fraction(1, rational(other))

    def __rtruediv__(self, other):
        return self._coerce(other) * self ** -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        elif not isinstance(other, JetExpr):
            return NotImplemented
        return (self.ring == other.ring and self.den == other.den
                and self.nums == other.nums)

    __hash__ = None

    def __repr__(self):
        return to_text(self)


# -- structural queries ------------------------------------------------

def coords_of(e):
    """Sorted list of (dependent name, order) occurring in e."""
    seen = set()
    for (vk, _pk) in e.nums:
        for g, _ex in vk:
            seen.add(g)
    deps = e.ring.dependents
    return [(deps[g // STRIDE], g % STRIDE) for g in sorted(seen)]


def params_of(e):
    seen = set()
    for (_vk, pk) in e.nums:
        for pidx, _ex in pk:
            seen.add(pidx)
    return [e.ring.parameters[p] for p in sorted(seen)]


def max_order(e, dep=None):
    """Highest derivative order present, or -1 when absent.

    With ``dep`` the search is restricted to that dependent."""
    if dep is None:
        return max((g % STRIDE for (vk, _pk) in e.nums for g, _ex in vk),
                   default=-1)
    lo = e.ring.index(dep) * STRIDE
    return max((g - lo for (vk, _pk) in e.nums for g, _ex in vk
                if lo <= g < lo + STRIDE), default=-1)


def split_param(e, name):
    """Decompose e = sum_k name^k * coefficient; returns {k: coefficient}.

    The coefficients no longer mention the parameter."""
    pidx = e.ring._param_index.get(name)
    if pidx is None:
        raise ContextMismatch("no parameter %r" % (name,))
    parts = {}
    for (vk, pk), c in e.nums.items():
        ex = 0
        rest = []
        for g, p in pk:
            if g == pidx:
                ex = p
            else:
                rest.append((g, p))
        # the power and the rest determine the key, so none collide
        parts.setdefault(ex, {})[(vk, tuple(rest))] = c
    return {ex: _reduced(e.ring, t, e.den) for ex, t in sorted(parts.items())}


# -- derivations -------------------------------------------------------

def total_derivative(e):
    """The formal derivative along the ring's independent variable.

    Each new variable key is spliced from slices of the sorted old one:
    the jet (d, k + 1), generator g + 1, sorts right after (d, k), so
    the raised jet is either the next entry, whose exponent goes up by
    one (and which drops out at zero), or a new entry at that
    position."""
    acc = {}
    get = acc.get
    for (vk, pk), c in e.nums.items():
        n = len(vk)
        for i, (g, ex) in enumerate(vk):
            head = vk[:i] if ex == 1 else vk[:i] + ((g, ex - 1),)
            up = g + 1
            if not up % STRIDE:
                raise ValueError("derivative order %d reaches the stride"
                                 % STRIDE)
            j = i + 1
            if j < n and vk[j][0] == up:
                ex_up = vk[j][1] + 1
                tail = (((up, ex_up),) + vk[j + 1:]) if ex_up else vk[j + 1:]
            else:
                tail = ((up, 1),) + vk[j:]
            key = (head + tail, pk)
            acc[key] = get(key, 0) + c * ex
    return _reduced(e.ring, _nonzero(acc), e.den)


def partial_derivative(e, dep, order):
    """Partial derivative with respect to one jet coordinate."""
    g = e.ring.generator(dep, order)
    probe = (g,)    # sorts just before any entry (g, exponent)
    acc = {}
    for (vk, pk), c in e.nums.items():
        i = bisect_left(vk, probe)
        if i == len(vk) or vk[i][0] != g:
            continue
        ex = vk[i][1]
        if ex == 1:
            rest = vk[:i] + vk[i + 1:]
        else:
            rest = vk[:i] + ((g, ex - 1),) + vk[i + 1:]
        # lowering one exponent is injective on keys: nothing collides
        acc[(rest, pk)] = c * ex
    return _reduced(e.ring, acc, e.den)


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
    for (vk, _pk) in e.nums:
        for g, _ex in vk:
            seen.add(g // STRIDE)
    for d in sorted(seen):
        if not euler_derivative(e, e.ring.dependents[d]).is_zero:
            return False
    return True


def is_total_derivative(e):
    """Whether e is an exact total derivative inside the jet algebra,
    decided constructively: whether antiderivative finds an F.  A bare
    constant, even a parameter dependent one, is rejected here."""
    try:
        antiderivative(e)
    except NotIntegrable:
        return False
    return True


def antiderivative(e):
    """An exact F with total_derivative(F) = e and no constant term.

    Integration by parts, one round per top jet: if F exists, the
    part of e linear in the top jet z_top of the last dependent that
    reaches the top order is dF/dz_(top-1), which never carries a
    z_(top-1)^-1, so raising the exponent of z_(top-1) integrates it
    and removes z_top from the remainder.  Any exact expression is
    linear in its top-order coordinates, which keeps each round well
    defined; a bounded round count guards against drift on malformed
    input.  The round trip is verified before returning; failures
    raise NotIntegrable."""
    ring = e.ring
    if e.is_zero:
        return ring.zero()
    if not _euler_vanishes(e):
        raise NotIntegrable("variational derivative does not vanish")
    out = ring.zero()
    rest = e
    for _round in range(200):
        if rest.is_zero:
            break
        top = max_order(rest)
        if top <= 0:
            raise NotIntegrable("no derivative left to peel in %s" % (rest,))
        # the top jet of the last dependent that reaches the top order
        below = max(g for (vk, _pk) in rest.nums for g, _ex in vk
                    if g % STRIDE == top) - 1
        name = ring.dependents[below // STRIDE]
        lin = partial_derivative(rest, name, top)
        if max_order(lin) == top:
            raise NotIntegrable("top-order coordinates enter nonlinearly")
        raised = {}
        for (vk, pk), c in lin.nums.items():
            m = dict(vk)
            p = m.get(below, 0) + 1
            if p == 0:
                raise NotIntegrable("logarithmic obstruction at %s_%d"
                                    % (name, top - 1))
            m[below] = p
            # raising one exponent is injective on keys
            raised[(tuple(sorted(m.items())), pk)] = (c, p)
        # each numerator c / p goes over the common multiple of the p
        scale = lcm(*(p for _c, p in raised.values()))
        piece = _reduced(ring, {key: c * (scale // p)
                                for key, (c, p) in raised.items()},
                         lin.den * scale)
        out = out + piece
        rest = rest - total_derivative(piece)
    else:
        raise NotIntegrable("integration by parts failed to settle")
    if total_derivative(out) != e:
        raise NotIntegrable("integration by parts round trip failed")
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

    def reduce(self, e):
        """The normal form of e: no ruled jet (nor any of its higher
        derivatives) survives.  Substitution of equal values makes the
        result independent of rule application order."""
        if e.ring != self.ring:
            raise ContextMismatch("expression from a different ring")
        if not self.rules:
            return e
        ring = self.ring
        by_index = {ring.index(dep): rule for dep, rule in self.rules.items()}
        for _round in range(10000):
            acc = {}
            extra = []
            # the round works on numerators: each rewritten term is its
            # numerator times its replacements, and the sum goes over
            # e.den times the common denominator of the pieces
            for (vk, pk), c in e.nums.items():
                clean = []
                repl = []
                for g, ex in vk:
                    rule = by_index.get(g // STRIDE)
                    if rule is not None and g % STRIDE >= rule.order:
                        repl.append((rule.jet(g % STRIDE - rule.order), ex))
                    else:
                        clean.append((g, ex))
                if not repl:
                    acc[(vk, pk)] = c
                    continue
                prod = JetExpr(ring, {(tuple(clean), pk): c})
                for rep, ex in repl:
                    prod = prod * rep ** ex
                extra.append(prod)
            if not extra:
                return e
            e = _sum_over(ring, acc, extra, e.den)
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
    dependents together."""

    __slots__ = ("ring", "evolution", "constraints", "_rhs_jets")

    def __init__(self, ring, evolution, constraints=None):
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

    def image(g):
        got = images.get(g)
        if got is not None:
            return got
        if g % STRIDE == 0:
            name = src.dependents[g // STRIDE]
            img = rules.get(name)
            if img is None:
                img = tgt.coord(name, 0)
        else:
            img = total_derivative(image(g - 1))
            if jacobian is not None:
                img = jacobian * img
        images[g] = img
        return img

    # each term's image is computed from its numerator alone
    pieces = []
    for (vk, pk), c in e.nums.items():
        npk = []
        for pidx, ex in pk:
            pname = src.parameters[pidx]
            if pname not in tgt._param_index:
                raise ContextMismatch("no parameter %r in target" % (pname,))
            npk.append((tgt._param_index[pname], ex))
        term = JetExpr(tgt, {((), tuple(sorted(npk))): c})
        for g, ex in vk:
            term = term * image(g) ** ex
        pieces.append(term)
    return _sum_over(tgt, {}, pieces, e.den)


def promote(e, ring):
    """Re-tag e into a ring over the same independent variable that
    carries its dependents and parameters; e itself when already there.

    The value is the one ``substitute(e, {}, target_ring=ring)`` gives,
    and any ring but these two goes through it.  A ring that extends
    e's by appending, as ``RingContext.extend`` does, keeps every
    index, so the result shares e's ``nums``, which no operation
    mutates, and promotion never multiplies."""
    src = e.ring
    if src == ring:
        return e
    if ring.independent != src.independent:
        raise ContextMismatch("promotion cannot change the independent "
                              "variable; use substitute with a jacobian")
    if ring.appends_to(src):
        return JetExpr(ring, e.nums, e.den)
    return substitute(e, {}, target_ring=ring)


# -- numeric oracle ------------------------------------------------------

class Assignment:
    """Exact rational values for jet coordinates and parameters.

    Values are held as Fractions even when integral, unlike expression
    coefficients: ``random_eval`` raises them to negative powers, and
    an int base would give a float."""

    __slots__ = ("values", "params")

    def __init__(self, values, params=None):
        self.values = {k: Fraction(rational(v)) for k, v in values.items()}
        self.params = {k: Fraction(rational(v))
                       for k, v in (params or {}).items()}

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
    for (vk, pk), c in e.coeff_items():
        val = c
        for g, ex in vk:
            name, k = ring.dependents[g // STRIDE], g % STRIDE
            base = assignment.value(name, k)
            if base == 0 and ex < 0:
                raise EvalDivisionByZero("%s_%d = 0 raised to %d"
                                         % (name, k, ex))
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


def perturb_term(e, index):
    """e with the coefficient of one canonical-order term raised by 1.

    Testing support for mutation sensitivity; index is taken modulo the
    term count.  A coefficient of -1 becomes 0, which drops the term."""
    keys = sorted(e.nums)
    if not keys:
        raise ValueError("cannot perturb the zero expression")
    key = keys[index % len(keys)]
    nums = dict(e.nums)
    # raising the coefficient by 1 raises its numerator by den
    raised = nums[key] + e.den
    if raised:
        nums[key] = raised
    else:
        del nums[key]
    return _reduced(e.ring, nums, e.den)


# -- text form -----------------------------------------------------------

def _factor_text(ring, vk, pk):
    out = []
    for g, ex in vk:
        coord = "%s_%d" % (ring.dependents[g // STRIDE], g % STRIDE)
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
    it unique."""
    if e.is_zero:
        return "0"
    terms = []
    for (vk, pk), c in sorted(e.coeff_items()):
        factors = _factor_text(e.ring, vk, pk)
        if c != 1 or not factors:
            factors = [str(c)] + factors
        terms.append(_fold("*", factors))
    return _fold("+", terms)
