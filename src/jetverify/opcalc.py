"""Calculus of matrix pseudo-differential operators.

An operator is kept in weakly nonlocal normal form: a local part (a
polynomial in the derivation with jet-expression coefficients), a tail
(a finite sum of rank-one nonlocal pieces p dinv q, where dinv is the
formal antiderivative), and words c * L o inv[name] o R, with L and R
local and inv[name] the formal inverse of a registered operator.  Words
are only applied; composing or adjoining one raises
NonClosedComposition.  Applying with a nonlocal store works over the
store's ring: operator and argument are promoted to it.  Composition,
adjoint and application implement the standard closure rules:

* d o c = c d + c', dinv o d = d o dinv = id,
* dinv o c d^k is integrated by parts down to a pure dinv o c~,
* a tail-tail product closes exactly when the inner core is a total
  derivative,
* inverses never expand; they are resolved at application time
  through auxiliary dependents.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .jetalg import (
    STRIDE, ContextMismatch, JetExpr, NotIntegrable, RelationSet,
    antiderivative, coords_of, euler_derivative, frechet_coeffs, promote,
    rational, to_text, total_derivative,
)

__all__ = [
    "NonClosedComposition", "UnknownOperator", "LocalOp", "PseudoOp",
    "MatrixOp", "OperatorRegistry", "NonlocalStore",
    "frechet_row", "scaled_derivative_power", "transport_local",
    "solve_e_image", "serialize_pseudo", "serialize_matrix", "Echelon",
]


class NonClosedComposition(ValueError):
    """A product left the weakly nonlocal normal form."""


class UnknownOperator(KeyError):
    """Reference to an operator name absent from the registry."""


class LocalOp:
    """A purely local operator: sum over k of coeffs[k] * d^k."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        clean = {}
        for k, c in coeffs.items():
            if k < 0:
                raise ValueError("local orders must be nonnegative")
            if not isinstance(c, JetExpr):
                c = ring.const(c)
            if c.ring != ring:
                raise ContextMismatch("coefficient off-ring")
            if not c.is_zero:
                clean[k] = c
        self.ring = ring
        self.coeffs = clean

    @classmethod
    def mult(cls, expr):
        return cls(expr.ring, {0: expr})

    @classmethod
    def derivative(cls, ring, k=1, coeff=1):
        return cls(ring, {k: ring.const(coeff)})

    @classmethod
    def identity(cls, ring):
        return cls(ring, {0: ring.one()})

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def order(self):
        return max(self.coeffs) if self.coeffs else -1

    def __add__(self, other):
        if other == 0:
            return self
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc.get(k, self.ring.zero()) + c
        return LocalOp(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return LocalOp(self.ring, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, factor):
        """Left multiplication by a jet expression or rational."""
        if not isinstance(factor, JetExpr):
            factor = self.ring.const(factor)
        return LocalOp(self.ring, {k: factor * c
                                   for k, c in self.coeffs.items()})

    def compose(self, other):
        if other.ring != self.ring:
            raise ContextMismatch("composing operators over different rings")
        acc = {}
        for j, a in self.coeffs.items():
            for k, b in other.coeffs.items():
                jet = b
                for i in range(j + 1):
                    term = a * comb(j, i) * jet
                    order = j - i + k
                    acc[order] = acc.get(order, self.ring.zero()) + term
                    jet = total_derivative(jet)
        return LocalOp(self.ring, acc)

    def adjoint(self):
        acc = LocalOp(self.ring, {})
        for k, c in self.coeffs.items():
            sign = 1 if k % 2 == 0 else -1
            acc = acc + LocalOp.derivative(self.ring, k, sign).compose(
                LocalOp.mult(c))
        return acc

    def apply(self, e):
        out = self.ring.zero()
        jets = {0: e}
        top = self.order
        for k in range(1, top + 1):
            jets[k] = total_derivative(jets[k - 1])
        for k, c in self.coeffs.items():
            out = out + c * jets[k]
        return out

    def promote(self, ring):
        return LocalOp(ring, {k: promote(c, ring)
                              for k, c in self.coeffs.items()})

    def key(self):
        return tuple((k, c.key()) for k, c in sorted(self.coeffs.items()))

    def __eq__(self, other):
        return (isinstance(other, LocalOp) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return serialize_pseudo(PseudoOp.from_local(self))


def frechet_row(e, dep):
    """The linearization of e in the direction of one dependent."""
    return LocalOp(e.ring, frechet_coeffs(e, dep))


def scaled_derivative_power(factor, k):
    """The local operator (factor * d)^k over factor's ring."""
    ring = factor.ring
    step = LocalOp.mult(factor).compose(LocalOp.derivative(ring))
    out = LocalOp.identity(ring)
    for _ in range(k):
        out = out.compose(step)
    return out


def transport_local(op, coeff_map, jac):
    """A local operator carried through a change of the independent
    variable: each coefficient passes through coeff_map and the
    derivation becomes jac * d of the target ring."""
    ring = jac.ring
    out = LocalOp(ring, {})
    for k, c in op.coeffs.items():
        out = out + LocalOp.mult(coeff_map(c)).compose(
            scaled_derivative_power(jac, k))
    return out


def _lead_term(e):
    """The (key, coefficient) pair of e's least key, converting only
    that numerator."""
    k = min(e.nums)
    n = e.nums[k]
    return k, (rational(Fraction(n, e.den)) if e.den > 1 else n)


def _normalize_lead(e):
    """Split e = lead * unit with the canonical first coefficient 1."""
    lead = _lead_term(e)[1]
    return lead, e / lead


def _merge_side(pairs, side):
    """Merge the pairs whose factor on one side (0 left, 1 right) is
    proportional, that factor normalized to lead coefficient 1, and
    drop the pairs whose other factor cancels."""
    merged = {}
    for pair in pairs:
        lead, unit = _normalize_lead(pair[side])
        other = pair[1 - side] * lead
        k = unit.key()
        if k in merged:
            other = merged[k][1 - side] + other
        merged[k] = (unit, other) if side == 0 else (other, unit)
    return [pair for pair in merged.values() if not pair[1 - side].is_zero]


def _canon_tails(pairs):
    """ Canonical tail form: drop zero factors, merge proportional
    right factors, then proportional left factors, until a round gives
    back its input."""
    pairs = [(p, q) for p, q in pairs if not p.is_zero and not q.is_zero]
    for _ in range(6):
        nxt = _merge_side(_merge_side(pairs, 1), 0)
        if nxt == pairs:
            break
        pairs = nxt
    return tuple(sorted(pairs, key=lambda t: (t[1].key(), t[0].key())))


def _canon_words(words):
    """Canonical word form: words with a zero coefficient or a zero
    side dropped, words equal up to their coefficient merged."""
    acc = {}
    for c, left, name, right in words:
        if not c or left.is_zero or right.is_zero:
            continue
        k = (left.key(), name, right.key())
        if k in acc:
            c += acc[k][0]
        acc[k] = (c, left, name, right)
    return tuple(acc[k] for k in sorted(acc) if acc[k][0])


class PseudoOp:
    """local part + nonlocal tail + irreducible inverse-bearing words.

    A word is a tuple (c, left, name, right): the rational c times
    left o inv[name] o right, with left and right local operators and
    inv[name] the formal inverse of a registered operator.  Words are
    built by the constructor and only ever applied."""

    __slots__ = ("ring", "local", "tail", "words")

    def __init__(self, ring, local=None, tail=(), words=()):
        self.ring = ring
        self.local = local if local is not None else LocalOp(ring, {})
        if self.local.ring != ring:
            raise ContextMismatch("local part off-ring")
        self.tail = _canon_tails(tail)
        self.words = _canon_words(words)

    @classmethod
    def from_local(cls, local):
        return cls(local.ring, local)

    @classmethod
    def from_expr(cls, expr):
        return cls(expr.ring, LocalOp.mult(expr))

    @classmethod
    def from_tail(cls, p, q):
        return cls(p.ring, None, [(p, q)])

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @property
    def is_zero(self):
        return self.local.is_zero and not self.tail and not self.words

    def __add__(self, other):
        if other == 0:
            return self
        other = _as_pseudo(other)
        if other.ring != self.ring:
            raise ContextMismatch("adding operators over different rings")
        return PseudoOp(self.ring, self.local + other.local,
                        self.tail + other.tail, self.words + other.words)

    __radd__ = __add__

    def __neg__(self):
        return PseudoOp(self.ring, -self.local,
                        [(-p, q) for p, q in self.tail],
                        [(-c, left, name, right)
                         for c, left, name, right in self.words])

    def __sub__(self, other):
        return self + (-_as_pseudo(other))

    def scaled(self, factor):
        """Left multiplication by a jet expression or a rational: a
        rational scales each word's coefficient, an expression its left
        side."""
        rational = not isinstance(factor, JetExpr)
        expr = self.ring.const(factor) if rational else factor
        words = [(c * factor, left, name, right) if rational
                 else (c, left.scaled(expr), name, right)
                 for c, left, name, right in self.words]
        return PseudoOp(self.ring, self.local.scaled(expr),
                        [(expr * p, q) for p, q in self.tail], words)

    # -- composition -----------------------------------------------------

    def compose(self, other):
        other = _as_pseudo(other)
        if other.ring != self.ring:
            raise ContextMismatch("composing operators over different rings")
        if self.words or other.words:
            raise NonClosedComposition("words are applied, never composed")
        ring = self.ring
        local = self.local.compose(other.local)
        tails = []
        # local o tail: pass the derivation through, then scale
        for p, q in other.tail:
            for k, c in self.local.coeffs.items():
                loc = LocalOp(ring, {})
                cur = [(p, q)]
                for _ in range(k):
                    loc = LocalOp.derivative(ring).compose(loc)
                    released = ring.zero()
                    nxt = []
                    for pp, qq in cur:
                        released = released + pp * qq
                        nxt.append((total_derivative(pp), qq))
                    loc = loc + LocalOp.mult(released)
                    cur = nxt
                local = local + LocalOp.mult(c).compose(loc)
                tails.extend((c * pp, qq) for pp, qq in cur)
        # tail o local: integrate by parts down to a pure tail
        for p, q in self.tail:
            for k, c in other.local.coeffs.items():
                g = q * c
                sign = 1
                for j in range(k):
                    local = local + LocalOp(ring, {k - 1 - j: sign * p * g})
                    g = total_derivative(g)
                    sign = -sign
                tails.append((p, sign * g))
        # tail o tail: closes when the core is exact
        for p, q in self.tail:
            for h, w in other.tail:
                core = q * h
                if core.is_zero:
                    continue
                try:
                    mid = antiderivative(core)
                except NotIntegrable as exc:
                    raise NonClosedComposition(
                        "tail core is not a total derivative: %s"
                        % to_text(core)) from exc
                tails.append((p * mid, w))
                tails.append((-p, mid * w))
        return PseudoOp(ring, local, tails)

    def adjoint(self):
        if self.words:
            raise NonClosedComposition("words are applied, never adjoined")
        return PseudoOp(self.ring, self.local.adjoint(),
                        [(-q, p) for p, q in self.tail])

    # -- application -----------------------------------------------------

    def apply(self, e, store=None):
        """The image of e.  With a store, this operator and e are first
        promoted to the store's ring, and tails and words resolve
        through it; without one, the operator is promoted to e's ring,
        tails must be exact and words raise UnknownOperator."""
        if store is not None:
            e = promote(e, store.ring)
        ring = e.ring
        me = self.promote(ring)
        out = me.local.apply(e)
        for p, q in me.tail:
            arg = q * e
            if store is None:
                out = out + p * antiderivative(arg)
            else:
                out = out + p * store.resolve_dinv(arg)
        for c, left, name, right in me.words:
            if store is None:
                raise UnknownOperator("inv[%s] needs a nonlocal store" % name)
            cur = store.resolve_inv(name, right.apply(e))
            out = out + ring.const(c) * left.apply(cur)
        return out

    def map_coefficients(self, fn, ring=None):
        """A copy over ring (default: this ring) with every coefficient
        passed through fn; inverse names are kept.

        This is the one walk of an operator's coefficients, and its order
        numbers the catalog's mutation slots: local orders ascending, then
        the tail pairs p, q, then each word's left and right side, each by
        ascending order."""
        ring = ring if ring is not None else self.ring
        return PseudoOp(ring, *self._mapped_parts(fn, ring))

    def _mapped_parts(self, fn, ring):
        """The local part, tails and words of map_coefficients, before
        canonicalization."""
        def mapped(local):
            return LocalOp(ring, {k: fn(local.coeffs[k])
                                  for k in sorted(local.coeffs)})

        local = mapped(self.local)
        tails = tuple((fn(p), fn(q)) for p, q in self.tail)
        words = tuple((c, mapped(left), name, mapped(right))
                      for c, left, name, right in self.words)
        return local, tails, words

    def promote(self, ring):
        if ring == self.ring:
            return self
        parts = self._mapped_parts(lambda c: promote(c, ring), ring)
        if not ring.appends_to(self.ring):
            return PseudoOp(ring, *parts)
        # appending keeps every monomial key, so every key() and with
        # them the canonical tails and words: re-tag, do not re-merge
        out = PseudoOp.__new__(PseudoOp)
        out.ring = ring
        out.local, out.tail, out.words = parts
        return out

    def key(self):
        return (self.local.key(),
                tuple((p.key(), q.key()) for p, q in self.tail),
                tuple((c, left.key(), name, right.key())
                      for c, left, name, right in self.words))

    def __eq__(self, other):
        return (isinstance(other, PseudoOp) and self.ring == other.ring
                and self.key() == other.key())

    __hash__ = None

    def __repr__(self):
        return serialize_pseudo(self)


def _as_pseudo(other):
    """A jet expression or local operator as a PseudoOp; anything else
    unchanged."""
    if isinstance(other, JetExpr):
        return PseudoOp.from_expr(other)
    if isinstance(other, LocalOp):
        return PseudoOp.from_local(other)
    return other


class MatrixOp:
    """A rectangular grid of pseudo-differential operators."""

    __slots__ = ("ring", "grid")

    def __init__(self, grid):
        rows = tuple(tuple(row) for row in grid)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        ring = None
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for entry in row:
                if not isinstance(entry, PseudoOp):
                    raise TypeError("matrix entries must be PseudoOp")
                if ring is None:
                    ring = entry.ring
                elif entry.ring != ring:
                    raise ContextMismatch("mixed rings inside a matrix")
        self.ring = ring
        self.grid = rows

    @property
    def shape(self):
        return (len(self.grid), len(self.grid[0]))

    def scaled(self, factor):
        return MatrixOp([[e.scaled(factor) for e in row]
                         for row in self.grid])

    def compose(self, other):
        n, m = self.shape
        m2, p = other.shape
        if m != m2:
            raise ValueError("inner dimensions disagree")
        out = []
        for i in range(n):
            row = []
            for j in range(p):
                acc = PseudoOp.zero(self.ring)
                for k in range(m):
                    a = self.grid[i][k]
                    b = other.grid[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a.compose(b)
                row.append(acc)
            out.append(row)
        return MatrixOp(out)

    def adjoint(self):
        n, m = self.shape
        return MatrixOp([[self.grid[i][j].adjoint()
                          for i in range(n)] for j in range(m)])

    def apply(self, vector, store=None):
        """The image of vector, entry by entry as PseudoOp.apply; with
        a store, the vector is promoted to the store's ring once."""
        if len(vector) != self.shape[1]:
            raise ValueError("vector length mismatch")
        if store is not None:
            vector = [promote(x, store.ring) for x in vector]
        out = []
        for row in self.grid:
            acc = vector[0].ring.zero()
            for op, x in zip(row, vector):
                if not op.is_zero:
                    acc = acc + op.apply(x, store)
            out.append(acc)
        return out

    def promote(self, ring):
        return MatrixOp([[e.promote(ring) for e in row] for row in self.grid])

    def __eq__(self, other):
        return (isinstance(other, MatrixOp) and self.shape == other.shape
                and all(a == b for ra, rb in zip(self.grid, other.grid)
                        for a, b in zip(ra, rb)))

    __hash__ = None

    def __repr__(self):
        return serialize_matrix(self)


class OperatorRegistry:
    """Registered invertible operators, each skew-adjoint.

    Registration records the operator, whose inverse the store resolves
    through auxiliary relations."""

    def __init__(self):
        self._inverses = {}

    def register_invertible(self, name, op):
        if op.adjoint() != op.scaled(-1):
            raise ValueError("operator %s is not skew-adjoint" % (name,))
        self._inverses[name] = op

    def invertible(self, name):
        try:
            return self._inverses[name]
        except KeyError:
            raise UnknownOperator(name) from None


def solve_e_image(arg):
    """Solve (d^3 - d) P = arg exactly, if a jet-polynomial P exists.

    First integrates arg once, then peels (d^2 - 1) P = A from the top
    coordinate down.  The result is verified before returning; inputs
    outside the image raise NotIntegrable."""
    ring = arg.ring
    a = antiderivative(arg)
    p = ring.zero()
    residual = a
    for _ in range(400):
        if residual.is_zero:
            check = total_derivative(total_derivative(
                total_derivative(p))) - total_derivative(p)
            if check != arg:
                raise NotIntegrable("third-order solve failed verification")
            return p
        items = sorted(residual.coeff_items(),
                       key=lambda kv: (max((g % STRIDE for g, _e in kv[0][0]),
                                           default=-1), kv[0]))
        (vk, pk), coeff = items[-1]
        order = max((g % STRIDE for g, _e in vk), default=-1)
        if order < 2:
            raise NotIntegrable("no second-order jet left to peel")
        target = max(g for g, _e in vk if g % STRIDE == order)
        m = dict(vk)
        if m[target] != 1:
            raise NotIntegrable("top coordinate enters nonlinearly")
        del m[target]
        down = target - 2
        m[down] = m.get(down, 0) + 1
        if m[down] == 0:
            raise NotIntegrable("peel candidate cancels the lowered factor")
        # both derivations must hit the lowered factor, so its final
        # exponent divides the recovered coefficient
        piece = JetExpr.monomial(ring, (tuple(sorted(m.items())), pk),
                                 Fraction(coeff, m[down]))
        p = p + piece
        residual = residual - (total_derivative(total_derivative(piece))
                               - piece)
    raise NotIntegrable("third-order solve did not settle")


class NonlocalStore:
    """Resolution of formal antiderivatives and registered inverses.

    Auxiliary dependents come from a fixed pre-extended pool so the
    ring never changes mid-check.  A dinv argument is reduced, then
    matched as a parameter-monomial multiple of one prior core, then
    as a rational combination of prior cores with an exact remainder,
    found by solving its signature in an ``Echelon`` of the prior
    cores' signatures (each kept from its allocation).  An exact
    argument is the zero combination: it is integrated outright.
    Only genuinely new kernels allocate a fresh dependent, with its
    defining relation appended to the relation set.  Both sides of an
    identity therefore see identical nonlocal symbols.

    A registered inverse is resolved by linearity over its earlier
    arguments first; any registered operator equal to d^3 - d, whatever
    its name, is then tried through the exact ``solve_e_image``."""

    DINV_POOL = 16
    INV_POOL = 6

    def __init__(self, base_ring, relations=None, registry=None):
        pool = tuple("rho%d" % i for i in range(1, self.DINV_POOL + 1))
        pool += tuple("chi%d" % i for i in range(1, self.INV_POOL + 1))
        self.ring = base_ring.extend(pool)
        if relations is None:
            self.relations = RelationSet(self.ring)
        else:
            self.relations = _promote_relations(relations, self.ring)
        self.registry = registry
        self._dinv_names = ["rho%d" % i for i in range(1, self.DINV_POOL + 1)]
        self._inv_names = ["chi%d" % i for i in range(1, self.INV_POOL + 1)]
        self.allocated = []
        self._dinv_cores = []       # (name, core, leading term)
        self._dinv_span = Echelon()  # the cores' signatures
        self._inv_prior = {}         # name -> (Echelon of units, images)

    def resolve_dinv(self, arg):
        """A jet expression F with D(F) = arg modulo the relation set,
        possibly through auxiliary dependents."""
        core = self.relations.reduce(promote(arg, self.ring))
        if core.is_zero:
            return self.ring.zero()
        # a multiple of an allocated core is as inexact as that core
        lead = _lead_term(core)
        combo = self._param_shift_match(core, lead)
        if combo is not None:
            return combo
        signature = _signature(core)
        combo = self._affine_match(core, signature)
        if combo is not None:
            return combo
        if not self._dinv_names:
            raise NonClosedComposition("auxiliary pool exhausted")
        name = self._dinv_names.pop(0)
        self.relations = self.relations.with_rule(name, 1, core)
        self.allocated.append((name, "dinv", core))
        self._dinv_cores.append((name, core, lead))
        self._dinv_span.insert(signature)
        return self.ring.coord(name)

    def _param_shift_match(self, core, lead):
        """A prior core equal to this one up to a rational times a
        parameter monomial; the antiderivative scales the same way."""
        (vk, pk), val = lead
        pd = dict(pk)
        for name, cj, ((vkj, pkj), valj) in self._dinv_cores:
            if vkj != vk:
                continue
            shift = dict(pd)
            for idx, exp in pkj:
                shift[idx] = shift.get(idx, 0) - exp
            key = ((), tuple(sorted((i, e) for i, e in shift.items()
                                    if e)))
            mu = JetExpr.monomial(self.ring, key, Fraction(val, valj))
            if core == mu * cj:
                return mu * self.ring.coord(name)
        return None

    def _affine_match(self, core, signature):
        """The core as a rational combination of prior cores plus an
        exact derivative, found by matching signatures.  An exact core
        has an empty signature, which solves to all zeros (or to no
        coefficient at all before the first allocation), so the core
        itself is integrated."""
        sol = self._dinv_span.solve(signature)
        if sol is None:
            return None
        remainder = _combine(core, [-alpha for alpha in sol],
                             [cj for _name, cj, _lead in self._dinv_cores])
        try:
            extra = antiderivative(remainder)
        except NotIntegrable:
            return None
        return _combine(extra, sol, [self.ring.coord(name)
                                     for name, _cj, _lead in self._dinv_cores])

    def resolve_inv(self, name, arg):
        """The image of a registered inverse on arg: a rational
        combination of earlier images when arg lies in the span of
        their arguments, else the exact solve when the registered
        operator is d^3 - d and arg lies in its image, otherwise an
        auxiliary dependent constrained by the forward operator."""
        if self.registry is None:
            raise UnknownOperator("no registry attached to the store")
        op = self.registry.invertible(name)
        core = self.relations.reduce(promote(arg, self.ring))
        if core.is_zero:
            return self.ring.zero()
        lead, unit = _normalize_lead(core)
        combo = self._inv_affine(name, unit)
        if combo is not None:
            return lead * combo
        if op == LocalOp(op.ring, {3: 1, 1: -1}):
            try:
                got = solve_e_image(unit)
                self._record_inv(name, unit, got)
                return lead * got
            except NotIntegrable:
                pass
        if not self._inv_names:
            raise NonClosedComposition("inverse auxiliary pool exhausted")
        fresh = self._inv_names.pop(0)
        opd = op.promote(self.ring)
        top = opd.order
        rest = self.ring.zero()
        for k, c in opd.coeffs.items():
            if k != top:
                rest = rest + c * self.ring.coord(fresh, k)
        rhs = (unit - rest) * opd.coeffs[top] ** -1
        self.relations = self.relations.with_rule(fresh, top, rhs)
        self.allocated.append((fresh, "inv:%s" % name, unit))
        got = self.ring.coord(fresh)
        self._record_inv(name, unit, got)
        return lead * got

    def _record_inv(self, name, unit, image):
        span, images = self._inv_prior.setdefault(name, (Echelon(), []))
        span.insert(dict(unit.coeff_items()))
        images.append(image)

    def _inv_affine(self, name, unit):
        """Linearity of a registered inverse: match the argument as an
        exact rational combination of previously resolved ones."""
        span, images = self._inv_prior.get(name, (Echelon(), []))
        sol = span.solve(dict(unit.coeff_items()))
        if sol is None:
            return None
        return _combine(self.ring.zero(), sol, images)

    def reduce(self, e):
        return self.relations.reduce(e)

    def used_names(self, exprs):
        """Auxiliary names that survive into the given expressions."""
        used = set()
        for e in exprs:
            for d, _k in coords_of(e):
                used.add(d)
        return [name for name, _kind, _core in self.allocated if name in used]


def _combine(base, coefficients, symbols):
    """base plus each symbol times its coefficient, zero ones skipped."""
    for alpha, sym in zip(coefficients, symbols):
        if alpha:
            base = base + alpha * sym
    return base


def _signature(core):
    """What a dinv core keeps modulo exact derivatives: its Euler image
    for each dependent it contains, keyed (dependent, term), and its
    jet-free terms, which escape the Euler probe, keyed (None, term)."""
    out = {}
    for d in dict.fromkeys(d for d, _k in coords_of(core)):
        for key, val in euler_derivative(core, d).coeff_items():
            out[(d, key)] = val
    for (vk, pk), val in core.coeff_items():
        if not vk:
            out[(None, pk)] = val
    return out


def _promote_relations(relations, ring):
    out = RelationSet(ring)
    for rule in relations:
        out = out.with_rule(rule.dep, rule.order, promote(rule.rhs, ring))
    return out


class Echelon:
    """Sparse rational vectors (dicts key -> exact rational, such as
    ``dict(e.coeff_items())``), inserted one at a time and kept in
    echelon form; each row remembers its combination of the inserted
    vectors.  A vector dependent on earlier ones adds no row, so
    ``solve`` reproduces Gaussian elimination with the inserted vectors
    as columns: the independent prefix are the pivots and each
    dependent column gets coefficient zero."""

    __slots__ = ("size", "_rows")

    def __init__(self, vectors=()):
        self.size = 0
        self._rows = []     # (pivot key, unit-pivot vector, combination)
        for vec in vectors:
            self.insert(vec)

    def _reduce(self, vec):
        rest = {k: v for k, v in vec.items() if v}
        combo = {}
        for pivot, row, rcombo in self._rows:
            f = rest.get(pivot)
            if not f:
                continue
            for k, v in row.items():
                x = rest.get(k, 0) - f * v
                if x:
                    rest[k] = x
                else:
                    del rest[k]
            for i, v in rcombo.items():
                combo[i] = combo.get(i, 0) + f * v
        return rest, combo

    def insert(self, vec):
        rest, combo = self._reduce(vec)
        if rest:
            pivot = next(iter(rest))
            inv = Fraction(1) / rest[pivot]
            combo = {i: -v * inv for i, v in combo.items()}
            combo[self.size] = inv
            self._rows.append((pivot, {k: v * inv for k, v in rest.items()},
                               combo))
        self.size += 1

    def solve(self, vec):
        """Coefficients of the inserted vectors reproducing vec, or None
        when vec is outside their span."""
        rest, combo = self._reduce(vec)
        if rest:
            return None
        return [combo.get(i, Fraction(0)) for i in range(self.size)]


# -- serialization -------------------------------------------------------

def serialize_pseudo(op):
    parts = []
    for k in sorted(op.local.coeffs):
        parts.append("(%s)*d^%d" % (to_text(op.local.coeffs[k]), k))
    for p, q in op.tail:
        parts.append("(%s)*dinv*(%s)" % (to_text(p), to_text(q)))
    for c, left, name, right in op.words:
        parts.append("(%s)*{%s}*inv[%s]*{%s}" % (
            c, serialize_pseudo(PseudoOp.from_local(left)), name,
            serialize_pseudo(PseudoOp.from_local(right))))
    return " + ".join(parts) if parts else "0"


def serialize_matrix(mat):
    return "[%s]" % ", ".join(
        "[%s]" % "; ".join(serialize_pseudo(e) for e in row)
        for row in mat.grid)
