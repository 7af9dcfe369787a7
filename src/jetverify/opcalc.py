"""Calculus of matrix pseudo-differential operators.

An operator is kept in weakly nonlocal normal form: a local part (a
polynomial in the derivation with jet-expression coefficients), a tail
(a finite sum of rank-one nonlocal pieces p dinv q, where dinv is the
formal antiderivative), and residual words, products of local factors
and formal inverses of registered operators that admit no further
multiplication.  Composition, adjoint and application implement the
standard closure rules:

* d o c = c d + c', dinv o d = d o dinv = id,
* dinv o c d^k is integrated by parts down to a pure dinv o c~,
* a tail-tail product closes exactly when the inner core is a total
  derivative,
* inverses never expand; they cancel against their own operator or are
  resolved at application time through auxiliary dependents.

Identity verification runs a three-rung ladder: normal-form equality,
application to a shared generic test vector with deduplicated
nonlocal auxiliaries, and an exact-rational numeric confirmation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from .jetalg import (
    Assignment, ContextMismatch, EvalDivisionByZero, JetExpr, NotIntegrable,
    NotReducible, RelationSet, antiderivative, coords_of, euler_derivative,
    frechet_coeffs, max_order, params_of, parse, promote, random_assignment,
    random_eval, to_text, total_derivative,
)

__all__ = [
    "NonClosedComposition", "UnknownOperator", "LocalOp", "PseudoOp",
    "MatrixOp", "OperatorRegistry", "NonlocalStore", "OpVerdict",
    "frechet_row", "scaled_derivative_power", "transport_local",
    "solve_e_image", "verify_operator_identity", "serialize_pseudo",
    "parse_pseudo", "serialize_matrix", "parse_matrix", "Echelon",
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


def _normalize_lead(e):
    """Split e = lead * unit with the canonical first coefficient 1."""
    items = sorted(e.terms.items())
    lead = items[0][1]
    return lead, e / lead


def _canon_tails(ring, pairs):
    """ Canonical tail form: drop zero factors, merge proportional
    right factors, then proportional left factors, until stable."""
    pairs = [(p, q) for p, q in pairs if not p.is_zero and not q.is_zero]
    for _ in range(6):
        merged = {}
        order = []
        for p, q in pairs:
            lead, unit = _normalize_lead(q)
            k = unit.key()
            if k in merged:
                merged[k] = (merged[k][0] + p * lead, unit)
            else:
                merged[k] = (p * lead, unit)
                order.append(k)
        pairs = [merged[k] for k in order]
        pairs = [(p, q) for p, q in pairs if not p.is_zero]
        merged = {}
        order = []
        for p, q in pairs:
            lead, unit = _normalize_lead(p)
            k = unit.key()
            if k in merged:
                merged[k] = (unit, merged[k][1] + q * lead)
            else:
                merged[k] = (unit, q * lead)
                order.append(k)
        nxt = [merged[k] for k in order]
        nxt = [(p, q) for p, q in nxt if not q.is_zero]
        if len(nxt) == len(pairs) and all(
                a[0] == b[0] and a[1] == b[1] for a, b in zip(nxt, pairs)):
            pairs = nxt
            break
        pairs = nxt
    return tuple(sorted(pairs, key=lambda t: (t[1].key(), t[0].key())))


def _canon_words(words):
    acc = {}
    order = []
    for coeff, factors in words:
        if not coeff or not factors:
            continue
        k = tuple(_factor_key(f) for f in factors)
        if k in acc:
            c, _ = acc[k]
            acc[k] = (c + coeff, factors)
        else:
            acc[k] = (coeff, factors)
            order.append(k)
    out = [acc[k] for k in sorted(order)]
    return tuple((c, f) for c, f in out if c)


def _factor_key(factor):
    kind, payload = factor
    if kind == "local":
        return (kind, payload.key())
    return (kind, payload)


class PseudoOp:
    """local part + nonlocal tail + irreducible inverse-bearing words.

    A word is a coefficient together with a factor sequence; factors
    are local operators or formal inverses of registered operators.
    Words appear only when a product cannot be multiplied out."""

    __slots__ = ("ring", "local", "tail", "words")

    def __init__(self, ring, local=None, tail=(), words=()):
        self.ring = ring
        self.local = local if local is not None else LocalOp(ring, {})
        if self.local.ring != ring:
            raise ContextMismatch("local part off-ring")
        self.tail = _canon_tails(ring, tail)
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
    def inverse_atom(cls, ring, name):
        return cls(ring, None, (), [(Fraction(1), (("inv", name),))])

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @property
    def is_zero(self):
        return self.local.is_zero and not self.tail and not self.words

    @property
    def is_closed(self):
        return not self.words

    def __add__(self, other):
        if other == 0:
            return self
        if isinstance(other, (JetExpr, LocalOp)):
            other = (PseudoOp.from_expr(other) if isinstance(other, JetExpr)
                     else PseudoOp.from_local(other))
        if other.ring != self.ring:
            raise ContextMismatch("adding operators over different rings")
        return PseudoOp(self.ring, self.local + other.local,
                        self.tail + other.tail, self.words + other.words)

    __radd__ = __add__

    def __neg__(self):
        return PseudoOp(self.ring, -self.local,
                        [(-p, q) for p, q in self.tail],
                        [(-c, f) for c, f in self.words])

    def __sub__(self, other):
        if isinstance(other, (JetExpr, LocalOp)):
            other = (PseudoOp.from_expr(other) if isinstance(other, JetExpr)
                     else PseudoOp.from_local(other))
        return self + (-other)

    def scaled(self, factor):
        """Left multiplication by a jet expression or a rational."""
        rational = not isinstance(factor, JetExpr)
        expr = self.ring.const(factor) if rational else factor
        words = []
        for c, f in self.words:
            if rational:
                words.append((c * factor, f))
            else:
                words.append((c, (("local", LocalOp.mult(expr)),) + f))
        return PseudoOp(self.ring, self.local.scaled(expr),
                        [(expr * p, q) for p, q in self.tail], words)

    # -- composition -----------------------------------------------------

    def _core_factors(self):
        if self.tail:
            raise NonClosedComposition(
                "tail-bearing operator cannot enter a word")
        return (("local", self.local),) if not self.local.is_zero else ()

    def compose(self, other, registry=None):
        if isinstance(other, (JetExpr, LocalOp)):
            other = (PseudoOp.from_expr(other) if isinstance(other, JetExpr)
                     else PseudoOp.from_local(other))
        if other.ring != self.ring:
            raise ContextMismatch("composing operators over different rings")
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
        words = []
        if self.words or other.words:
            a_core_zero = self.local.is_zero and not self.tail
            b_core_zero = other.local.is_zero and not other.tail
            if not b_core_zero:
                for c, f in self.words:
                    words.append((c, f + other._core_factors()))
            if not a_core_zero:
                for c, f in other.words:
                    words.append((c, self._core_factors() + f))
            for c1, f1 in self.words:
                for c2, f2 in other.words:
                    words.append((c1 * c2, f1 + f2))
        out_local, out_tails, out_words = local, tails, []
        for c, f in words:
            c, f = _simplify_word(ring, c, f, registry)
            if not f:
                out_local = out_local + LocalOp(ring, {0: ring.const(c)})
            elif len(f) == 1 and f[0][0] == "local":
                out_local = out_local + f[0][1].scaled(c)
            else:
                out_words.append((c, f))
        return PseudoOp(ring, out_local, out_tails, out_words)

    def adjoint(self, registry=None):
        local = self.local.adjoint()
        tails = [(-q, p) for p, q in self.tail]
        words = []
        for c, f in self.words:
            rev = []
            for factor in reversed(f):
                kind, payload = factor
                if kind == "local":
                    rev.append(("local", payload.adjoint()))
                else:
                    if registry is None:
                        raise UnknownOperator(
                            "adjoint of inv[%s] needs a registry" % payload)
                    _op, sign = registry.invertible(payload)
                    c = c * sign
                    rev.append(("inv", payload))
            c2, f2 = _simplify_word(self.ring, c, tuple(rev), registry)
            if not f2:
                local = local + LocalOp(self.ring, {0: self.ring.const(c2)})
            elif len(f2) == 1 and f2[0][0] == "local":
                local = local + f2[0][1].scaled(c2)
            else:
                words.append((c2, f2))
        return PseudoOp(self.ring, local, tails, words)

    # -- application -----------------------------------------------------

    def apply(self, e, store=None):
        ring = e.ring
        if store is not None and store.ring != ring:
            raise ContextMismatch("store ring and argument ring differ")
        me = self if self.ring == ring else self.promote(ring)
        out = me.local.apply(e)
        for p, q in me.tail:
            arg = q * e
            if store is None:
                out = out + p * antiderivative(arg)
            else:
                out = out + p * store.resolve_dinv(arg)
        for c, f in me.words:
            cur = e
            for kind, payload in reversed(f):
                if kind == "local":
                    cur = payload.apply(cur)
                else:
                    if store is None:
                        raise UnknownOperator(
                            "inv[%s] needs a nonlocal store" % payload)
                    cur = store.resolve_inv(payload, cur)
            out = out + ring.const(c) * cur
        return out

    def coefficients(self):
        """Every jet-expression coefficient in walk order: local orders
        ascending, then the tail pairs p, q, then the local factors of
        the words, each by ascending order."""
        out = [self.local.coeffs[k] for k in sorted(self.local.coeffs)]
        for p, q in self.tail:
            out += (p, q)
        for _c, factors in self.words:
            for kind, payload in factors:
                if kind == "local":
                    out += (payload.coeffs[k] for k in sorted(payload.coeffs))
        return tuple(out)

    def map_coefficients(self, fn, ring=None):
        """A copy over ring (default: this ring) with every coefficient
        passed through fn, called in the order of coefficients();
        inverse atoms are kept."""
        ring = ring if ring is not None else self.ring

        def mapped(local):
            return LocalOp(ring, {k: fn(local.coeffs[k])
                                  for k in sorted(local.coeffs)})

        local = mapped(self.local)
        tails = [(fn(p), fn(q)) for p, q in self.tail]
        words = [(c, tuple(("local", mapped(payload)) if kind == "local"
                           else (kind, payload) for kind, payload in f))
                 for c, f in self.words]
        return PseudoOp(ring, local, tails, words)

    def promote(self, ring):
        return self.map_coefficients(lambda c: promote(c, ring), ring)

    def key(self):
        return (self.local.key(),
                tuple((p.key(), q.key()) for p, q in self.tail),
                tuple((c, tuple(_factor_key(x) for x in f))
                      for c, f in self.words))

    def __eq__(self, other):
        return (isinstance(other, PseudoOp) and self.ring == other.ring
                and self.key() == other.key())

    __hash__ = None

    def __repr__(self):
        return serialize_pseudo(self)


def _simplify_word(ring, coeff, factors, registry):
    """Merge adjacent local factors and cancel inverses against their
    own operator; returns the reduced (coeff, factors)."""
    work = list(factors)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(work):
            a, b = work[i], work[i + 1]
            if a[0] == "local" and b[0] == "local":
                work[i:i + 2] = [("local", a[1].compose(b[1]))]
                changed = True
                continue
            if registry is not None and {a[0], b[0]} == {"local", "inv"}:
                name = a[1] if a[0] == "inv" else b[1]
                other = b[1] if a[0] == "inv" else a[1]
                try:
                    op, _sign = registry.invertible(name)
                except UnknownOperator:
                    op = None
                if op is not None and other == op.promote(ring):
                    del work[i:i + 2]
                    changed = True
                    continue
            i += 1
        if any(f[0] == "local" and f[1].is_zero for f in work):
            return Fraction(0), ()
    return coeff, tuple(work)


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

    @classmethod
    def from_exprs(cls, grid):
        return cls([[PseudoOp.from_expr(e) for e in row] for row in grid])

    @classmethod
    def identity(cls, ring, n):
        return cls([[PseudoOp.from_local(LocalOp.identity(ring))
                     if i == j else PseudoOp.zero(ring)
                     for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        ring = entries[0].ring
        n = len(entries)
        return cls([[PseudoOp.from_expr(entries[i]) if i == j
                     else PseudoOp.zero(ring)
                     for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (len(self.grid), len(self.grid[0]))

    @property
    def is_closed(self):
        return all(e.is_closed for row in self.grid for e in row)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return MatrixOp([[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.grid, other.grid)])

    def __neg__(self):
        return MatrixOp([[-e for e in row] for row in self.grid])

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, factor):
        return MatrixOp([[e.scaled(factor) for e in row]
                         for row in self.grid])

    def compose(self, other, registry=None):
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
                    acc = acc + a.compose(b, registry)
                row.append(acc)
            out.append(row)
        return MatrixOp(out)

    def adjoint(self, registry=None):
        n, m = self.shape
        return MatrixOp([[self.grid[i][j].adjoint(registry)
                          for i in range(n)] for j in range(m)])

    def apply(self, vector, store=None):
        n, m = self.shape
        if len(vector) != m:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(n):
            acc = vector[0].ring.zero()
            for k in range(m):
                if self.grid[i][k].is_zero:
                    continue
                acc = acc + self.grid[i][k].apply(vector[k], store)
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
    """Registered invertible operators.

    Registration records the operator (for word cancellation and
    auxiliary relations) and its adjoint sign, so that inv[A]
    transposes consistently."""

    def __init__(self):
        self._inverses = {}

    def register_invertible(self, name, op, adjoint_sign):
        if adjoint_sign not in (1, -1):
            raise ValueError("adjoint sign must be +1 or -1")
        if op.adjoint() != op.scaled(adjoint_sign):
            raise ValueError("operator %s does not satisfy the declared "
                             "adjoint sign" % (name,))
        self._inverses[name] = (op, adjoint_sign)

    def invertible(self, name):
        try:
            return self._inverses[name]
        except KeyError:
            raise UnknownOperator(name) from None

    def names(self):
        return sorted(self._inverses)


def solve_e_image(arg, dep_order_key=None):
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
        items = sorted(residual.terms.items(),
                       key=lambda kv: (max((k for (_d, k), _e in kv[0][0]),
                                           default=-1), kv[0]))
        (vk, pk), coeff = items[-1]
        order = max((k for (_d, k), _e in vk), default=-1)
        if order < 2:
            raise NotIntegrable("no second-order jet left to peel")
        target = max(((d, k) for (d, k), _e in vk if k == order))
        m = dict(vk)
        if m[target] != 1:
            raise NotIntegrable("top coordinate enters nonlinearly")
        del m[target]
        down = (target[0], target[1] - 2)
        m[down] = m.get(down, 0) + 1
        if m[down] == 0:
            raise NotIntegrable("peel candidate cancels the lowered factor")
        # both derivations must hit the lowered factor, so its final
        # exponent divides the recovered coefficient
        piece = JetExpr(ring, {(tuple(sorted(m.items())), pk):
                               coeff / m[down]})
        p = p + piece
        residual = residual - (total_derivative(total_derivative(piece))
                               - piece)
    raise NotIntegrable("third-order solve did not settle")


class NonlocalStore:
    """Resolution of formal antiderivatives and registered inverses.

    Auxiliary dependents come from a fixed pre-extended pool so the
    ring never changes mid-check.  A dinv argument is reduced, then
    integrated exactly when possible, then matched against existing
    auxiliaries: as a parameter-monomial multiple of one prior core,
    else as a rational combination of prior cores with an exact
    remainder, found by solving its signature in an ``Echelon`` of
    the prior cores' signatures (each computed once, at allocation).
    Only genuinely new kernels allocate a fresh dependent, with its
    defining relation appended to the relation set.  Both sides of an
    identity therefore see identical nonlocal symbols."""

    DINV_POOL = 16
    INV_POOL = 6

    def __init__(self, base_ring, relations=None, registry=None,
                 extra_dependents=()):
        pool = tuple("rho%d" % i for i in range(1, self.DINV_POOL + 1))
        pool += tuple("chi%d" % i for i in range(1, self.INV_POOL + 1))
        self.ring = base_ring.extend(tuple(extra_dependents) + pool)
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
        self._inv_seen = {}
        self._inv_prior = {}         # name -> (Echelon of units, images)

    def resolve_dinv(self, arg):
        """A jet expression F with D(F) = arg modulo the relation set,
        possibly through auxiliary dependents."""
        core = self.relations.reduce(promote(arg, self.ring)
                                     if arg.ring != self.ring else arg)
        if core.is_zero:
            return self.ring.zero()
        try:
            return antiderivative(core)
        except NotIntegrable:
            pass
        lead = min(core.terms.items())
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
            mu = JetExpr(self.ring, {key: val / valj})
            if core == mu * cj:
                return mu * self.ring.coord(name)
        return None

    def _affine_match(self, core, signature):
        """The core as a rational combination of prior cores plus an
        exact derivative, found by matching signatures."""
        sol = self._dinv_span.solve(signature)
        if not sol:     # outside the span (None), or no prior core ([])
            return None
        remainder = core
        for alpha, (_name, cj, _lead) in zip(sol, self._dinv_cores):
            if alpha:
                remainder = remainder - alpha * cj
        try:
            extra = antiderivative(remainder)
        except NotIntegrable:
            return None
        out = extra
        for alpha, (name, _cj, _lead) in zip(sol, self._dinv_cores):
            if alpha:
                out = out + alpha * self.ring.coord(name)
        return out

    def resolve_inv(self, name, arg):
        """The image of a registered inverse on arg: an exact solve when
        available, otherwise an auxiliary dependent constrained by the
        forward operator."""
        if self.registry is None:
            raise UnknownOperator("no registry attached to the store")
        op, _sign = self.registry.invertible(name)
        core = self.relations.reduce(promote(arg, self.ring)
                                     if arg.ring != self.ring else arg)
        if core.is_zero:
            return self.ring.zero()
        lead, unit = _normalize_lead(core)
        seen = self._inv_seen.get((name, unit.key()))
        if seen is not None:
            return lead * seen
        combo = self._inv_affine(name, unit)
        if combo is not None:
            return lead * combo
        if name == "E":
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
        self._inv_seen[(name, unit.key())] = image
        span, images = self._inv_prior.setdefault(name, (Echelon(), []))
        span.insert(unit.terms)
        images.append(image)

    def _inv_affine(self, name, unit):
        """Linearity of a registered inverse: match the argument as an
        exact rational combination of previously resolved ones."""
        span, images = self._inv_prior.get(name, (Echelon(), []))
        sol = span.solve(unit.terms)
        if sol is None:
            return None
        out = self.ring.zero()
        for alpha, sym in zip(sol, images):
            if alpha:
                out = out + alpha * sym
        return out

    def reduce(self, e):
        return self.relations.reduce(e)

    def used_names(self, exprs):
        """Auxiliary names that survive into the given expressions."""
        used = set()
        for e in exprs:
            for d, _k in coords_of(e):
                used.add(d)
        return [name for name, _kind, _core in self.allocated if name in used]


def _signature(core):
    """What a dinv core keeps modulo exact derivatives: its Euler image
    for each dependent it contains, keyed (dependent, term), and its
    jet-free terms, which escape the Euler probe, keyed (None, term)."""
    out = {}
    for d in dict.fromkeys(d for d, _k in coords_of(core)):
        for key, val in euler_derivative(core, d).terms.items():
            out[(d, key)] = val
    for (vk, pk), val in core.terms.items():
        if not vk:
            out[(None, pk)] = val
    return out


def _promote_relations(relations, ring):
    out = RelationSet(ring)
    for rule in relations:
        out = out.with_rule(rule.dep, rule.order, promote(rule.rhs, ring))
    return out


class Echelon:
    """Sparse rational vectors (dicts key -> Fraction), inserted one at
    a time and kept in echelon form; each row remembers its combination
    of the inserted vectors.  A vector dependent on earlier ones adds no
    row, so ``solve`` reproduces Gaussian elimination with the inserted
    vectors as columns: the independent prefix are the pivots and each
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


class OpVerdict:
    """Outcome of one operator-identity verification."""

    __slots__ = ("equal", "decided_by", "residuals", "numeric_points",
                 "notes")

    def __init__(self, equal, decided_by, residuals, numeric_points, notes):
        self.equal = equal
        self.decided_by = decided_by
        self.residuals = residuals
        self.numeric_points = numeric_points
        self.notes = notes


def _as_matrix(op):
    if isinstance(op, MatrixOp):
        return op
    if isinstance(op, PseudoOp):
        return MatrixOp([[op]])
    if isinstance(op, LocalOp):
        return MatrixOp([[PseudoOp.from_local(op)]])
    raise TypeError("expected an operator")


def verify_operator_identity(lhs, rhs, registry=None, relations=None,
                             rng=None, n_points=5, order_cap=None):
    """Three-rung equality ladder for (matrix) operators.

    Rung 1 compares weakly nonlocal normal forms when both sides are
    word-free.  Rung 2 applies both sides to one shared vector of fresh
    generic dependents, resolving nonlocal pieces through a single
    store, and compares reductions modulo the accumulated relations.
    Rung 3 confirms the rung-2 residuals numerically at n_points seeded
    rational assignments.  The verdict records which rung decided."""
    lhs = _as_matrix(lhs)
    rhs = _as_matrix(rhs)
    if lhs.shape != rhs.shape:
        raise ValueError("shape mismatch")
    notes = []
    if lhs.is_closed and rhs.is_closed:
        if lhs == rhs:
            return OpVerdict(True, "normal-form", [], 0, notes)
        notes.append("normal forms differ; escalated to a test vector")
    n, m = lhs.shape
    test_deps = tuple("tv%d" % (k + 1) for k in range(m))
    store = NonlocalStore(lhs.ring, relations=relations, registry=registry,
                          extra_dependents=test_deps)
    vec = [store.ring.coord(d) for d in test_deps]
    left = _as_matrix(lhs.promote(store.ring)).apply(vec, store)
    right = _as_matrix(rhs.promote(store.ring)).apply(vec, store)
    raw = [left[i] - right[i] for i in range(n)]
    residuals = []
    for i in range(n):
        diff = store.reduce(raw[i])
        if order_cap is not None and max_order(diff) > order_cap:
            raise NotReducible("residual order exceeds the cap")
        if not diff.is_zero:
            if diff.is_rational:
                notes.append("component %d residual is a bare rational; "
                             "antiderivative representatives may differ"
                             % i)
            residuals.append((i, diff))
    rng = rng if rng is not None else random.Random(0)
    points = 0
    if residuals:
        # witness that each reduced residual is a nonzero function
        for _i, diff in residuals:
            witnessed = False
            for _ in range(5 * n_points):
                try:
                    a = random_assignment(rng, coords_of(diff),
                                          params_of(diff))
                    val = random_eval(diff, a)
                except EvalDivisionByZero:
                    continue
                points += 1
                if val != 0:
                    witnessed = True
                    break
            if not witnessed:
                notes.append("no numeric witness found for a symbolically "
                             "nonzero residual")
    else:
        # evaluate the unreduced difference at relation-consistent points
        for _ in range(n_points):
            try:
                a = _consistent_assignment(store, raw, rng)
            except EvalDivisionByZero:
                continue
            for e in raw:
                if random_eval(e, a) != 0:
                    raise AssertionError("numeric oracle contradicts a "
                                         "symbolic zero")
            points += 1
    return OpVerdict(not residuals, "test-vector",
                     [(i, to_text(d)) for i, d in residuals], points, notes)


def _consistent_assignment(store, exprs, rng):
    """A random rational point respecting the store's relations: free
    coordinates are drawn, constrained ones are evaluated from their
    reduced defining jets."""
    coords = set()
    params = set()
    for e in exprs:
        coords.update(coords_of(e))
        params.update(params_of(e))
    constrained = {}
    free = set()
    for d, k in coords:
        rule = store.relations.rule_for(d)
        if rule is not None and k >= rule.order:
            rj = store.relations.reduce(rule.jet(k - rule.order))
            constrained[(d, k)] = rj
            free.update(coords_of(rj))
            params.update(params_of(rj))
        else:
            free.add((d, k))
    base = random_assignment(rng, sorted(free), sorted(params))
    values = dict(base.values)
    for (d, k), rj in sorted(constrained.items()):
        values[(d, k)] = random_eval(rj, base)
    return Assignment(values, base.params)


# -- serialization -------------------------------------------------------

def serialize_pseudo(op):
    parts = []
    for k in sorted(op.local.coeffs):
        parts.append("(%s)*d^%d" % (to_text(op.local.coeffs[k]), k))
    for p, q in op.tail:
        parts.append("(%s)*dinv*(%s)" % (to_text(p), to_text(q)))
    for c, f in op.words:
        toks = ["(%s)" % c]
        for kind, payload in f:
            if kind == "local":
                toks.append("{%s}" % serialize_pseudo(
                    PseudoOp.from_local(payload)))
            else:
                toks.append("inv[%s]" % payload)
        parts.append("*".join(toks))
    return " + ".join(parts) if parts else "0"


def serialize_matrix(mat):
    return "[%s]" % ", ".join(
        "[%s]" % "; ".join(serialize_pseudo(e) for e in row)
        for row in mat.grid)


def _split_top(text, sep):
    out = []
    depth = 0
    cur = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            out.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(ch)
        i += 1
    out.append("".join(cur))
    return out


def _take_group(text, open_ch, close_ch):
    if not text.startswith(open_ch):
        raise ValueError("expected %r in %r" % (open_ch, text))
    depth = 0
    for i, ch in enumerate(text):
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1:]
    raise ValueError("unbalanced %r in %r" % (open_ch, text))


def parse_pseudo(text, ring):
    text = text.strip()
    if text == "0":
        return PseudoOp.zero(ring)
    local = LocalOp(ring, {})
    tails = []
    words = []
    for term in _split_top(text, " + "):
        term = term.strip()
        toks = _split_top(term, "*")
        head, rest = _take_group(toks[0], "(", ")")
        if rest:
            raise ValueError("bad factor %r" % (toks[0],))
        if len(toks) == 2 and toks[1].startswith("d^"):
            k = int(toks[1][2:])
            local = local + LocalOp(ring, {k: parse(head, ring)})
        elif len(toks) == 3 and toks[1] == "dinv":
            q_txt, rest = _take_group(toks[2], "(", ")")
            if rest:
                raise ValueError("bad tail factor %r" % (toks[2],))
            tails.append((parse(head, ring), parse(q_txt, ring)))
        else:
            coeff = Fraction(head)
            factors = []
            for tok in toks[1:]:
                if tok.startswith("{"):
                    inner, rest = _take_group(tok, "{", "}")
                    if rest:
                        raise ValueError("bad word factor %r" % (tok,))
                    sub = parse_pseudo(inner, ring)
                    if sub.tail or sub.words:
                        raise ValueError("word factors must be local")
                    factors.append(("local", sub.local))
                elif tok.startswith("inv[") and tok.endswith("]"):
                    factors.append(("inv", tok[4:-1]))
                else:
                    raise ValueError("bad word factor %r" % (tok,))
            words.append((coeff, tuple(factors)))
    return PseudoOp(ring, local, tails, words)


def parse_matrix(text, ring):
    text = text.strip()
    body, rest = _take_group(text, "[", "]")
    if rest:
        raise ValueError("trailing text after matrix")
    rows = []
    for row_txt in _split_top(body, ", "):
        row_body, rest = _take_group(row_txt.strip(), "[", "]")
        if rest:
            raise ValueError("trailing text after row")
        rows.append([parse_pseudo(e, ring)
                     for e in _split_top(row_body, "; ")])
    return MatrixOp(rows)
