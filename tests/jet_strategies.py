"""Hypothesis strategies for small jet expressions, and the check of
their canonical representation, shared by the kernel tests, the
operator tests and the sympy oracle."""

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from jetverify.jetalg import RingContext

# u and v carry the generated expressions; phi is left free for test
# functions such as the argument an operator adjoint is applied to
RING = RingContext("x", ("u", "v", "phi"), ("lam",))

# nonzero rationals with small denominators, integral ones included
COEFFS = st.fractions(min_value=-4, max_value=4,
                      max_denominator=3).filter(bool)


@st.composite
def exprs(draw, ring=RING, deps=("u", "v"), max_order=3, negative=True,
          max_terms=4, max_factors=3):
    """A sum of up to max_terms rational multiples of products of up to
    max_factors jet powers, with a parameter factor on some terms;
    negative exponents only when negative is set."""
    exponents = (1, 2, -1, -2) if negative else (1, 2)
    out = ring.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = ring.const(draw(COEFFS))
        for _ in range(draw(st.integers(0, max_factors))):
            jet = ring.coord(draw(st.sampled_from(deps)),
                             draw(st.integers(0, max_order)))
            term = term * jet ** draw(st.sampled_from(exponents))
        if ring.parameters and draw(st.booleans()):
            term = term * ring.param(ring.parameters[0],
                                     draw(st.sampled_from((-1, 1, 2))))
        out = out + term
    return out


def monomials(ring=RING, deps=("u", "v")):
    """A nonzero single-term expression, which can be inverted."""
    return exprs(ring, deps, max_terms=1).filter(bool)


def canonical(e):
    """Nonzero int numerators over a positive int denominator sharing
    no factor with all of them, and every coefficient the accessor
    yields an int when integral, else a Fraction with denominator > 1."""
    nums = list(e.nums.values())
    return (type(e.den) is int and e.den >= 1
            and all(type(n) is int and n for n in nums)
            and gcd(e.den, *nums) == 1
            and all(type(c) is int
                    or (type(c) is Fraction and c.denominator > 1)
                    for _key, c in e.coeff_items()))
