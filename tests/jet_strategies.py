"""Hypothesis strategies for small jet expressions, shared by the kernel
tests and the sympy oracle."""

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
