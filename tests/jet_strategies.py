"""Hypothesis strategies for small jet expressions, a seeded generator
of them for the property loops, and the check of their canonical
representation, shared by the kernel tests, the operator tests and the
sympy oracle."""

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from jetverify.jetalg import STRIDE, RingContext

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


def powers_sorted(powers, bound):
    """A power tuple of int generators in 0..bound - 1, strictly
    increasing, with nonzero int exponents."""
    gens = [g for g, _ex in powers]
    return (all(type(g) is int and 0 <= g < bound
                and type(ex) is int and ex for g, ex in powers)
            and all(a < b for a, b in zip(gens, gens[1:])))


def canonical(e):
    """Nonzero int numerators over a positive int denominator sharing
    no factor with all of them, every coefficient the accessor yields
    an int when integral, else a Fraction with denominator > 1, and
    every key made of strictly increasing int generators: a jet's
    generator d * STRIDE + k names a dependent of the ring, so its
    order k stays below STRIDE."""
    nums = list(e.nums.values())
    jets = len(e.ring.dependents) * STRIDE
    return (type(e.den) is int and e.den >= 1
            and all(type(n) is int and n for n in nums)
            and gcd(e.den, *nums) == 1
            and all(type(c) is int
                    or (type(c) is Fraction and c.denominator > 1)
                    for _key, c in e.coeff_items())
            and all(powers_sorted(vk, jets)
                    and powers_sorted(pk, len(e.ring.parameters))
                    for vk, pk in e.nums))
