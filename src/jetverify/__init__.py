"""Exact symbolic verification of integrable-system identities.

The package re-derives and checks algebraic identities of an
integrable-PDE hierarchy (zero-curvature conditions, conservation laws,
reciprocal transformations, operator factorizations, Hamiltonian
structure transport) over an exact-rational jet-space differential
algebra.  No floating point is ever used.  A row is decided either by a
normal-form equality or by applying both sides of an operator identity
to test vectors through one shared nonlocal store.  A seeded rational
evaluation only annotates failing and erratum rows; it never decides
one.
"""

__version__ = "0.1.0"
