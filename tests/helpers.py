"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's computation paths: the
reference multiply accumulates into a dict, the reference division eliminates
top terms with explicit monomial products, and the field inverse uses the
extended Euclidean algorithm.
"""

from polyquo import (
    GF,
    RIGHT,
    DensePoly,
    MatrixRing,
    NotInvertible,
    OrePair,
    PolyRing,
    Ring,
    SkewPolyRing,
)


def standard_rings():
    return [GF(7), GF(127), MatrixRing(2, GF(127)), MatrixRing(3, GF(127))]


class ElementwiseGF(GF):
    """GF(p) running the element-wise Ring kernels, the counted reference for GF's own.

    Without ``seq_product`` its Karatsuba products recurse down to the
    element-wise leaves, so they check GF's whole products and their counts.
    """

    seq_mul = Ring.seq_mul
    seq_add = Ring.seq_add
    seq_sub = Ring.seq_sub
    seq_product = None


class ElementwisePolyRing(PolyRing):
    """GF(p)[y] running the element-wise Ring kernels, the counted reference for PolyRing's own."""

    seq_lincomb = Ring.seq_lincomb
    seq_add = Ring.seq_add
    seq_sub = Ring.seq_sub


def elementwise_lodo(p):
    """make_lodo(p) over ElementwisePolyRing: the same operators, multiplied element-wise."""
    ring = ElementwisePolyRing(GF(p))
    return SkewPolyRing(ring, OrePair(None, ring.diff), "D")


def rand_unit(ring, rng):
    while True:
        c = ring.random_element(rng)
        try:
            ring.inv(c)
        except NotInvertible:
            continue
        return c


def rand_nonzero(ring, rng):
    while True:
        c = ring.random_element(rng)
        if not ring.is_zero(c):
            return c


def rand_poly(ring, rng, degree, unit_lead=False):
    """Random polynomial of exact degree (degree < 0 gives the zero polynomial)."""
    if degree < 0:
        return DensePoly.zero(ring)
    coeffs = [ring.random_element(rng) for _ in range(degree)]
    lead = rand_unit(ring, rng) if unit_lead else rand_nonzero(ring, rng)
    return DensePoly(ring, coeffs + [lead])


def egcd_inverse(a, p):
    """Inverse mod p by the extended Euclidean algorithm."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1, "not invertible"
    return old_s % p


def oracle_mul(u, v):
    """Schoolbook product by dict accumulation, written order preserved."""
    ring = u.ring
    acc = {}
    for i, a in enumerate(u.coeffs):
        for j, b in enumerate(v.coeffs):
            t = i + j
            prod = ring.mul(a, b)
            acc[t] = ring.add(acc[t], prod) if t in acc else prod
    if not acc:
        return DensePoly.zero(ring)
    top = max(acc)
    return DensePoly(ring, [acc.get(t, ring.zero) for t in range(top + 1)])


def oracle_div(u, v, orientation):
    """Reference long division: repeatedly kill the top term with a monomial."""
    ring = u.ring
    ivk = ring.inv(v.lc)
    q = DensePoly.zero(ring)
    r = u
    while not r.is_zero and r.degree >= v.degree:
        if orientation is RIGHT:
            c = ring.mul(r.lc, ivk)
        else:
            c = ring.mul(ivk, r.lc)
        t = DensePoly.monomial(ring, c, r.degree - v.degree)
        q = q + t
        r = r - (oracle_mul(t, v) if orientation is RIGHT else oracle_mul(v, t))
    return q, r


def check_division(u, v, q, r, orientation):
    """The division identity and remainder degree bound, from scratch."""
    prod = oracle_mul(q, v) if orientation is RIGHT else oracle_mul(v, q)
    if prod + r != u:
        return False
    return r.is_zero or r.degree < v.degree
