"""The bulk coefficient-sequence kernels against the element-wise defaults.

``Ring.seq_mul``/``seq_add``/``seq_sub``/``seq_lincomb`` are the
counted reference: one ``mul`` per coefficient pair of the schoolbook leaf,
and per entry of a row with a nonzero scalar.  ``GF`` and ``PolyRing``
override them with packed-integer and list-wise arithmetic; their results
must be identical, list for list, and their ``mul_count`` must grow by
exactly as much.
"""

import random

import pytest

from polyquo import (
    GF,
    LEFT,
    RIGHT,
    DensePoly,
    IterationTrace,
    PolyRing,
    mul_mod,
    mul_oriented,
    quo,
    shinv,
)

from helpers import ElementwiseGF, ElementwisePolyRing

# GF(2^31 - 1) needs slots wider than a machine word once min(len a, len b) > 4
PRIMES = (2, 3, 127, 2**31 - 1)
LENGTHS = range(41)
# lengths for which every truncation n in 0..len a + len b is checked
TRUNCATION_LENGTHS = (0, 1, 2, 3, 4, 5, 7, 12, 16, 17, 25, 40)


def operand(rng, p, length):
    """Coefficients in [0, p) with many zeros; one operand in eight is all zero."""
    if rng.random() < 0.125:
        return [0] * length
    return [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(length)]


def counted(ring, fn, *args):
    before = ring.mul_count
    result = fn(*args)
    return result, ring.mul_count - before


def assert_same_kernel(ring, ref, name, *args):
    got = counted(ring, getattr(ring, name), *args)
    expected = counted(ref, getattr(ref, name), *args)
    assert got == expected, (name, args)
    assert type(got[0]) is list


@pytest.mark.parametrize("p", PRIMES)
class TestAgainstElementwise:
    def test_full_products(self, p):
        rng = random.Random(p)
        ring, ref = GF(p), ElementwiseGF(p)
        for la in LENGTHS:
            for lb in LENGTHS:
                a, b = operand(rng, p, la), operand(rng, p, lb)
                assert_same_kernel(ring, ref, "seq_mul", a, b)
                assert_same_kernel(ring, ref, "seq_mul", tuple(a), tuple(b), None)

    def test_every_truncation(self, p):
        rng = random.Random(p + 1)
        ring, ref = GF(p), ElementwiseGF(p)
        for la in TRUNCATION_LENGTHS:
            for lb in TRUNCATION_LENGTHS:
                a, b = operand(rng, p, la), operand(rng, p, lb)
                for n in range(la + lb + 1):
                    assert_same_kernel(ring, ref, "seq_mul", a, b, n)

    def test_random_truncations_of_every_length_pair(self, p):
        rng = random.Random(p + 2)
        ring, ref = GF(p), ElementwiseGF(p)
        for la in LENGTHS:
            for lb in LENGTHS:
                a, b = operand(rng, p, la), operand(rng, p, lb)
                for n in rng.sample(range(la + lb + 1), min(3, la + lb + 1)):
                    assert_same_kernel(ring, ref, "seq_mul", a, b, n)

    def test_add_sub_neg(self, p):
        rng = random.Random(p + 3)
        ring, ref = GF(p), ElementwiseGF(p)
        for la in LENGTHS:
            for lb in LENGTHS:
                a, b = operand(rng, p, la), operand(rng, p, lb)
                assert_same_kernel(ring, ref, "seq_add", a, b)
                assert_same_kernel(ring, ref, "seq_sub", a, b)
            assert_same_kernel(ring, ref, "seq_sub", (), a)


def dense_pair(rng, p, la, lb):
    ring, ref = GF(p), ElementwiseGF(p)
    a, b = operand(rng, p, la), operand(rng, p, lb)
    return (DensePoly(ring, a), DensePoly(ring, b)), (DensePoly(ref, a), DensePoly(ref, b))


def same_poly(got, expected):
    return got[0].coeffs == expected[0].coeffs and got[1] == expected[1]


# Karatsuba-size shapes: balanced, odd, and one operand under half the other
KARATSUBA_SHAPES = ((17, 17), (18, 40), (33, 64), (100, 100), (257, 129), (300, 20), (20, 300))


@pytest.mark.parametrize("p", PRIMES)
class TestKaratsubaAgainstElementwise:
    def test_products_both_orientations(self, p):
        rng = random.Random(p + 4)
        for la, lb in KARATSUBA_SHAPES:
            (u, v), (ru, rv) = dense_pair(rng, p, la, lb)
            for side in (LEFT, RIGHT):
                got = counted(u.ring, mul_oriented, u, v, side)
                expected = counted(ru.ring, mul_oriented, ru, rv, side)
                assert same_poly(got, expected), (la, lb, side)

    def test_mul_mod_both_orientations(self, p):
        rng = random.Random(p + 5)
        for la, lb in KARATSUBA_SHAPES:
            (u, v), (ru, rv) = dense_pair(rng, p, la, lb)
            for n in (0, 1, 16, 17, min(la, lb), max(la, lb), la + lb - 2, la + lb + 5):
                for side in (LEFT, RIGHT):
                    got = counted(u.ring, mul_mod, u, v, n, side)
                    expected = counted(ru.ring, mul_mod, ru, rv, n, side)
                    assert same_poly(got, expected), (la, lb, n, side)


# shapes well above the threshold, one operand just past a power of two, and
# one operand just above the threshold against a long one
WHOLE_SHAPES = ((1025, 513), (513, 1025), (1024, 1024), (17, 2000), (2000, 17))
# shapes for operands whose halves cancel at Karatsuba's first split
CANCELLING_SHAPES = ((17, 17), (34, 34), (40, 33), (33, 40), (64, 200), (200, 64), (257, 129))


def cancelling_operand(rng, p, length, m):
    """operand() with a[m + i] = p - a[i] unless i % 5 == 4, so a[:m] + a[m:] mostly vanishes."""
    a = operand(rng, p, length)
    for i in range(m, length):
        if (i - m) % 5 != 4:
            a[i] = -a[i - m] % p
    return a


@pytest.mark.parametrize("p", (2, 127, 2**31 - 1))
class TestWholeProductsAgainstElementwise:
    """GF's whole packed products, counted by the walk, against the element-wise recursion."""

    def test_large_products_and_mul_mod(self, p):
        rng = random.Random(p + 10)
        for la, lb in WHOLE_SHAPES:
            (u, v), (ru, rv) = dense_pair(rng, p, la, lb)
            got = counted(u.ring, mul_oriented, u, v, RIGHT)
            expected = counted(ru.ring, mul_oriented, ru, rv, RIGHT)
            assert same_poly(got, expected), (la, lb)
            n = (la + lb) // 2
            got = counted(u.ring, mul_mod, u, v, n, LEFT)
            expected = counted(ru.ring, mul_mod, ru, rv, n, LEFT)
            assert same_poly(got, expected), (la, lb, n)

    def test_cancelling_halves(self, p):
        rng = random.Random(p + 11)
        ring, ref = GF(p), ElementwiseGF(p)
        for la, lb in CANCELLING_SHAPES:
            m = max(la, lb) // 2
            a, b = cancelling_operand(rng, p, la, m), cancelling_operand(rng, p, lb, m)
            for c in (a, b):
                sums = [(x + y) % p for x, y in zip(c[:m], c[m:])]
                assert len(sums) == 0 or sums.count(0) > len(sums) // 2, (la, lb)
            u, v = DensePoly(ring, a), DensePoly(ring, b)
            ru, rv = DensePoly(ref, a), DensePoly(ref, b)
            for side in (LEFT, RIGHT):
                got = counted(ring, mul_oriented, u, v, side)
                expected = counted(ref, mul_oriented, ru, rv, side)
                assert same_poly(got, expected), (la, lb, side)
                for n in (m, la + lb - 2):
                    got = counted(ring, mul_mod, u, v, n, side)
                    expected = counted(ref, mul_mod, ru, rv, n, side)
                    assert same_poly(got, expected), (la, lb, n, side)


@pytest.mark.parametrize("p", (7, 127))
def test_quotients_and_traces_match_elementwise(p):
    rng = random.Random(p + 6)
    for dv, du in ((5, 20), (40, 90), (70, 150)):
        ring, ref = GF(p), ElementwiseGF(p)
        coeffs_v = [rng.randrange(p) for _ in range(dv)] + [rng.randrange(1, p)]
        coeffs_u = [rng.randrange(p) for _ in range(du)] + [rng.randrange(1, p)]
        for variant in (1, 2, 3):
            for side in (LEFT, RIGHT):
                results = []
                for r in (ring, ref):
                    trace = IterationTrace()
                    before = r.mul_count
                    q, rem = quo(DensePoly(r, coeffs_u), DensePoly(r, coeffs_v), side, variant, trace)
                    w = shinv(DensePoly(r, coeffs_v), du + 3, variant, side)
                    records = [(x.accurate, x.prec, x.grow, x.divisor_drop, x.w.coeffs)
                               for x in trace.records]
                    results.append((q.coeffs, rem.coeffs, w.coeffs, records, r.mul_count - before))
                assert results[0] == results[1], (dv, du, variant, side)


def poly_entry(ring, rng, max_len):
    """A GF(p)[y] element of length 0..max_len; operand() makes a quarter of them zero."""
    return ring.from_coeffs(operand(rng, ring.base.p, rng.randrange(max_len + 1)))


def poly_row(ring, rng, length, max_len):
    return [poly_entry(ring, rng, max_len) for _ in range(length)]


@pytest.mark.parametrize("p", PRIMES)
class TestPolyRingAgainstElementwise:
    """PolyRing's packed linear combination and list-wise add/sub against Ring's loops.

    Over GF(2**31 - 1) every slot is wider than 8 bytes once two scalars are
    nonzero, so both packing paths are covered.
    """

    @staticmethod
    def rings(p):
        return PolyRing(GF(p)), ElementwisePolyRing(GF(p))

    def test_random_linear_combinations(self, p):
        rng = random.Random(p + 7)
        ring, ref = self.rings(p)
        for count in range(8):
            for _ in range(20):
                scalars = [poly_entry(ring, rng, 6) for _ in range(count)]
                rows = [poly_row(ring, rng, rng.randrange(10), 9) for _ in range(count)]
                assert_same_kernel(ring, ref, "seq_lincomb", scalars, rows)

    def test_degenerate_linear_combinations(self, p):
        rng = random.Random(p + 8)
        ring, ref = self.rings(p)
        c = ring.from_coeffs([1, 2, 3])
        full = poly_row(ring, rng, 5, 4)
        cases = (
            ([], []),
            ([c], []),
            ([c], [[]]),
            ([c], [full]),
            ([()], [full]),
            ([(), (), ()], [full, full, full]),
            ([c, c], [[(), (), ()], [()]]),
            ([c, (), c], [[(), ()], full, [(), (), (), ()]]),
            ([c, (1,)], [[(), (5,), ()], full[:2]]),
        )
        # every coefficient p - 1: for some length, one product fits a slot
        # width that the sum of eight would overflow
        cases += tuple(([(p - 1,) * m] * 8, [[(p - 1,) * m] * 3] * 8) for m in (1, 4, 40))
        for scalars, rows in cases:
            assert_same_kernel(ring, ref, "seq_lincomb", scalars, rows)

    def test_add_sub(self, p):
        rng = random.Random(p + 9)
        ring, ref = self.rings(p)
        for la in range(12):
            for lb in range(12):
                a, b = poly_row(ring, rng, la, 6), poly_row(ring, rng, lb, 6)
                assert_same_kernel(ring, ref, "seq_add", a, b)
                assert_same_kernel(ring, ref, "seq_sub", a, b)
                assert_same_kernel(ring, ref, "seq_sub", a, a)
