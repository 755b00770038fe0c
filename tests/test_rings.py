import random

import pytest

from polyquo import GF, DimensionMismatch, MatrixRing, NotInvertible, PolyRing

from helpers import egcd_inverse, standard_rings


class TestGF:
    def test_inv_of_one_is_one(self):
        assert GF(127).inv(1) == 1

    def test_inv_gf7_exhaustive_search_oracle(self):
        F = GF(7)
        for a in range(1, 7):
            expected = next(b for b in range(1, 7) if a * b % 7 == 1)
            assert F.inv(a) == expected
        assert F.inv(3) == 5

    def test_inv_matches_extended_euclid(self):
        F = GF(127)
        for a in range(1, 127):
            assert F.inv(a) == egcd_inverse(a, 127)
        assert F.inv(2) == 64

    def test_rejects_non_prime_or_large_modulus(self):
        for p in (0, 1, 4, 9, 91, 561, 2**31 - 2, 2**31 + 11):
            with pytest.raises(ValueError):
                GF(p)
        assert GF(2).inv(1) == 1
        assert GF(2**31 - 1).inv(2) == 2**30

    def test_inv_zero_raises_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GF(7).inv(0)
        with pytest.raises(NotInvertible):
            GF(127).inv(254)

    def test_closure_and_axioms(self):
        rng = random.Random(1)
        for p in (7, 127):
            F = GF(p)
            for _ in range(200):
                a, b, c = (F.random_element(rng) for _ in range(3))
                assert 0 <= F.add(a, b) < p
                assert 0 <= F.mul(a, b) < p
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.neg(a)) == F.zero
                if a != 0:
                    assert F.mul(a, F.inv(a)) == F.one
                    assert F.mul(F.inv(a), a) == F.one

    def test_mul_count_is_monotone(self):
        F = GF(127)
        before = F.mul_count
        F.mul(3, 4)
        F.mul(5, 6)
        assert F.mul_count == before + 2


class TestMatrixRing:
    def test_identity_is_two_sided(self):
        rng = random.Random(2)
        for n in (1, 2, 3, 4):
            M = MatrixRing(n, GF(127))
            for _ in range(20):
                a = M.random_element(rng)
                assert M.mul(M.one, a) == a
                assert M.mul(a, M.one) == a

    def test_mul_by_zero(self):
        M = MatrixRing(3, GF(127))
        rng = random.Random(3)
        a = M.random_element(rng)
        assert M.mul(a, M.zero) == M.zero
        assert M.mul(M.zero, a) == M.zero

    def test_hand_product_gf7(self):
        M = MatrixRing(2, GF(7))
        a = M.from_rows([[1, 1], [0, 1]])
        b = M.from_rows([[1, 0], [1, 1]])
        assert M.mul(a, b) == M.from_rows([[2, 1], [1, 1]])

    def test_dimension_mismatch(self):
        M = MatrixRing(2, GF(7))
        with pytest.raises(DimensionMismatch):
            M.mul(M.one, ((1,),))

    def test_mul_count_grows_by_n_cubed(self):
        M = MatrixRing(3, GF(127))
        rng = random.Random(4)
        a, b = M.random_element(rng), M.random_element(rng)
        before = M.mul_count
        M.mul(a, b)
        assert M.mul_count == before + 27

    def test_inv_identity(self):
        M = MatrixRing(3, GF(127))
        assert M.inv(M.one) == M.one

    def test_inv_scalar_matrix(self):
        M = MatrixRing(3, GF(127))
        two = M.from_int(2)
        assert M.inv(two) == M.from_int(64)

    def test_inv_singular_raises(self):
        M = MatrixRing(2, GF(7))
        with pytest.raises(NotInvertible):
            M.inv(M.from_rows([[1, 1], [1, 1]]))

    def test_inv_round_trips(self):
        rng = random.Random(5)
        for n in (2, 3):
            M = MatrixRing(n, GF(127))
            for _ in range(40):
                a = M.random_invertible(rng)
                ia = M.inv(a)
                assert M.mul(a, ia) == M.one
                assert M.mul(ia, a) == M.one
                assert M.inv(ia) == a

    def test_axioms_random_triples(self):
        rng = random.Random(6)
        for n in (2, 3, 4):
            for p in (7, 127):
                M = MatrixRing(n, GF(p))
                for _ in range(40):
                    a, b, c = (M.random_element(rng) for _ in range(3))
                    assert M.mul(M.mul(a, b), c) == M.mul(a, M.mul(b, c))
                    assert M.mul(a, M.add(b, c)) == M.add(M.mul(a, b), M.mul(a, c))
                    assert M.add(a, M.neg(a)) == M.zero

    def test_noncommutativity_witness_exists(self):
        # the test bed is genuinely non-commutative for n >= 2
        rng = random.Random(7)
        for n in (2, 3):
            M = MatrixRing(n, GF(127))
            assert not M.is_commutative
            assert any(
                M.mul(a, b) != M.mul(b, a)
                for a, b in (
                    (M.random_element(rng), M.random_element(rng)) for _ in range(50)
                )
            )

    def test_gf_is_commutative_flag(self):
        assert GF(127).is_commutative
        assert MatrixRing(1, GF(127)).is_commutative


class TestPolyRing:
    def test_arithmetic_and_normalization(self):
        R = PolyRing(GF(7), "y")
        a = R.from_coeffs([1, 2, 3])
        b = R.from_coeffs([6, 5, 4])
        assert R.add(a, b) == ()  # everything cancels mod 7
        assert R.mul(R.one, a) == a
        assert R.mul(a, R.zero) == ()

    def test_mul_commutative_and_known_product(self):
        R = PolyRing(GF(7), "y")
        a = R.from_coeffs([1, 3])  # 3y + 1
        b = R.from_coeffs([4, 2])  # 2y + 4
        assert R.mul(a, b) == R.from_coeffs([4, 0, 6])
        rng = random.Random(8)
        for _ in range(50):
            x = R.random_element(rng)
            y = R.random_element(rng)
            assert R.mul(x, y) == R.mul(y, x)

    def test_inv_units_only(self):
        R = PolyRing(GF(127), "y")
        assert R.inv((2,)) == (64,)
        with pytest.raises(NotInvertible):
            R.inv(R.from_coeffs([1, 1]))
        with pytest.raises(NotInvertible):
            R.inv(R.zero)

    def test_diff(self):
        R = PolyRing(GF(127), "y")
        assert R.diff(R.from_coeffs([0, 0, 0, 1])) == R.from_coeffs([0, 0, 3])
        assert R.diff(R.from_coeffs([5])) == ()

    def test_mul_count_counts_base_multiplications(self):
        R = PolyRing(GF(127), "y")
        before = R.mul_count
        R.mul(R.from_coeffs([1, 2, 3]), R.from_coeffs([4, 5]))
        assert R.mul_count == before + 6


def test_standard_rings_report_expected_commutativity():
    flags = [r.is_commutative for r in standard_rings()]
    assert flags == [True, True, False, False]


def test_per_worker_counters_merge_cleanly():
    # the documented concurrency pattern: one ring instance per worker,
    # counts merged afterwards
    import threading

    rings = [GF(127) for _ in range(4)]

    def work(ring):
        for i in range(500):
            ring.mul(i % 127, (i + 1) % 127)

    threads = [threading.Thread(target=work, args=(r,)) for r in rings]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(r.mul_count for r in rings) == 2000
