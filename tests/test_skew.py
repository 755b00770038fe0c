import random

import pytest

from polyquo import (
    GF,
    LEFT,
    MatrixRing,
    RIGHT,
    NegativeLeftShift,
    NoConvergence,
    NotMonic,
    OrePair,
    PolyRing,
    SkewPolyRing,
    UnsupportedSigma,
    apply_operator,
    lshift,
    lshinv,
    make_lodo,
    rquo_via_lshinv,
    rshinv,
    shift,
    skew_classical_div,
    skew_mul,
    skew_pow,
)

from helpers import ElementwisePolyRing, elementwise_lodo

LODO = make_lodo(127)
R = LODO.ring  # GF(127)[y]


def c(*ints):
    """Coefficient-ring element from little-endian ints."""
    return R.from_coeffs(ints)


def op(*coeffs):
    """Operator from little-endian coefficient tuples (low power first)."""
    return LODO.poly([R.from_coeffs(list(x)) for x in coeffs])


def rand_coeff(rng, max_deg=3):
    return R.random_element(rng, max_deg)


def rand_op(rng, deg, max_cdeg=3, monic=False):
    coeffs = [rand_coeff(rng, max_cdeg) for _ in range(deg)]
    if monic:
        lead = R.one
    else:
        while True:
            lead = rand_coeff(rng, max_cdeg)
            if lead != R.zero:
                break
    return LODO.poly(coeffs + [lead])


def rand_unit_lead_op(rng, deg, max_cdeg=3):
    coeffs = [rand_coeff(rng, max_cdeg) for _ in range(deg)]
    lead = (rng.randrange(1, 127),)  # nonzero constant: a unit in GF(p)[y]
    return LODO.poly(coeffs + [lead])


class TestLodoConstruction:
    def test_derivative_of_cube(self):
        assert R.diff(c(0, 0, 0, 1)) == c(0, 0, 3)

    def test_derivative_of_constant(self):
        assert R.diff(c(42)) == R.zero

    def test_product_rule(self):
        rng = random.Random(50)
        for _ in range(100):
            r = rand_coeff(rng, 4)
            s = rand_coeff(rng, 4)
            lhs = R.diff(R.mul(r, s))
            rhs = R.add(R.mul(r, R.diff(s)), R.mul(R.diff(r), s))
            assert lhs == rhs

    def test_separately_built_contexts_are_one_ring(self):
        a, b = make_lodo(127), make_lodo(127)
        assert a.ore == b.ore and hash(a.ore) == hash(b.ore)
        assert a == b and hash(a) == hash(b)
        assert a.x() + b.x() == a.poly([R.zero, c(2)])
        assert a.x() - b.x() == a.zero()
        assert a.x() == b.x() and hash(a.x()) == hash(b.x())
        assert make_lodo(131).ore != a.ore

    def test_ore_pair_laws_for_lodo(self):
        # sigma is the identity (an endomorphism trivially); delta additive
        rng = random.Random(51)
        assert LODO.ore.is_differential
        for _ in range(100):
            r = rand_coeff(rng, 4)
            s = rand_coeff(rng, 4)
            assert R.diff(R.add(r, s)) == R.add(R.diff(r), R.diff(s))


class TestSkewMul:
    def test_commutation_rule_d_times_y(self):
        d = LODO.x()
        y = LODO.poly([c(0, 1)])
        # D*y = y*D + 1
        assert skew_mul(d, y) == op((1,), (0, 1))

    def test_one_is_two_sided_identity(self):
        rng = random.Random(52)
        one = LODO.one()
        for _ in range(20):
            a = rand_op(rng, rng.randrange(0, 5))
            assert skew_mul(a, one) == a
            assert skew_mul(one, a) == a

    def test_difference_of_squares_picks_up_commutator(self):
        d = LODO.x()
        y = LODO.poly([c(0, 1)])
        lhs = skew_mul(d + y, d - y)
        # (D+y)(D-y) = D^2 - y^2 - 1
        want = op((126, 0, 126), (0,), (1,))
        assert lhs == want

    def test_commutation_rule_random_constants(self):
        rng = random.Random(53)
        d = LODO.x()
        for _ in range(50):
            r = rand_coeff(rng, 4)
            const = LODO.poly([r])
            got = skew_mul(d, const)
            want = LODO.poly([R.diff(r), r])  # sigma(r) x + delta(r), sigma = id
            assert got == want

    def test_associativity(self):
        rng = random.Random(54)
        for _ in range(30):
            a = rand_op(rng, rng.randrange(0, 5))
            b = rand_op(rng, rng.randrange(0, 5))
            d = rand_op(rng, rng.randrange(0, 5))
            assert skew_mul(skew_mul(a, b), d) == skew_mul(a, skew_mul(b, d))

    def test_degree_adds_over_a_domain(self):
        rng = random.Random(55)
        for _ in range(20):
            a = rand_op(rng, rng.randrange(0, 5))
            b = rand_op(rng, rng.randrange(0, 5))
            assert skew_mul(a, b).degree == a.degree + b.degree


class TestApply:
    def test_identity_operator(self):
        rng = random.Random(56)
        for _ in range(10):
            p = rand_coeff(rng, 4)
            assert apply_operator(LODO.one(), p) == p

    def test_second_derivative_plus_y(self):
        ell = op((0, 1), (0,), (1,))  # D^2 + y
        assert apply_operator(ell, c(0, 0, 1)) == c(2, 0, 0, 1)  # 2 + y^3

    def test_composition_is_module_action(self):
        rng = random.Random(57)
        for _ in range(40):
            l1 = rand_op(rng, rng.randrange(0, 4))
            l2 = rand_op(rng, rng.randrange(0, 4))
            p = rand_coeff(rng, 3)
            assert apply_operator(skew_mul(l1, l2), p) == apply_operator(
                l1, apply_operator(l2, p)
            )

    def test_requires_identity_sigma(self):
        twisted = SkewPolyRing(R, OrePair(sigma=lambda f: f, delta=R.diff), "D")
        with pytest.raises(UnsupportedSigma):
            apply_operator(twisted.one(), R.one)


class TestPow:
    def test_zeroth_power(self):
        rng = random.Random(58)
        a = rand_op(rng, 3)
        assert skew_pow(a, 0) == LODO.one()

    def test_square_matches_repeated_mul(self):
        d = LODO.x()
        assert skew_pow(d, 2) == skew_mul(d, d)
        rng = random.Random(59)
        for _ in range(10):
            a = rand_op(rng, rng.randrange(0, 4))
            assert skew_pow(a, 3) == skew_mul(skew_mul(a, a), a)

    def test_binomial_square_with_commutator(self):
        d = LODO.x()
        y = LODO.poly([c(0, 1)])
        # (D+y)^2 = D^2 + 2yD + y^2 + 1
        want = op((1, 0, 1), (0, 2), (1,))
        assert skew_pow(d + y, 2) == want


class TestShifts:
    def test_lshift_zero(self):
        rng = random.Random(60)
        v = rand_op(rng, 3)
        assert lshift(v, 0) == v

    def test_lshift_commutes_past_y(self):
        y = LODO.poly([c(0, 1)])
        assert lshift(y, 1) == op((1,), (0, 1))  # yD + 1

    def test_lshift_negative_rejected(self):
        with pytest.raises(NegativeLeftShift):
            lshift(LODO.one(), -1)

    def test_rshift_round_trip(self):
        rng = random.Random(61)
        for _ in range(20):
            v = rand_op(rng, rng.randrange(0, 5))
            assert shift(shift(v, 3), -3) == v

    def test_rshift_drops_low_terms(self):
        yd_plus_1 = op((1,), (0, 1))
        assert shift(yd_plus_1, -1) == LODO.poly([c(0, 1)])

    def test_left_and_right_shift_differ(self):
        y = LODO.poly([c(0, 1)])
        assert shift(y, 1) != lshift(y, 1)


class TestSkewClassicalDiv:
    def test_left_division_hand_example(self):
        d = LODO.x()
        y = LODO.poly([c(0, 1)])
        u = skew_pow(d, 2)
        v = d + y
        q, r = skew_classical_div(u, v, LEFT)
        assert q == d - y
        assert r == LODO.poly([c(1, 0, 1)])  # y^2 + 1
        assert skew_mul(v, q) + r == u

    def test_small_dividend(self):
        rng = random.Random(62)
        v = rand_op(rng, 4, monic=True)
        u = rand_op(rng, 2)
        q, r = skew_classical_div(u, v, RIGHT)
        assert q.is_zero and r == u

    def test_division_identity_random(self):
        rng = random.Random(63)
        for trial in range(60):
            k = rng.randrange(1, 5)
            v = rand_op(rng, k, monic=True) if trial % 2 else rand_unit_lead_op(rng, k)
            u = rand_op(rng, rng.randrange(0, 8))
            for o in (LEFT, RIGHT):
                q, r = skew_classical_div(u, v, o)
                assert r.is_zero or r.degree < k
                recon = skew_mul(q, v) if o is RIGHT else skew_mul(v, q)
                assert recon + r == u

    def test_requires_identity_sigma(self):
        twisted = SkewPolyRing(R, OrePair(sigma=lambda f: f, delta=R.diff), "D")
        u, v = twisted.one(), twisted.one()
        with pytest.raises(UnsupportedSigma):
            skew_classical_div(u, v, RIGHT)


class TestLshinv:
    def test_power_divisor(self):
        d = LODO.x()
        assert lshinv(skew_pow(d, 3), 7) == skew_pow(d, 4)

    def test_hand_example(self):
        d = LODO.x()
        y = LODO.poly([c(0, 1)])
        assert lshinv(d + y, 2) == d - y

    def test_matches_classical_left_quotient(self):
        rng = random.Random(64)
        for _ in range(40):
            k = rng.randrange(1, 4)
            v = rand_op(rng, k, monic=True)
            h = k + rng.randrange(0, 6)
            x_h = LODO.monomial(R.one, h)
            ref, _ = skew_classical_div(x_h, v, LEFT)
            assert lshinv(v, h) == ref

    def test_h_below_degree(self):
        rng = random.Random(65)
        v = rand_op(rng, 3, monic=True)
        assert lshinv(v, 2).is_zero

    def test_requires_monic(self):
        v = LODO.poly([c(1), c(2)])
        with pytest.raises(NotMonic):
            lshinv(v, 4)

    def test_convergence_is_linear_not_logarithmic(self):
        # frozen worst case from a 4000-instance search: deg 2, h = 12 takes
        # the paper's update 9 passes, the maximum possible given the
        # 2-accurate start, and far above ceil(log2(h - k)) = 4
        v = op((42, 43, 109, 6, 20), (17, 43, 71, 42, 89), (1,))
        trace = []
        w = lshinv(v, 12, trace, variant="paper")
        assert len(trace) == 9
        assert len(trace) > 4
        assert len(trace) <= 12 - 2 + 1
        x12 = LODO.monomial(R.one, 12)
        rho = x12 - skew_mul(v, w)
        assert rho.degree < 2

    def test_newton_converges_logarithmically_on_the_worst_case(self):
        # the paper's worst case above: Newton steps need 3 passes, each
        # roughly doubling the correct top coefficients
        v = op((42, 43, 109, 6, 20), (17, 43, 71, 42, 89), (1,))
        trace = []
        w = lshinv(v, 12, trace)
        assert trace == [10, 8, 4]
        assert w == lshinv(v, 12, variant="paper")
        rho = LODO.monomial(R.one, 12) - skew_mul(v, w)
        assert rho.degree < 2

    def test_newton_matches_paper_and_classical(self):
        # (p, k, h - k, y-degree): every p, y-degrees 0-8, h - k up to 60, and
        # h < k, h = k, h = k + 1 for every p; divisors v and x**k; dividends
        # zero, of degree below k and of degree h
        cases = [
            (2, 1, 60, 8), (2, 3, 17, 3), (3, 6, 34, 5), (3, 2, 9, 7), (5, 8, 22, 6),
            (7, 5, 25, 4), (127, 2, 60, 1), (127, 12, 12, 3), (127, 4, 36, 2), (127, 1, 45, 0),
        ]
        edges = ((3, -1, 4), (3, 0, 8), (3, 1, 2), (1, 1, 6))
        cases += [(p, k, d, y) for p in (2, 3, 5, 7, 127) for k, d, y in edges]
        rng = random.Random(72)
        for p, k, d, ydeg in cases:
            lodo = make_lodo(p)
            ring = lodo.ring
            h = k + d
            v = lodo.poly([ring.random_element(rng, ydeg) for _ in range(k)] + [ring.one])
            for divisor in (v, lodo.monomial(ring.one, k)):
                trace = []
                w = lshinv(divisor, h, trace)
                assert w == lshinv(divisor, h, variant="paper")
                assert w == skew_classical_div(lodo.monomial(ring.one, h), divisor, LEFT)[0]
                assert len(trace) <= max(d, 0).bit_length() + 2
            for du in (-1, k - 1, h):
                u = lodo.poly([ring.random_element(rng, ydeg) for _ in range(du)] + [ring.one])
                if du < 0:
                    u = lodo.zero()
                want = skew_classical_div(u, v, RIGHT)
                assert rquo_via_lshinv(u, v) == want
                assert rquo_via_lshinv(u, v, variant="paper") == want

    @pytest.mark.parametrize("variant", [None, "paper"])
    def test_no_convergence_at_the_cap(self, monkeypatch, variant):
        # with every update zeroed w never improves, so the loop must stop at
        # its cap: ceil(log2(h-k+1)) + 2 Newton passes, h-k+1 paper passes
        import polyquo.skew

        monkeypatch.setattr(polyquo.skew, "shift", lambda p, n: p.ctx.zero())
        rng = random.Random(73)
        v = rand_op(rng, 3, monic=True)
        trace = []
        with pytest.raises(NoConvergence):
            lshinv(v, 20, trace, variant=variant)
        assert len(trace) == (18 if variant == "paper" else (20 - 3).bit_length() + 2)
        # the regime is the context's: a zero derivation keeps Newton's cap,
        # y*d/dy (not nilpotent) takes the paper's whatever the variant
        F7y = PolyRing(GF(7))
        for ring, delta, newton in (
            (GF(7), None, variant is None),
            (F7y, lambda f: F7y.mul((0, 1), F7y.diff(f)), False),
        ):
            ctx = SkewPolyRing(ring, OrePair(None, delta), "D")
            for k, h in ((1, 4), (3, 20), (2, 35)):
                # units below the lead keep the start value from being exact
                v = ctx.poly([ring.random_invertible(rng) for _ in range(k)] + [ring.one])
                trace = []
                with pytest.raises(NoConvergence):
                    lshinv(v, h, trace, variant=variant)
                assert len(trace) == ((h - k).bit_length() + 2 if newton else h - k + 1)

    def test_other_derivations_converge_to_the_classical_quotient(self):
        # a zero derivation, where both updates coincide, over a field and a
        # matrix ring; and y*d/dy, which is not nilpotent and takes the
        # paper's update
        def y_d_dy(f):
            return R.mul((0, 1), R.diff(f))

        rng = random.Random(74)
        for ring, delta in ((GF(7), None), (MatrixRing(2, GF(7)), None), (R, y_d_dy)):
            ctx = SkewPolyRing(ring, OrePair(None, delta), "D")
            for _ in range(10):
                k = rng.randrange(1, 4)
                h = k + rng.randrange(12)
                v = ctx.poly([ring.random_element(rng) for _ in range(k)] + [ring.one])
                want, _ = skew_classical_div(ctx.monomial(ring.one, h), v, LEFT)
                trace = []
                assert lshinv(v, h, trace) == want
                assert len(trace) <= h - k + 1

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            lshinv(LODO.x(), 3, variant="newton")

    def test_update_cap_holds_on_random_instances(self):
        rng = random.Random(66)
        for _ in range(40):
            k = rng.randrange(1, 4)
            v = rand_op(rng, k, monic=True)
            h = k + rng.randrange(1, 8)
            trace = []
            lshinv(v, h, trace)
            assert len(trace) <= h - k + 1


class TestRshinv:
    def test_power_divisor(self):
        d = LODO.x()
        assert rshinv(skew_pow(d, 3), 7) == skew_pow(d, 4)

    def test_h_below_degree(self):
        rng = random.Random(67)
        v = rand_op(rng, 3, monic=True)
        assert rshinv(v, 1).is_zero

    def test_left_right_shifted_inverses_differ_witness(self):
        # frozen witness: left and right shifted inverses genuinely differ in
        # the skew case, unlike polynomials with a central variable
        v = op((74, 7, 116, 64), (27, 4, 11, 55), (1,))
        h = 6
        left = lshinv(v, h)
        right = rshinv(v, h)
        assert left != right
        x6 = LODO.monomial(R.one, 6)
        ref_l, _ = skew_classical_div(x6, v, LEFT)
        ref_r, _ = skew_classical_div(x6, v, RIGHT)
        assert left == ref_l
        assert right == ref_r


class TestRquoViaLshinv:
    def test_self_division(self):
        rng = random.Random(68)
        v = rand_op(rng, 3, monic=True)
        q, r = rquo_via_lshinv(v, v)
        assert q == LODO.one()
        assert r.is_zero

    def test_matches_classical_right_division(self):
        rng = random.Random(69)
        for _ in range(60):
            k = rng.randrange(1, 4)
            v = rand_op(rng, k, monic=True)
            u = rand_op(rng, rng.randrange(0, 8))
            got_q, got_r = rquo_via_lshinv(u, v)
            want_q, want_r = skew_classical_div(u, v, RIGHT)
            assert got_q == want_q
            assert got_r == want_r

    def test_operation_counts_are_pinned(self):
        # lodo-rquo's shapes, by the Newton and the paper's update; the counts
        # must equal those of the element-wise twin
        twin = elementwise_lodo(127)
        for variant, pins in ((None, (36781, 36781, 36739)), ("paper", (75235, 75235, 75193))):
            rng = random.Random(24)
            for pinned in pins:
                v = rand_op(rng, 12, monic=True)
                u = rand_op(rng, 24)
                before, twin_before = R.mul_count, twin.ring.mul_count
                q, r = rquo_via_lshinv(u, v, variant)
                assert R.mul_count - before == pinned
                assert (q, r) == skew_classical_div(u, v, RIGHT)
                tq, tr = rquo_via_lshinv(twin.poly(u.coeffs), twin.poly(v.coeffs), variant)
                assert twin.ring.mul_count - twin_before == pinned
                assert (tq.coeffs, tr.coeffs) == (q.coeffs, r.coeffs)

    def test_requires_monic(self):
        rng = random.Random(70)
        u = rand_op(rng, 4)
        v = LODO.poly([c(1), c(2)])
        with pytest.raises(NotMonic):
            rquo_via_lshinv(u, v)


class TestNonIdentitySigma:
    """The types carry a general twist; only construction and multiplication
    are exercised, division is rejected."""

    @staticmethod
    def _scaling_endomorphism(factor):
        def sigma(f):
            scale = 1
            out = []
            for coeff in f:
                out.append(coeff * scale % 127)
                scale = scale * factor % 127
            return R.from_coeffs(out)

        return sigma

    def test_commutation_rule_with_twist(self):
        sigma = self._scaling_endomorphism(3)  # f(y) -> f(3y)
        ctx = SkewPolyRing(R, OrePair(sigma=sigma, delta=None), "S")
        x = ctx.x()
        r = R.from_coeffs([5, 1])  # y + 5
        got = skew_mul(x, ctx.poly([r]))
        assert got == ctx.poly([R.zero, sigma(r)])  # x r = sigma(r) x
        ctx = SkewPolyRing(R, OrePair(sigma=sigma, delta=R.diff), "S")
        got = skew_mul(ctx.x(), ctx.poly([r]))
        assert got == ctx.poly([R.diff(r), sigma(r)])  # x r = sigma(r) x + r'

    def test_division_rejected(self):
        sigma = self._scaling_endomorphism(3)
        ctx = SkewPolyRing(R, OrePair(sigma=sigma, delta=None), "S")
        with pytest.raises(UnsupportedSigma):
            skew_classical_div(ctx.one(), ctx.one(), RIGHT)
        with pytest.raises(UnsupportedSigma):
            lshinv(ctx.x(), 3)

    def test_twisted_products_match_elementwise(self):
        # sigma and delta together, sigma only, delta only, neither; a product
        # kept from x**lo is the full one with the coefficients below zeroed
        scale = self._scaling_endomorphism(3)
        twin_ring = ElementwisePolyRing(GF(127))
        pairs = ((scale, True), (scale, False), (None, True), (None, False))
        for sigma, derive in pairs:
            ctx = SkewPolyRing(R, OrePair(sigma, R.diff if derive else None), "S")
            twin = SkewPolyRing(twin_ring, OrePair(sigma, twin_ring.diff if derive else None), "S")
            rng = random.Random(71)
            for _ in range(40):
                a = ctx.poly(rand_op(rng, rng.randrange(9)).coeffs)
                b = ctx.poly(rand_op(rng, rng.randrange(9), max_cdeg=rng.randrange(6)).coeffs)
                full = skew_mul(a, b).coeffs
                n = a.degree + b.degree
                for lo in (0, 1, b.degree, n, n + 1, 10**6):
                    before, twin_before = R.mul_count, twin_ring.mul_count
                    got = skew_mul(a, b, lo)
                    want = skew_mul(twin.poly(a.coeffs), twin.poly(b.coeffs), lo)
                    assert got.coeffs == want.coeffs
                    assert got == ctx.poly([R.zero] * min(lo, len(full)) + list(full[lo:]))
                    assert R.mul_count - before == twin_ring.mul_count - twin_before
