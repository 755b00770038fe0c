import math
import random

import pytest

from polyquo import (
    GF,
    LEFT,
    RIGHT,
    DensePoly,
    IterationTrace,
    MatrixRing,
    NotInvertible,
    ShinvConfig,
    classical_div,
    mul_oriented,
    pow_diff,
    quo,
    shift,
    shinv,
    shinv0,
    step,
)
import importlib

shinv_module = importlib.import_module("polyquo.shinv")

from helpers import oracle_mul, rand_poly, standard_rings


def reference_shinv(v, h):
    """Independent value of x**h quo v via classical division."""
    x_h = DensePoly.monomial(v.ring, v.ring.one, h)
    q, _ = classical_div(x_h, v, RIGHT)
    return q


class TestShinv0:
    def test_monic_with_zero_next_coefficient(self):
        F = GF(127)
        v = DensePoly.from_ints(F, [3, 5, 0, 1])  # x^3 + 5x + 3
        w, acc = shinv0(v)
        assert acc == 2
        assert w == DensePoly.from_ints(F, [0, 1])  # just x

    def test_gf7_example(self):
        F = GF(7)
        w, acc = shinv0(DensePoly.from_ints(F, [1, 2]))
        assert (acc, w) == (2, DensePoly.from_ints(F, [5, 4]))

    def test_top_two_coefficients_match_reference(self):
        rng = random.Random(30)
        for ring in standard_rings():
            for _ in range(15):
                v = rand_poly(ring, rng, rng.randrange(1, 6), unit_lead=True)
                w, acc = shinv0(v)
                ref = reference_shinv(v, v.degree + 1)
                assert acc == 2
                assert w == ref


class TestPowDiff:
    def test_zero_w_gives_power(self):
        F = GF(127)
        v = DensePoly.from_ints(F, [1, 1])
        out = pow_diff(v, DensePoly.zero(F), 4, 0, RIGHT)
        assert out == DensePoly.monomial(F, 1, 4)

    def test_full_path_cancels(self):
        F = GF(7)
        x = DensePoly.from_ints(F, [0, 1])
        assert pow_diff(x, x, 2, 0, RIGHT).is_zero

    def test_truncated_path_matches_full_product(self):
        rng = random.Random(31)
        for ring in standard_rings():
            for _ in range(25):
                v = rand_poly(ring, rng, rng.randrange(1, 6))
                w = rand_poly(ring, rng, rng.randrange(1, 6))
                acc = rng.randrange(0, 4)
                h = v.prec + w.prec - acc + rng.randrange(1, 5)  # force L < h
                for o in (LEFT, RIGHT):
                    L = v.prec + w.prec - acc
                    full = oracle_mul(*o.pair(v, w))
                    want = -DensePoly(ring, full.coeffs[:L])
                    assert pow_diff(v, w, h, acc, o) == want


class TestStep:
    def test_exact_w_is_fixed_point(self):
        rng = random.Random(32)
        for ring in standard_rings():
            for _ in range(10):
                v = rand_poly(ring, rng, rng.randrange(1, 5), unit_lead=True)
                h = v.degree + rng.randrange(1, 8)
                w = reference_shinv(v, h)
                for o in (LEFT, RIGHT):
                    assert step(h, v, w, 0, h - v.degree + 1, o) == w

    def test_single_step_reaches_target_gf7(self):
        F = GF(7)
        v = DensePoly.from_ints(F, [1, 2])
        w0, acc = shinv0(v)
        w = shift(w0, 3 - 1 + 1 - acc)  # scale to full length for h=3
        out = step(3, v, w, 0, acc, RIGHT)
        # classical oracle: x^3 = (2x+1)(4x^2+5x+1) + 6
        assert out == DensePoly.from_ints(F, [1, 5, 4])
        assert out == reference_shinv(v, 3)


class TestRefines:
    def test_cross_method_equality_500_instances(self):
        rng = random.Random(33)
        rings = standard_rings()
        for trial in range(500):
            ring = rings[trial % len(rings)]
            k = rng.randrange(1, 7)
            h = k + rng.randrange(1, 16)
            v = rand_poly(ring, rng, k, unit_lead=True)
            ref = reference_shinv(v, h)
            o = LEFT if trial % 2 else RIGHT
            results = [
                shinv(v, h, ShinvConfig(refine=r), o) for r in (1, 2, 3)
            ]
            assert results[0] == results[1] == results[2] == ref

    def test_iteration_bound_and_trace_shape(self):
        rng = random.Random(34)
        for ring in (GF(127), MatrixRing(3, GF(127))):
            for _ in range(60):
                k = rng.randrange(1, 6)
                h = k + rng.randrange(1, 20)
                v = rand_poly(ring, rng, k, unit_lead=True)
                for refine in (1, 2, 3):
                    trace = IterationTrace()
                    shinv(v, h, ShinvConfig(refine=refine), RIGHT, trace)
                    bound = math.ceil(math.log2(h - k)) if h - k > 1 else 1
                    assert trace.iterations <= max(bound, 0)
                    accs = [rec.accurate for rec in trace.records]
                    assert accs == sorted(set(accs))  # strictly increasing
                    if trace.records:
                        assert accs[-1] == h - k + 1

    def test_accuracy_invariant_against_oracle(self):
        # after each pass the top `accurate` coefficients of w equal the
        # corresponding coefficients of the true shifted inverse
        rng = random.Random(35)
        for ring in (GF(127), MatrixRing(2, GF(127))):
            for _ in range(20):
                k = rng.randrange(2, 6)
                h = k + rng.randrange(2, 14)
                v = rand_poly(ring, rng, k, unit_lead=True)
                ref = reference_shinv(v, h)
                for refine in (1, 2, 3):
                    trace = IterationTrace()
                    shinv(v, h, ShinvConfig(refine=refine), RIGHT, trace)
                    for rec in trace.records:
                        got_top = rec.w.coeffs[-rec.accurate:]
                        want_top = ref.coeffs[-rec.accurate:]
                        assert got_top == want_top

    def test_full_difference_never_changes_result(self, monkeypatch):
        # replacing pow_diff's truncated branch with the full difference is
        # observationally equivalent
        def full_pow_diff(v, w, h, accurate, orientation=RIGHT):
            one = DensePoly.one(v.ring)
            return shift(one, h) - mul_oriented(v, w, orientation)

        rng = random.Random(36)
        cases = []
        for ring in (GF(127), MatrixRing(2, GF(127))):
            for _ in range(15):
                k = rng.randrange(1, 6)
                h = k + rng.randrange(1, 14)
                cases.append((rand_poly(ring, rng, k, unit_lead=True), h))
        baseline = [
            shinv(v, h, ShinvConfig(refine=r), o)
            for v, h in cases
            for r in (1, 2, 3)
            for o in (LEFT, RIGHT)
        ]
        monkeypatch.setattr(shinv_module, "pow_diff", full_pow_diff)
        patched = [
            shinv(v, h, ShinvConfig(refine=r), o)
            for v, h in cases
            for r in (1, 2, 3)
            for o in (LEFT, RIGHT)
        ]
        assert baseline == patched

    def test_config_defaults(self):
        cfg = ShinvConfig()
        assert cfg.refine == 3

    def test_unknown_refine_raises(self):
        rng = random.Random(42)
        v = rand_poly(GF(127), rng, 4, unit_lead=True)
        u = rand_poly(GF(127), rng, 11)
        with pytest.raises(ValueError):
            shinv(v, 11, ShinvConfig(refine=4))
        with pytest.raises(ValueError):
            quo(u, v, RIGHT, ShinvConfig(refine=4))

    def test_guard_steps_default_and_trace(self):
        rng = random.Random(37)
        F, M = GF(127), MatrixRing(3, GF(127))
        vf = rand_poly(F, rng, 4, unit_lead=True)
        vm = rand_poly(M, rng, 4, unit_lead=True)
        tf, tm = IterationTrace(), IterationTrace()
        shinv(vf, 12, ShinvConfig(refine=1), RIGHT, tf)
        shinv(vm, 12, ShinvConfig(refine=1), RIGHT, tm)
        assert tf.guard_steps == 0  # commutative default
        assert tm.guard_steps == 1  # non-commutative default
        t0 = IterationTrace()
        shinv(vm, 12, ShinvConfig(refine=1, extra_guard_steps=3), RIGHT, t0)
        assert t0.guard_steps == 3


class TestShinvDispatch:
    def test_monomial_divisor(self):
        F = GF(127)
        v = DensePoly.monomial(F, 1, 4)
        assert shinv(v, 9) == DensePoly.monomial(F, 1, 5)
        v2 = DensePoly.monomial(F, 2, 4)
        assert shinv(v2, 9) == DensePoly.monomial(F, 64, 5)

    def test_gf7_x_plus_one(self):
        F = GF(7)
        v = DensePoly.from_ints(F, [1, 1])
        # x^2 = (x+1)(x+6) + 1
        assert shinv(v, 2) == DensePoly.from_ints(F, [6, 1])

    def test_h_below_degree_gives_zero(self):
        F = GF(127)
        v = DensePoly.from_ints(F, [1, 2, 3])
        assert shinv(v, 1).is_zero

    def test_constant_divisor_and_h_equal_k(self):
        F = GF(127)
        c = DensePoly.from_ints(F, [2])
        assert shinv(c, 3) == DensePoly.monomial(F, 64, 3)
        v = DensePoly.from_ints(F, [5, 3, 2])
        ref = reference_shinv(v, 2)
        assert shinv(v, 2) == ref

    def test_zero_divisor_and_negative_h(self):
        F = GF(127)
        with pytest.raises(ZeroDivisionError):
            shinv(DensePoly.zero(F), 3)
        with pytest.raises(ValueError):
            shinv(DensePoly.one(F), -1)

    def test_singular_lead_raises(self):
        M = MatrixRing(2, GF(7))
        v = DensePoly(M, [M.one, M.from_rows([[1, 1], [1, 1]])])
        with pytest.raises(NotInvertible):
            shinv(v, 5)


class TestQuo:
    def test_self_division_monic(self):
        rng = random.Random(38)
        for ring in standard_rings():
            v = DensePoly(
                ring, [ring.random_element(rng) for _ in range(4)] + [ring.one]
            )
            for o in (LEFT, RIGHT):
                q, r = quo(v, v, o)
                assert q == DensePoly.one(ring)
                assert r.is_zero

    def test_matches_classical(self):
        rng = random.Random(39)
        for ring in standard_rings():
            for _ in range(40):
                v = rand_poly(ring, rng, rng.randrange(1, 6), unit_lead=True)
                u = rand_poly(ring, rng, rng.randrange(0, 16))
                for o in (LEFT, RIGHT):
                    assert quo(u, v, o) == classical_div(u, v, o)

    def test_refine_choice_does_not_change_value(self):
        rng = random.Random(40)
        M = MatrixRing(2, GF(127))
        u = rand_poly(M, rng, 12)
        v = rand_poly(M, rng, 4, unit_lead=True)
        results = {r: quo(u, v, RIGHT, ShinvConfig(refine=r)) for r in (1, 2, 3)}
        assert results[1] == results[2] == results[3]

    def test_zero_dividend(self):
        F = GF(127)
        v = DensePoly.from_ints(F, [1, 1])
        q, r = quo(DensePoly.zero(F), v, RIGHT)
        assert q.is_zero and r.is_zero


class TestBothSidedShinv:
    def test_left_and_right_power_quotients_agree(self):
        rng = random.Random(41)
        for ring in standard_rings():
            for _ in range(15):
                k = rng.randrange(1, 5)
                v = rand_poly(ring, rng, k, unit_lead=True)
                for h in range(k, k + 21, 4):
                    x_h = DensePoly.monomial(ring, ring.one, h)
                    ql, _ = classical_div(x_h, v, LEFT)
                    qr, _ = classical_div(x_h, v, RIGHT)
                    assert ql == qr
                    if h > k:
                        assert shinv(v, h, orientation=LEFT) == ql
                        assert shinv(v, h, orientation=RIGHT) == ql
