"""The benchmark's traced run wraps library functions by name; keep those names.

``perfbench/tracer.py`` replaces module attributes and ``DensePoly`` methods
while a traced division runs, so renaming any of them breaks the benchmark
without failing any other test.  A traced ``quo`` or ``rquo_via_lshinv`` must
also account for every base multiplication: its phases add up to the ring's
total, which equals the count of the same division untraced and with the
element-wise kernels.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from polyquo import GF, LEFT, RIGHT, DensePoly, MatrixRing, make_lodo, quo, rquo_via_lshinv, shinv

from helpers import ElementwiseGF, elementwise_lodo, rand_poly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists():
    targets = load_tracer().patch_targets()
    assert targets
    missing = [(owner, attr) for owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []


def test_shinv_positional_none_variant_is_the_default():
    # the benchmark's self-test calls shinv(v, h, None, side)
    rng = random.Random(7)
    for ring in (GF(127), MatrixRing(2, GF(127))):
        v = rand_poly(ring, rng, 5, unit_lead=True)
        assert shinv(v, 17, None, RIGHT) == shinv(v, 17)


def traced_quo(tracer_module, ring, u, v, side):
    """One quo traced as the benchmark traces it; returns (metrics, result, untraced muls)."""
    tracer = tracer_module.Tracer()
    with tracer.division(0, "shinv.quo", rings=(ring,), args=(u, v, side)):
        traced = quo(u, v, side)
    assert tracer.unrestored() == []
    before = ring.mul_count
    untraced = quo(u, v, side)
    assert traced == untraced
    return tracer_module.layer_metrics(tracer.spans), ring.mul_count - before


def elementwise_twin(ring):
    """The same ring built on ElementwiseGF, the counted reference."""
    base = ElementwiseGF(127)
    return base if isinstance(ring, GF) else MatrixRing(ring.n, base)


@pytest.mark.parametrize("ring", [GF(127), MatrixRing(2, GF(127))], ids=repr)
def test_traced_quo_reconciles(ring):
    # The phases must add up to the ring's count, the traced count must equal
    # the untraced one, and both must equal the count of the element-wise
    # kernels, so a kernel that skips its tally fails here too.
    tracer_module = load_tracer()
    rng = random.Random(11)
    v = rand_poly(ring, rng, 40, unit_lead=True)
    u = rand_poly(ring, rng, 90)
    for side in (LEFT, RIGHT):
        m, untraced_muls = traced_quo(tracer_module, ring, u, v, side)
        assert tracer_module.reconcile(m, tracer_module.SHINV_PHASES) == 0
        assert m["rings.base_muls"] == untraced_muls > 0
        assert m["shinv.pow_diff_muls"] > 0
        assert m["shinv.quotient_product_muls"] > 0
        assert m["shinv.self_muls"] == 0
        twin = elementwise_twin(ring)
        quo(DensePoly(twin, u.coeffs), DensePoly(twin, v.coeffs), side)
        assert twin.mul_count == untraced_muls


def test_traced_rquo_reconciles():
    # The skew phases are the direct skew_mul children of lshinv and
    # rquo_via_lshinv, so every product must go through skew.skew_mul by its
    # global name; a product made any other way shows up in rquo_other_muls.
    tracer_module = load_tracer()
    ctx = make_lodo(127)
    ring = ctx.ring
    rng = random.Random(12)
    v = ctx.poly([ring.random_element(rng, 3) for _ in range(12)] + [ring.one])
    u = ctx.poly([ring.random_element(rng, 3) for _ in range(24)] + [(5, 1)])
    tracer = tracer_module.Tracer()
    with tracer.division(0, "skew.rquo_via_lshinv", rings=(ring,), args=(u, v)):
        traced = rquo_via_lshinv(u, v)
    assert tracer.unrestored() == []
    before = ring.mul_count
    assert rquo_via_lshinv(u, v) == traced
    untraced_muls = ring.mul_count - before
    m = tracer_module.layer_metrics(tracer.spans)
    assert tracer_module.reconcile(m, tracer_module.SKEW_PHASES) == 0
    assert m["rings.base_muls"] == untraced_muls > 0
    assert m["skew.lshinv_updates"] > 0
    assert m["skew.quotient_product_muls"] > 0
    assert m["skew.remainder_product_muls"] > 0
    assert m["skew.rquo_other_muls"] == 0
    twin = elementwise_lodo(127)
    rquo_via_lshinv(twin.poly(u.coeffs), twin.poly(v.coeffs))
    assert twin.ring.mul_count == untraced_muls
