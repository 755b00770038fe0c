"""The benchmark's traced run wraps library functions by name; keep those names.

``perfbench/tracer.py`` replaces module attributes and ``DensePoly`` methods
while a traced division runs, so renaming any of them breaks the benchmark
without failing any other test.  A traced ``quo`` must also account for every
base multiplication: its phases add up to the ring's total, which equals the
count of the same division untraced and with the element-wise kernels.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from polyquo import GF, LEFT, RIGHT, DensePoly, MatrixRing, quo, shinv

from helpers import ElementwiseGF, rand_poly

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
