"""The benchmark's traced run wraps library functions by name; keep those names.

``perfbench/tracer.py`` replaces module attributes and ``DensePoly`` methods
while a traced division runs, so renaming any of them breaks the benchmark
without failing any other test.
"""

import importlib.util
import random
from pathlib import Path

from polyquo import GF, RIGHT, MatrixRing, shinv

from helpers import rand_poly

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
