"""Exact quotients of univariate polynomials over non-commutative rings.

Classical and pseudodivision for coefficients that need not commute, fast
left/right quotients through the whole shifted inverse when the variable is
central, and classical plus shifted-inverse division for differential
operators (skew polynomials with identity twist).
"""

from .errors import (
    DimensionMismatch,
    NegativeLeftShift,
    NoConvergence,
    NotCentral,
    NotInvertible,
    NotMonic,
    ParseError,
    UnsupportedSigma,
)
from .polynomial import (
    KARATSUBA_THRESHOLD,
    LEFT,
    RIGHT,
    DensePoly,
    Orientation,
    classical_div,
    mul_mod,
    mul_oriented,
    pseudo_div,
    shift,
)
from .rings import GF, MatrixRing, PolyRing, Ring
from .shinv import (
    IterationRecord,
    IterationTrace,
    ShinvConfig,
    pow_diff,
    quo,
    refine,
    shinv,
    shinv0,
    step,
)
from .skew import (
    OrePair,
    SkewPoly,
    SkewPolyRing,
    apply_operator,
    lshift,
    lshinv,
    make_lodo,
    rquo_via_lshinv,
    rshinv,
    skew_classical_div,
    skew_mul,
    skew_pow,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "NegativeLeftShift",
    "NoConvergence",
    "NotCentral",
    "NotInvertible",
    "NotMonic",
    "ParseError",
    "UnsupportedSigma",
    "KARATSUBA_THRESHOLD",
    "LEFT",
    "RIGHT",
    "DensePoly",
    "Orientation",
    "classical_div",
    "mul_mod",
    "mul_oriented",
    "pseudo_div",
    "shift",
    "GF",
    "MatrixRing",
    "PolyRing",
    "Ring",
    "IterationRecord",
    "IterationTrace",
    "ShinvConfig",
    "pow_diff",
    "quo",
    "refine",
    "shinv",
    "shinv0",
    "step",
    "OrePair",
    "SkewPoly",
    "SkewPolyRing",
    "apply_operator",
    "lshift",
    "lshinv",
    "make_lodo",
    "rquo_via_lshinv",
    "rshinv",
    "skew_classical_div",
    "skew_mul",
    "skew_pow",
]
