"""Reading and writing polynomial documents.

A document is a JSON object with a ring header and a map of named
polynomials, e.g.

    {
      "ring": {"kind": "matrix", "p": 127, "n": 3, "var": "x"},
      "polys": {"v": [[[12, 37, 15], [59, 94, 79], [15, 76, 39]], ...]}
    }

Coefficient payloads are little-endian in the main variable.  Entries are
integers in [0, p).  Per-kind coefficient shapes:

    gfp       int
    matrix    n x n nested lists of ints
    polyring  little-endian list of ints (coefficients in coeff_var)
    lodo      little-endian list of ints (coefficients in coeff_var)

``polyring`` documents describe commutative polynomials in ``var`` whose
coefficients are polynomials in ``coeff_var``; ``lodo`` documents describe
differential operators in ``var`` over GF(p)[coeff_var].
"""

import json
from dataclasses import dataclass, field

from .errors import ParseError
from .polynomial import DensePoly
from .rings import GF, MatrixRing, PolyRing, is_prime_modulus
from .skew import SkewPoly, make_lodo

KINDS = ("gfp", "matrix", "polyring", "lodo")

# Largest matrix dimension a ring descriptor may ask for.  A MatrixRing builds
# n x n zero and identity elements up front, and each coefficient product
# costs n**3 base multiplications, so this bounds what one small document or
# bench --ring spec can make the program allocate and compute.
MAX_MATRIX_DIM = 16

# Largest degree in a document polynomial, in a polyring/lodo coefficient, and
# of shinv --h and bench N.  Each sets how many coefficients a run builds
# (h - deg v + 1 for the shifted inverse, 3N + 2 for a bench instance), so no
# input can make the program allocate without bound.
MAX_DEGREE = 1 << 15


@dataclass
class PolyDocument:
    ring: dict
    polys: dict = field(default_factory=dict)


def _require(cond, message):
    if not cond:
        raise ParseError(message)


def check_ring(desc):
    _require(isinstance(desc, dict), "ring descriptor must be an object")
    kind = desc.get("kind")
    _require(kind in KINDS, "unknown ring kind %r" % (kind,))
    p = desc.get("p")
    _require(is_prime_modulus(p), "ring modulus must be a prime below 2**31")
    if kind == "matrix":
        n = desc.get("n")
        _require(
            isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= MAX_MATRIX_DIM,
            "matrix dimension must be a positive integer at most %d" % MAX_MATRIX_DIM,
        )
    for key in ("var", "coeff_var"):
        _require(isinstance(desc.get(key, ""), str), "%s must be a string" % key)
    return desc


def _check_list(x, what):
    _require(isinstance(x, list), "%s must be a list" % what)
    _require(len(x) <= MAX_DEGREE + 1, "%s must have at most %d entries" % (what, MAX_DEGREE + 1))


def _check_entry(x, p):
    _require(isinstance(x, int) and not isinstance(x, bool), "entries must be integers")
    _require(0 <= x < p, "entry %r out of range [0, %d)" % (x, p))
    return x


def _check_coeff(kind, c, desc):
    p = desc["p"]
    if kind == "gfp":
        return _check_entry(c, p)
    if kind == "matrix":
        n = desc["n"]
        _require(
            isinstance(c, list) and len(c) == n,
            "matrix coefficient must have %d rows" % n,
        )
        for row in c:
            _require(
                isinstance(row, list) and len(row) == n,
                "matrix coefficient rows must have %d entries" % n,
            )
            for x in row:
                _check_entry(x, p)
        return c
    # polyring / lodo: little-endian int list
    _check_list(c, "a polynomial coefficient")
    for x in c:
        _check_entry(x, p)
    return c


def parse_document(text):
    """Parse and validate a document; raises ParseError on any defect."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ParseError("invalid JSON: %s" % exc) from None
    _require(isinstance(data, dict), "document must be a JSON object")
    desc = check_ring(data.get("ring"))
    polys = data.get("polys")
    _require(isinstance(polys, dict), "document needs a 'polys' object")
    for name, coeffs in polys.items():
        _check_list(coeffs, "polynomial %r" % name)
        for c in coeffs:
            _check_coeff(desc["kind"], c, desc)
    return PolyDocument(ring=dict(desc), polys={k: list(v) for k, v in polys.items()})


def emit_document(doc, extra=None):
    """Serialize a document (plus optional extra top-level fields) as stable JSON."""
    data = {"ring": doc.ring, "polys": doc.polys}
    if extra:
        data.update(extra)
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return parse_document(text)


def build_ring(desc):
    """The ring or skew-ring context a descriptor denotes."""
    kind = desc["kind"]
    if kind == "gfp":
        return GF(desc["p"])
    if kind == "matrix":
        return MatrixRing(desc["n"], GF(desc["p"]))
    if kind == "polyring":
        return PolyRing(GF(desc["p"]), desc.get("coeff_var", "y"))
    return make_lodo(desc["p"], desc.get("coeff_var", "y"), desc.get("var", "D"))


def to_poly(doc, name, context=None):
    """Materialize a named polynomial; DensePoly for ring kinds, SkewPoly for lodo."""
    if name not in doc.polys:
        raise ParseError("document has no polynomial %r" % name)
    kind = doc.ring["kind"]
    ctx = context if context is not None else build_ring(doc.ring)
    coeffs = doc.polys[name]
    if kind == "lodo":
        ring = ctx.ring
        return SkewPoly(ctx, [ring.from_coeffs(c) for c in coeffs])
    if kind == "gfp":
        return DensePoly(ctx, [c % ctx.p for c in coeffs])
    if kind == "matrix":
        return DensePoly(ctx, [ctx.from_rows(c) for c in coeffs])
    return DensePoly(ctx, [ctx.from_coeffs(c) for c in coeffs])


def poly_payload(p):
    """The JSON coefficient payload for a DensePoly or SkewPoly."""
    ring = p.ring
    if isinstance(ring, GF):
        return list(p.coeffs)
    if isinstance(ring, MatrixRing):
        return [[list(row) for row in c] for c in p.coeffs]
    if isinstance(ring, PolyRing):
        return [list(c) for c in p.coeffs]
    raise TypeError("cannot serialize polynomials over %r" % ring)
