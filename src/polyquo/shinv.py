"""Whole shifted inverse and fast quotients for polynomials over non-commutative rings.

The whole h-shifted inverse of v is x**h quo v.  For a central variable it is
the same polynomial whether computed as a left or a right quotient, so it can
be refined by a modified Newton-Schulz iteration whose multiplications keep
the classical operand order:

    w  <-  w + shift(w * (x**h - v*w), -h)        (RIGHT orientation)
    w  <-  w + shift((x**h - w*v) * w, -h)        (LEFT orientation)

One loop, :func:`refine`, runs the iteration; each pass doubles the accurate
prefix of w.  The ``variant`` argument of :func:`shinv` and :func:`quo` picks
one of three configurations of it (None means 3):

    1   full width: w is held at its final width h-k+1 throughout;
    2   growing: w starts with 2 coefficients and grows by
        m = min(target - l, l) places per pass;
    3   growing with a truncated divisor: as 2, but each pass also drops the
        divisor coefficients that cannot influence the places it computes.

All three return the exact whole shifted inverse.

Quotients follow from the shifted inverse: with h = deg u,

    u rquo v = shift(u * shinv(v, h+1), -h-1)
    u lquo v = shift(shinv(v, h+1) * u, -h-1)
"""

from dataclasses import dataclass, field

from .polynomial import DensePoly, RIGHT, mul_mod, mul_oriented, shift


@dataclass
class IterationRecord:
    """One refinement pass: claimed accurate places, width of w, and step shape."""

    accurate: int
    prec: int
    grow: int
    divisor_drop: int
    w: DensePoly | None = None


@dataclass
class IterationTrace:
    """Trace of a refinement run: one record per pass."""

    records: list = field(default_factory=list)

    def record(self, accurate, w, grow, drop):
        self.records.append(IterationRecord(accurate, w.prec, grow, drop, w))

    @property
    def iterations(self):
        return len(self.records)


def shinv0(v):
    """Initial approximation accurate to 2 places:  inv(vk)*x - inv(vk)*v_{k-1}*inv(vk).

    Both inverse factors sit around the middle coefficient, which makes the
    same starting value correct for left and right refinement.
    """
    ring = v.ring
    k = v.degree
    if k is None or k < 1:
        raise ValueError("shinv0 needs a divisor of degree at least 1")
    ivk = ring.inv(v.lc)
    c = ring.neg(ring.mul(ring.mul(ivk, v.coeff(k - 1)), ivk))
    return DensePoly(ring, (c, ivk)), 2


def pow_diff(v, w, h, accurate, orientation=RIGHT):
    """Compute shift(1, h) - v*w (oriented), truncating when the top must cancel.

    When w agrees with the shifted inverse in its top ``accurate`` places, the
    coefficients of v*w from degree L = prec v + prec w - accurate upward are
    exactly those of x**h, so the difference equals -(v*w mod x**L).
    """
    ring = v.ring
    L = v.prec + w.prec - accurate
    if v.is_zero or w.is_zero or L >= h:
        return shift(DensePoly.one(ring), h) - mul_oriented(v, w, orientation)
    return -mul_mod(v, w, L, orientation)


def step(h, v, w, grow, accurate, orientation=RIGHT):
    """One Newton-Schulz update:  shift(w, m) + shift(w * pow_diff(v, w, h-m), 2m-h)."""
    pd = pow_diff(v, w, h - grow, accurate, orientation)
    return shift(w, grow) + shift(mul_oriented(w, pd, orientation), 2 * grow - h)


# variant -> (full_width, truncate_divisor); None is the default, 3
_VARIANTS = {1: (True, False), 2: (False, False), 3: (False, True), None: (False, True)}


def _variant(variant):
    try:
        return _VARIANTS[variant]
    except (KeyError, TypeError):
        raise ValueError("unknown refine variant %r" % (variant,)) from None


def refine(v, h, w, accurate, variant=None, orientation=RIGHT, trace=None):
    """Refine w, accurate in its top ``accurate`` places, to the whole shifted inverse.

    With k = deg v, each pass extends the accurate prefix from l to
    min(2l, h-k+1) places.  At full width w is scaled to h-k+1 coefficients
    up front and every pass works at shift h; otherwise w grows by
    m = min(h-k+1 - l, l) per pass.  Truncating the divisor drops its
    max(0, k - 2(l+m) + 1) lowest coefficients, since a pass reaching l+m
    places only depends on the top 2(l+m) of them.
    """
    full_width, truncate = _variant(variant)
    k = v.degree
    target = h - k + 1
    if full_width:
        w = shift(w, target - accurate)
    while target > accurate:
        grow = 0 if full_width else min(target - accurate, accurate)
        drop = max(0, k - 2 * (accurate + grow) + 1) if truncate else 0
        top = h if full_width else k + accurate + grow - 1
        w = step(top - drop, shift(v, -drop), w, grow, accurate, orientation)
        accurate = min(2 * accurate, target)
        if trace is not None:
            trace.record(accurate, w, grow, drop)
    return w


def shinv(v, h, variant=None, orientation=RIGHT, trace=None):
    """The whole h-shifted inverse x**h quo v (the same on both sides).

    Requires v nonzero with an invertible leading coefficient and h >= 0.
    Degenerate shapes (h < k, constant or monomial divisors, h = k) are
    answered directly; everything else goes through :func:`refine` with the
    given variant (1, 2 or 3; None means 3).
    """
    if v.is_zero:
        raise ZeroDivisionError("shifted inverse of the zero polynomial")
    if h < 0:
        raise ValueError("shift amount must be non-negative")
    _variant(variant)
    ring = v.ring
    k = v.degree
    if h < k:
        ring.inv(v.lc)  # raises NotInvertible here too, as on every other shape
        return DensePoly.zero(ring)
    if k == 0 or h == k or v == DensePoly.monomial(ring, v.lc, k):
        return DensePoly.monomial(ring, ring.inv(v.lc), h - k)
    w, accurate = shinv0(v)  # inverts lc(v)
    return refine(v, h, w, accurate, variant, orientation, trace)


def quo(u, v, orientation=RIGHT, variant=None, trace=None):
    """Quotient and remainder via the whole shifted inverse.

    With h = deg u, computes q = shift(u * shinv(v, h+1), -h-1) for RIGHT (and
    the mirrored product for LEFT), then r = u - q*v resp. u - v*q.  Using
    h+1 keeps the internal shift strictly above deg v whenever deg u >= deg v.
    """
    if v.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    _variant(variant)
    ring = u.ring
    if u.is_zero:
        ring.inv(v.lc)
        return DensePoly.zero(ring), DensePoly.zero(ring)
    h = u.degree
    iv = shinv(v, h + 1, variant, orientation, trace)
    q = shift(mul_oriented(u, iv, orientation), -h - 1)
    r = u - mul_oriented(q, v, orientation)
    return q, r
