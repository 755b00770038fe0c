"""Skew (Ore) polynomials: the variable no longer commutes with coefficients.

Elements are sums c_i x**i with coefficients kept on the left of the powers.
Moving x past a coefficient follows the commutation rule

    x * c = sigma(c) * x + delta(c)

for an endomorphism sigma and a sigma-derivation delta.  With sigma the
identity this is a differential operator ring; that is the only case the
division operations support.  Left and right whole shifts and shifted
inverses genuinely differ here, and only the right quotient can be recovered
from the (left) shifted inverse:

    u rquo v = shift(u * lshinv(v, h), -h),   h = deg u,

where ``shift`` is the right whole shift sum(c_i x**(i+n)), a pure index
shift shared with dense polynomials.

The left shifted inverse is found by the same Newton-Schulz shaped update as
for central variables, but it may gain as little as one correct coefficient
per pass, so the loop runs on a residual-degree test with a linear cap
instead of a doubling count.
"""

from .errors import (
    NegativeLeftShift,
    NoConvergence,
    NotMonic,
    UnsupportedSigma,
)
from .polynomial import RIGHT, CoeffPoly, shift
from .rings import GF, PolyRing


class OrePair:
    """A twist endomorphism and derivation; ``None`` means identity / zero map.

    The algebra laws (sigma a ring endomorphism, delta additive with
    delta(a*b) = sigma(a)*delta(b) + delta(a)*b) are the caller's
    responsibility; the test suite checks them for the rings shipped here.
    Both maps must be pure functions.
    """

    __slots__ = ("sigma", "delta")

    def __init__(self, sigma=None, delta=None):
        self.sigma = sigma
        self.delta = delta

    @property
    def is_differential(self):
        return self.sigma is None

    def _key(self):
        return _map_key(self.sigma), _map_key(self.delta)

    def __eq__(self, other):
        return isinstance(other, OrePair) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())


def _map_key(f):
    """A map compared by value: bound methods of equal rings are the same map.

    Python compares bound methods by the identity of their instance, so two
    equal coefficient rings would otherwise give unequal derivations.
    """
    func = getattr(f, "__func__", None)
    return f if func is None else (func, f.__self__)


class SkewPolyRing:
    """Context for skew polynomials: coefficient ring, Ore pair, operator symbol."""

    def __init__(self, ring, ore, var="x"):
        self.ring = ring
        self.ore = ore
        self.var = var

    def __repr__(self):
        return "SkewPolyRing(%r, var=%r)" % (self.ring, self.var)

    def __eq__(self, other):
        return (
            isinstance(other, SkewPolyRing)
            and other.ring == self.ring
            and other.ore == self.ore
            and other.var == self.var
        )

    def __hash__(self):
        return hash((self.ring, self.ore, self.var))

    def zero(self):
        return SkewPoly(self, ())

    def one(self):
        return SkewPoly(self, (self.ring.one,))

    def x(self):
        """The bare operator (variable) as a polynomial."""
        return SkewPoly(self, (self.ring.zero, self.ring.one))

    def monomial(self, c, n):
        if self.ring.is_zero(c):
            return self.zero()
        return SkewPoly(self, (self.ring.zero,) * n + (c,))

    def poly(self, coeffs):
        return SkewPoly(self, coeffs)

    def _sigma(self, c):
        return c if self.ore.sigma is None else self.ore.sigma(c)

    def _delta(self, c):
        return self.ring.zero if self.ore.delta is None else self.ore.delta(c)


class SkewPoly(CoeffPoly):
    """An immutable skew polynomial sum(c_i x**i) with coefficients on the left."""

    __slots__ = ("ctx",)
    _owner = "ctx"

    @property
    def ring(self):
        return self.ctx.ring

    def _same_ring(self, other):
        if not isinstance(other, SkewPoly):
            raise TypeError("expected a SkewPoly, got %r" % (other,))
        if not (self.ctx is other.ctx or self.ctx == other.ctx):
            raise ValueError("operands come from different skew rings")

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "SkewPoly(%r)" % (list(self.coeffs),)

    def __mul__(self, other):
        return skew_mul(self, other)

    def __pow__(self, n):
        return skew_pow(self, n)


def _var_times(ctx, coeffs):
    """Coefficients of x * sum(c_i x**i): sigma lifts each term, delta keeps it."""
    ring = ctx.ring
    shifted = [ring.zero] + [ctx._sigma(c) for c in coeffs]
    derived = [ctx._delta(c) for c in coeffs] + [ring.zero]
    return [ring.add(s, d) for s, d in zip(shifted, derived)]


def skew_mul(a, b):
    """Product of skew polynomials, multiplying b by each monomial of a.

    x**i * b is built incrementally by i applications of the commutation
    rule, then scaled on the left by a's coefficient.
    """
    a._same_ring(b)
    ctx = a.ctx
    ring = ctx.ring
    if a.is_zero or b.is_zero:
        return ctx.zero()
    out = [ring.zero] * (a.degree + b.degree + 1)
    cur = list(b.coeffs)  # x**i * b for the current i
    for i, ai in enumerate(a.coeffs):
        if i > 0:
            cur = _var_times(ctx, cur)
        if ai == ring.zero:
            continue
        for j, cj in enumerate(cur):
            out[j] = ring.add(out[j], ring.mul(ai, cj))
    return SkewPoly(ctx, out)


def skew_pow(a, n):
    """a**n by binary powering; a**0 is 1."""
    if n < 0:
        raise ValueError("negative powers of skew polynomials are not defined")
    p = a.ctx.one()
    base = a
    while n > 0:
        if n & 1:
            p = skew_mul(p, base)
        n >>= 1
        if n:
            base = skew_mul(base, base)
    return p


def apply_operator(op, p):
    """Act on a coefficient-ring element:  sum(c_i * delta**i(p)).

    Only differential operators (identity sigma) act this way.
    """
    ctx = op.ctx
    if not ctx.ore.is_differential:
        raise UnsupportedSigma("operator application needs an identity sigma")
    ring = ctx.ring
    if op.is_zero:
        return ring.zero
    cur = p
    result = ring.mul(op.coeffs[0], cur)
    for i in range(1, len(op.coeffs)):
        cur = ctx._delta(cur)
        result = ring.add(result, ring.mul(op.coeffs[i], cur))
    return result


def lshift(v, n):
    """Left whole n-shift x**n * v; negative n has no skew meaning and is an error."""
    if n < 0:
        raise NegativeLeftShift("left whole shifts require n >= 0")
    if n == 0 or v.is_zero:
        return v
    return skew_mul(v.ctx.monomial(v.ring.one, n), v)


def skew_classical_div(u, v, orientation=RIGHT):
    """Classical left/right division of differential operators.

    Returns (q, r) with u = q*v + r (RIGHT) or u = v*q + r (LEFT) and r = 0 or
    deg r < deg v.  Requires identity sigma and an invertible leading
    coefficient of v.
    """
    u._same_ring(v)
    ctx = u.ctx
    if not ctx.ore.is_differential:
        raise UnsupportedSigma("classical skew division needs an identity sigma")
    if v.is_zero:
        raise ZeroDivisionError("skew division by zero")
    ring = ctx.ring
    ivk = ring.inv(v.lc)
    if u.is_zero:
        return ctx.zero(), ctx.zero()
    h = u.degree
    k = v.degree
    if h < k:
        return ctx.zero(), u
    right = orientation is RIGHT
    qco = [ring.zero] * (h - k + 1)
    rem = u
    for i in range(h - k, -1, -1):
        lead = rem.coeff(i + k)
        if lead == ring.zero:
            continue
        c = ring.mul(lead, ivk) if right else ring.mul(ivk, lead)
        qco[i] = c
        t = ctx.monomial(c, i)
        rem = rem - (skew_mul(t, v) if right else skew_mul(v, t))
    return SkewPoly(ctx, qco), rem


def lshinv(v, h, trace=None):
    """Left whole h-shifted inverse x**h lquo v for monic differential v.

    Iterates w <- w + shift(w * (x**h - v*w), -h) until the residual
    x**h - v*w drops below deg v, which certifies w exactly.  Each pass may
    add only one correct coefficient, so up to h-k+1 updates are allowed
    before NoConvergence is raised.  ``trace``, if given, collects the
    residual degree seen before each update.
    """
    ctx = v.ctx
    if not ctx.ore.is_differential:
        raise UnsupportedSigma("the shifted-inverse iteration needs an identity sigma")
    if v.is_zero:
        raise ZeroDivisionError("shifted inverse of the zero operator")
    ring = ctx.ring
    if v.lc != ring.one:
        raise NotMonic("the left shifted-inverse iteration needs a monic divisor")
    k = v.degree
    if h < k:
        return ctx.zero()
    if h == k:
        return ctx.one()
    xh = ctx.monomial(ring.one, h)
    w = ctx.monomial(ring.one, h - k) - ctx.monomial(v.coeff(k - 1), h - k - 1)
    updates = 0
    while True:
        rho = xh - skew_mul(v, w)
        if rho.is_zero or rho.degree < k:
            return w
        if updates >= h - k + 1:
            raise NoConvergence(
                "left shifted inverse did not converge within %d updates" % updates
            )
        if trace is not None:
            trace.append(rho.degree)
        w = w + shift(skew_mul(w, rho), -h)
        updates += 1


def rshinv(v, h):
    """Right whole h-shifted inverse x**h rquo v, by classical right division."""
    ctx = v.ctx
    q, _ = skew_classical_div(ctx.monomial(ctx.ring.one, h), v, RIGHT)
    return q


def rquo_via_lshinv(u, v):
    """Right quotient and remainder from the left shifted inverse.

    With h = deg u:  q = shift(u * lshinv(v, h), -h),  r = u - q*v.
    Requires monic differential v.
    """
    u._same_ring(v)
    ctx = u.ctx
    if v.is_zero:
        raise ZeroDivisionError("skew division by zero")
    if u.is_zero:
        lshinv(v, 0)  # surface sigma/monic violations uniformly
        return ctx.zero(), ctx.zero()
    h = u.degree
    iv = lshinv(v, h)
    q = shift(skew_mul(u, iv), -h)
    r = u - skew_mul(q, v)
    return q, r


def make_lodo(p, varname="y", opname="D"):
    """Linear ordinary differential operators over GF(p)[varname].

    The coefficient ring is the commutative polynomial ring GF(p)[varname],
    sigma is the identity and delta the formal derivative, so the operator
    satisfies  opname * r = r * opname + r'.
    """
    coeff_ring = PolyRing(GF(p), varname)
    ore = OrePair(None, coeff_ring.diff)
    return SkewPolyRing(coeff_ring, ore, opname)
