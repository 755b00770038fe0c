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

The paper finds the left shifted inverse by the same Newton-Schulz shaped
update as for central variables, w <- w + shift(w * rho, -h) with
rho = x**h - v*w, but here it may gain as little as one correct coefficient
per pass.  By default ``lshinv`` takes the exact Newton step instead, in the
ring of pseudo-differential operators: x**-h is moved past rho's
coefficients by the Leibniz rule, and only finitely many of the terms reach
x**0 after w, so the step is w <- w + shift(w * R, -(h+K)) for an ordinary
operator R and K = deg rho - k.  The paper's update is its case
(R, K) = (rho, 0).  Newton roughly doubles the correct coefficients per
pass and is capped at ceil(log2(h-k+1)) + 2 passes; the paper's update
stays selectable with ``variant="paper"`` and keeps its linear cap.  Both
stop on the residual-degree test.

Every product in the route but the remainder's is kept only from some
degree on, so ``skew_mul`` takes ``lo`` and computes only the coefficients
at degree >= lo.
"""

from math import comb

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


class SkewPoly(CoeffPoly):
    """An immutable skew polynomial sum(c_i x**i) with coefficients on the left."""

    __slots__ = ("ctx",)
    _owner = "ctx"

    @property
    def ring(self):
        return self.ctx.ring

    def __repr__(self):
        return "SkewPoly(%r)" % (list(self.coeffs),)

    def __mul__(self, other):
        return skew_mul(self, other)

    def __pow__(self, n):
        return skew_pow(self, n)


def skew_mul(a, b, lo=0):
    """Product of skew polynomials, multiplying b by each monomial of a.

    The rows x**i * b are built incrementally by the commutation rule: in
    x * sum(c_j x**j), sigma lifts each term one place and delta keeps it in
    place.  The ring then sums the rows scaled on the left by a's
    coefficients in one ``seq_lincomb``.

    Only the coefficients at degree >= ``lo`` are computed; those below are
    zero in the result.  Entry m of row i+1 reads only entries m-1 and m of
    row i, so row i is built only from position lo - (deg a - i), and only
    its entries from lo on reach ``seq_lincomb``, which tallies what it
    multiplies.
    """
    a._same_ring(b)
    ctx = a.ctx
    n = a.degree
    lo = max(lo, 0)
    if a.is_zero or b.is_zero or lo > n + b.degree:
        return ctx.zero()
    ring = ctx.ring
    sigma, delta = ctx.ore.sigma, ctx.ore.delta
    start = max(lo - n, 0)
    row = list(b.coeffs[start:])
    rows = [row[lo - start :]]
    for i in range(1, n + 1):
        drop = 1 if lo - n + i > 0 else 0  # row i starts one place further on
        lifted = [ring.zero] * (1 - drop)
        lifted.extend(row if sigma is None else map(sigma, row))
        if delta is not None:
            lifted = ring.seq_add(lifted, list(map(delta, row[drop:])))
        row = lifted
        rows.append(row[n - i if drop else lo :])
    return SkewPoly(ctx, [ring.zero] * lo + ring.seq_lincomb(a.coeffs, rows))


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
    delta = ctx.ore.delta
    cur = p
    result = ring.mul(op.coeffs[0], cur)
    for c in op.coeffs[1:]:
        cur = ring.zero if delta is None else delta(cur)
        result = ring.add(result, ring.mul(c, cur))
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


def lshinv(v, h, trace=None, variant=None):
    """Left whole h-shifted inverse x**h lquo v for monic differential v.

    Start from the two top coefficients of the answer and pass until the
    residual rho = x**h - v*w, computed from x**k on, drops below deg v = k,
    which certifies w exactly.  Each pass makes two products: v*w, then the
    update w <- w + shift(w * R, -(h+K)).

    ``variant=None`` takes the Newton step in the ring of pseudo-differential
    operators, (R, K) from :func:`_negative_power_times`, and is allowed
    ceil(log2(h-k+1)) + 2 updates.  ``variant="paper"`` is the same step with
    (R, K) = (rho, 0), which may add only one correct coefficient per pass,
    so it is allowed h-k+1.  With a zero derivation the two coincide.  A
    derivation other than zero or the ring's ``diff`` need not be nilpotent,
    so x**-h cannot pass a coefficient in finitely many terms: it takes the
    paper's step.  ``trace``, if given, collects the residual degree seen
    before each update.
    """
    if variant not in (None, "paper"):
        raise ValueError("unknown lshinv variant %r" % (variant,))
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
    delta = ctx.ore.delta
    newton = variant is None and (
        delta is None or _map_key(delta) == _map_key(getattr(ring, "diff", None))
    )
    leibniz = newton and delta is not None  # a zero derivation's R is rho
    xh = ctx.monomial(ring.one, h)
    w = ctx.monomial(ring.one, h - k) - ctx.monomial(v.coeff(k - 1), h - k - 1)
    cap = (h - k).bit_length() + 2 if newton else h - k + 1
    updates = 0
    while True:
        rho = xh - skew_mul(v, w, k)
        if rho.is_zero or rho.degree < k:
            return w
        if updates >= cap:
            raise NoConvergence(
                "left shifted inverse did not converge within %d updates" % updates
            )
        if trace is not None:
            trace.append(rho.degree)
        R, K = _negative_power_times(rho, h, k) if leibniz else (rho, 0)
        w = w + shift(skew_mul(w, R, h + K), -(h + K))
        updates += 1


def _negative_power_times(rho, h, k):
    """(R, K) with w * x**-h * rho = w * R * x**-(h+K) from x**0 on, for deg w = h-k.

    Over GF(p)[y], by the Leibniz rule for negative powers, x**-h * c is the
    finite sum over kappa of C(-h, kappa) c^(kappa) x**(-h-kappa).  A term of
    rho_j with kappa > j-k lies below x**(k-h), so after w below x**0, and is
    left out; K = deg rho - k then makes every power of R non-negative.  The
    entries are integer multiples of derivatives: like ``diff``, they make no
    counted multiplication.
    """
    ring = rho.ring
    p = ring.base.p
    K = rho.degree - k
    acc = [ring.zero] * (len(rho.coeffs) + K)
    for j in range(k, len(rho.coeffs)):
        d = rho.coeffs[j]
        for kappa in range(j - k + 1):
            if not d:
                break
            b = (-1) ** kappa * comb(h + kappa - 1, kappa) % p
            acc[j + K - kappa] = ring.add(acc[j + K - kappa], [(b * x) % p for x in d])
            d = ring.diff(d)
    return rho._like(acc), K


def rshinv(v, h):
    """Right whole h-shifted inverse x**h rquo v, by classical right division."""
    ctx = v.ctx
    q, _ = skew_classical_div(ctx.monomial(ctx.ring.one, h), v, RIGHT)
    return q


def rquo_via_lshinv(u, v, variant=None):
    """Right quotient and remainder from the left shifted inverse.

    With h = deg u:  q = shift(u * lshinv(v, h, variant=variant), -h),
    r = u - q*v, where u * lshinv is computed only from x**h on.  Requires
    monic differential v.
    """
    u._same_ring(v)
    ctx = u.ctx
    if v.is_zero:
        raise ZeroDivisionError("skew division by zero")
    if u.is_zero:
        lshinv(v, 0, variant=variant)  # surface sigma/monic violations uniformly
        return ctx.zero(), ctx.zero()
    h = u.degree
    iv = lshinv(v, h, variant=variant)
    q = shift(skew_mul(u, iv, h), -h)
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
