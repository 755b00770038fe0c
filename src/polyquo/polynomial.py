"""Dense univariate polynomials over a coefficient ring, with a central variable.

Coefficients are stored little-endian (index i holds the coefficient of x**i)
with no trailing zeros; the zero polynomial has an empty coefficient tuple and
its degree is the distinct sentinel ``None``, never -1.

The variable x commutes with every coefficient but coefficients need not
commute with each other, so every product here is order-preserving and the
two-sided division algorithms thread an :class:`Orientation` through each
coefficient product instead of duplicating code.
"""

import enum

from .errors import NotCentral

# Products with both operands above this many coefficients switch from
# schoolbook to Karatsuba.  Karatsuba remains valid over non-commutative
# rings because every sub-product keeps left factors from the left operand.
KARATSUBA_THRESHOLD = 16


class Orientation(enum.Enum):
    """Which side the quotient multiplies the divisor on.

    RIGHT leaves each product in written order (a, b) -> a*b; LEFT swaps it,
    (a, b) -> b*a.  RIGHT division produces u = q*v + r, LEFT produces
    u = v*q + r.
    """

    LEFT = "left"
    RIGHT = "right"

    def pair(self, a, b):
        return (b, a) if self is Orientation.LEFT else (a, b)


LEFT = Orientation.LEFT
RIGHT = Orientation.RIGHT


class CoeffPoly:
    """The immutable coefficient-sequence core shared by dense and skew polynomials.

    A subclass names the slot holding its ring context in ``_owner``, exposes
    the coefficient ring as ``ring`` and supplies ``_same_ring``; the
    constructor takes (owner, coeffs, normalized) and trims trailing zeros
    unless told the sequence is already normalized.
    """

    __slots__ = ("coeffs",)
    _owner = None

    def __init__(self, owner, coeffs, normalized=False):
        object.__setattr__(self, self._owner, owner)
        coeffs = tuple(coeffs)
        if not normalized:
            end = len(coeffs)
            zero = self.ring.zero
            while end > 0 and coeffs[end - 1] == zero:
                end -= 1
            coeffs = coeffs[:end]
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _like(self, coeffs, normalized=False):
        """A polynomial of the same kind and context with the given coefficients."""
        return type(self)(getattr(self, self._owner), coeffs, normalized)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def prec(self):
        """Number of coefficients (degree + 1); 0 for the zero polynomial."""
        return len(self.coeffs)

    @property
    def lc(self):
        """Leading coefficient; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def __add__(self, other):
        self._same_ring(other)
        return self._like(_add_coeffs(self.ring, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same_ring(other)
        return self._like(_sub_coeffs(self.ring, self.coeffs, other.coeffs))

    def __neg__(self):
        neg = self.ring.neg
        return self._like(tuple(neg(c) for c in self.coeffs), normalized=True)

    def shift(self, n):
        return shift(self, n)


class DensePoly(CoeffPoly):
    """An immutable dense polynomial over a :class:`~polyquo.rings.Ring`."""

    __slots__ = ("ring",)
    _owner = "ring"

    @classmethod
    def zero(cls, ring):
        return cls(ring, (), normalized=True)

    @classmethod
    def one(cls, ring):
        return cls(ring, (ring.one,), normalized=True)

    @classmethod
    def monomial(cls, ring, c, n):
        """The polynomial c * x**n."""
        if ring.is_zero(c):
            return cls.zero(ring)
        return cls(ring, (ring.zero,) * n + (c,), normalized=True)

    @classmethod
    def from_ints(cls, ring, ints):
        """Build from little-endian integers via the ring's canonical map."""
        return cls(ring, [ring.from_int(n) for n in ints])

    def _same_ring(self, other):
        if not isinstance(other, DensePoly):
            raise TypeError("expected a DensePoly, got %r" % (other,))
        if not (self.ring is other.ring or self.ring == other.ring):
            raise ValueError("polynomials come from different rings")

    def __eq__(self, other):
        return (
            isinstance(other, DensePoly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return "DensePoly(%r, %r)" % (self.ring, list(self.coeffs))

    def __mul__(self, other):
        """Product in written order: self's coefficients stay on the left."""
        self._same_ring(other)
        return DensePoly(self.ring, _mul_coeffs(self.ring, self.coeffs, other.coeffs))


def _mul_schoolbook(ring, a, b, n=None):
    """Schoolbook product of coefficient sequences, kept below x**n when n is given."""
    size = len(a) + len(b) - 1
    if n is not None and n < size:
        size = n
    out = [ring.zero] * size
    add = ring.add
    mul = ring.mul
    zero = ring.zero
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b[: size - i], i):
            out[j] = add(out[j], mul(ai, bj))
    return out


def _add_into(ring, out, part, offset):
    add = ring.add
    for i, c in enumerate(part):
        out[offset + i] = add(out[offset + i], c)


def _sub_coeffs(ring, a, b):
    sub = ring.sub
    zero = ring.zero
    n = max(len(a), len(b))
    return [
        sub(a[i] if i < len(a) else zero, b[i] if i < len(b) else zero)
        for i in range(n)
    ]


def _add_coeffs(ring, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = ring.add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return out


def _mul_coeffs(ring, a, b):
    """Order-preserving product of coefficient sequences (may have junk trailing zeros)."""
    if not a or not b:
        return ()
    if min(len(a), len(b)) <= KARATSUBA_THRESHOLD:
        return _mul_schoolbook(ring, a, b)
    # Karatsuba split at half of the longer operand.  Left factors always come
    # from a and right factors from b, so no commutation is assumed.
    m = max(len(a), len(b)) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    low = _mul_coeffs(ring, a0, b0) if a0 and b0 else ()
    high = _mul_coeffs(ring, a1, b1) if a1 and b1 else ()
    asum = _add_coeffs(ring, a0, a1)
    bsum = _add_coeffs(ring, b0, b1)
    mid = _mul_coeffs(ring, asum, bsum) if asum and bsum else ()
    if low:
        mid = _sub_coeffs(ring, mid, low)
    if high:
        mid = _sub_coeffs(ring, mid, high)
    out = [ring.zero] * (len(a) + len(b) - 1)
    if low:
        _add_into(ring, out, low, 0)
    if mid:
        _add_into(ring, out, mid, m)
    if high:
        _add_into(ring, out, high, 2 * m)
    return out


def mul_oriented(u, v, orientation):
    """The oriented product: u*v for RIGHT, v*u for LEFT."""
    a, b = orientation.pair(u, v)
    return a * b


def shift(u, n):
    """Whole n-shift: multiply by x**n, dropping terms whose exponent would go negative.

    For skew polynomials this is the right whole shift sum(c_i x**(i+n)).
    """
    if n == 0 or u.is_zero:
        return u
    if n > 0:
        return u._like((u.ring.zero,) * n + u.coeffs, normalized=True)
    return u._like(u.coeffs[-n:], normalized=True)


def mul_mod(u, v, n, orientation=RIGHT):
    """The oriented product reduced mod x**n, computing only needed products.

    Only coefficients below x**n of either operand can contribute, so both are
    truncated up front; large truncations still go through Karatsuba.
    """
    if n < 0:
        raise ValueError("modulus exponent must be non-negative")
    a, b = orientation.pair(u, v)
    ring = u.ring
    if n == 0 or a.is_zero or b.is_zero:
        return DensePoly.zero(ring)
    aa = a.coeffs[:n]
    bb = b.coeffs[:n]
    if min(len(aa), len(bb)) <= KARATSUBA_THRESHOLD:
        return DensePoly(ring, _mul_schoolbook(ring, aa, bb, n))
    return DensePoly(ring, _mul_coeffs(ring, aa, bb)[:n])


def classical_div(u, v, orientation=RIGHT):
    """Classical O(N^2) division for divisors with an invertible leading coefficient.

    Returns (q, r) with u = q*v + r (RIGHT) or u = v*q + r (LEFT), and r = 0
    or deg r < deg v.  Raises NotInvertible when the divisor's leading
    coefficient has no inverse, and ZeroDivisionError on a zero divisor.
    """
    if v.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    u._same_ring(v)
    ring = u.ring
    vstar = ring.inv(v.lc)
    if u.is_zero:
        return DensePoly.zero(ring), DensePoly.zero(ring)
    h = u.degree
    k = v.degree
    if h < k:
        return DensePoly.zero(ring), u
    right = orientation is RIGHT
    mul = ring.mul
    sub = ring.sub
    zero = ring.zero
    vco = v.coeffs
    rem = list(u.coeffs)
    q = [zero] * (h - k + 1)
    for i in range(h - k, -1, -1):
        lead = rem[i + k]
        if lead == zero:
            continue
        c = mul(lead, vstar) if right else mul(vstar, lead)
        q[i] = c
        # subtract (c x^i) times v on the orientation's side
        if right:
            for j in range(k + 1):
                rem[i + j] = sub(rem[i + j], mul(c, vco[j]))
        else:
            for j in range(k + 1):
                rem[i + j] = sub(rem[i + j], mul(vco[j], c))
    return DensePoly(ring, q), DensePoly(ring, rem[:k])


def pseudo_div(u, v, orientation=RIGHT):
    """Pseudodivision for divisors whose leading coefficient is central in v.

    With m = v_k**(h-k+1), returns (q, r) such that m*u = v*q + r for LEFT and
    u*m = q*v + r for RIGHT, with r = 0 or deg r < deg v.  No coefficient
    inverses are used.  Raises NotCentral when v's leading coefficient fails
    to commute with some coefficient of v (the identity needs only that much
    centrality).
    """
    if v.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    u._same_ring(v)
    ring = u.ring
    vk = v.lc
    mul = ring.mul
    for c in v.coeffs:
        if mul(vk, c) != mul(c, vk):
            raise NotCentral("leading coefficient does not commute with the divisor")
    if u.is_zero:
        return DensePoly.zero(ring), DensePoly.zero(ring)
    h = u.degree
    k = v.degree
    if h < k:
        return DensePoly.zero(ring), u
    right = orientation is RIGHT
    sub = ring.sub
    zero = ring.zero
    vco = v.coeffs
    # powers of v_k up to h-k, for assembling q
    pows = [ring.one]
    for _ in range(h - k):
        pows.append(mul(pows[-1], vk))
    rem = list(u.coeffs)
    q = [zero] * (h - k + 1)
    for i in range(h - k, -1, -1):
        t = rem[i + k]
        # rem <- rem (x) v_k  -  (t x^i) (x) v, with (x) on the orientation's side
        if right:
            for idx in range(i + k + 1):
                rem[idx] = mul(rem[idx], vk)
            for j in range(k + 1):
                rem[i + j] = sub(rem[i + j], mul(t, vco[j]))
            q[i] = mul(t, pows[i])
        else:
            for idx in range(i + k + 1):
                rem[idx] = mul(vk, rem[idx])
            for j in range(k + 1):
                rem[i + j] = sub(rem[i + j], mul(vco[j], t))
            q[i] = mul(pows[i], t)
    return DensePoly(ring, q), DensePoly(ring, rem[:k])
