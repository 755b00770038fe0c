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
from .rings import trim

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

    A subclass names the slot holding its ring context in ``_owner`` and
    exposes the coefficient ring as ``ring``; the constructor takes (owner,
    coeffs, normalized) and trims trailing zeros unless told the sequence is
    already normalized.  Two polynomials are equal when they are of the same
    kind, with equal contexts and equal coefficients.
    """

    __slots__ = ("coeffs",)
    _owner = None

    def __init__(self, owner, coeffs, normalized=False):
        object.__setattr__(self, self._owner, owner)
        coeffs = tuple(coeffs) if normalized else trim(coeffs, self.ring.zero)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _like(self, coeffs, normalized=False):
        """A polynomial of the same kind and context with the given coefficients."""
        return type(self)(getattr(self, self._owner), coeffs, normalized)

    def _same_context(self, other):
        mine, theirs = getattr(self, self._owner), getattr(other, self._owner)
        return mine is theirs or mine == theirs

    def _same_ring(self, other):
        if not isinstance(other, type(self)):
            raise TypeError("expected a %s, got %r" % (type(self).__name__, other))
        if not self._same_context(other):
            raise ValueError("polynomials come from different rings")

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self._same_context(other)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

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
        return self._like(self.ring.seq_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same_ring(other)
        return self._like(self.ring.seq_sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return self._like(self.ring.seq_sub((), self.coeffs), normalized=True)


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

    def __repr__(self):
        return "DensePoly(%r, %r)" % (self.ring, list(self.coeffs))

    def __mul__(self, other):
        """Product in written order: self's coefficients stay on the left."""
        self._same_ring(other)
        return DensePoly(self.ring, _mul_coeffs(self.ring, self.coeffs, other.coeffs))


def _mul_coeffs(ring, a, b):
    """Order-preserving product of coefficient sequences (may have junk trailing zeros).

    A product that Karatsuba splits goes whole to ``ring.seq_product`` when
    the ring has one, tallied the count of the recursion from
    :func:`_karatsuba_count`; otherwise it recurses, with ``ring.seq_mul`` at
    the leaves.
    """
    if not a or not b:
        return []
    split = _karatsuba_split(a, b, ring.seq_add, ring.seq_add)
    if split is None:
        return ring.seq_mul(a, b)
    m, *parts = split
    if ring.seq_product is not None:
        return ring.seq_product(a, b, sum(_karatsuba_count(ring, x, y) for x, y in parts))
    low, high, mid = [_mul_coeffs(ring, x, y) for x, y in parts]
    mid = ring.seq_sub(mid, low)
    if high:
        mid = ring.seq_sub(mid, high)
    # low fills x**0 .. x**(2m-2) and high starts at x**(2m), so only the
    # middle part overlaps the others
    zero = ring.zero
    out = low + [zero] * (2 * m - len(low)) + high
    out += [zero] * (len(a) + len(b) - 1 - len(out))
    end = m + len(mid)
    out[m:end] = ring.seq_add(out[m:end], mid)
    return out


def _karatsuba_split(a, b, add_a, add_b):
    """Karatsuba's split of a*b, or None when a*b is a schoolbook leaf.

    A product splits when both operands have more than
    ``KARATSUBA_THRESHOLD`` coefficients, at m, half the longer operand.  The
    split is m with the operand pairs of the three sub-products: (a0, b0),
    (a1, b1) and (a0 + a1, b0 + b1), where a0 = a[:m] and a1 = a[m:], and
    likewise for b.  Left factors always come from a and right factors from
    b, so no commutation is assumed.  a0 and b0 are never empty; a1 or b1 is
    when the shorter operand fits in m.
    """
    la, lb = len(a), len(b)
    if la <= KARATSUBA_THRESHOLD or lb <= KARATSUBA_THRESHOLD:
        return None
    m = (la if la > lb else lb) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    return m, (a0, b0), (a1, b1), (add_a(a0, a1), add_b(b0, b1))


def _karatsuba_count(ring, a, b):
    """The base multiplications :func:`_mul_coeffs` makes when it recurses on a*b.

    No product is formed.  A schoolbook leaf makes one per nonzero entry of
    its left operand and entry of its right operand, so of b only the lengths
    of its parts are read, and the sum of its halves is taken as the longer
    half.  The left operand's sums are formed with ``ring.seq_add``, since
    cancellation makes zeros in them.
    """
    split = _karatsuba_split(a, b, ring.seq_add, _longer)
    if split is None:
        return (len(a) - a.count(ring.zero)) * len(b)
    _, low, high, mid = split
    return (_karatsuba_count(ring, *low) + _karatsuba_count(ring, *high)
            + _karatsuba_count(ring, *mid))


def _longer(x, y):
    return x if len(x) >= len(y) else y


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
        return DensePoly(ring, ring.seq_mul(aa, bb, n))
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
