"""Exact coefficient rings: prime fields, square matrices, dense polynomial rings.

Ring elements are plain immutable Python values (ints for GF(p), nested tuples
for matrices and polynomials); a ring object supplies the operations.  This
keeps elements hashable and comparable with ``==`` and lets one counter track
base-field multiplications for the benchmark harness.

Ring objects themselves are cheap and stateless apart from the multiplication
counter.  For concurrent benchmark runs, give each worker its own ring
instance and merge the counts afterwards.
"""

from .errors import DimensionMismatch, NotInvertible


class Ring:
    """Contract for an exact coefficient ring.

    Concrete rings provide ``zero``, ``one``, ``add``, ``sub``, ``neg``,
    ``mul``, a partial ``inv``, and an ``is_commutative`` flag.  ``mul_count``
    is a monotone count of base-field multiplications performed so far.
    """

    is_commutative = True
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == self.zero

    def from_int(self, n):
        """Image of the integer n under the canonical map Z -> ring."""
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    @property
    def mul_count(self):
        raise NotImplementedError


def is_prime_modulus(p):
    """Whether p is a prime below 2**31.

    Miller-Rabin with the bases 2, 3, 5, 7 has no false positives below
    3,215,031,751, so for these moduli the test is exact.
    """
    if not isinstance(p, int) or p < 2 or p >= 2**31:
        return False
    for b in (2, 3, 5, 7):
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GF(Ring):
    """Prime field GF(p); elements are ints in [0, p).  p must be a prime below 2**31."""

    def __init__(self, p):
        if not is_prime_modulus(p):
            raise ValueError("modulus must be a prime below 2**31, got %r" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1
        self._mul_count = 0

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        self._mul_count += 1
        return a * b % self.p

    def inv(self, a):
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise NotInvertible("%d has no inverse in GF(%d)" % (a, self.p)) from None

    def from_int(self, n):
        return n % self.p

    def random_element(self, rng):
        return rng.randrange(self.p)

    def tally(self, n):
        """Record n base-field multiplications done in bulk by a wrapper ring."""
        self._mul_count += n

    @property
    def mul_count(self):
        return self._mul_count


class MatrixRing(Ring):
    """Square n-by-n matrices over a base ring, stored as tuples of row tuples.

    Multiplication performs n**3 base-ring products, so ``mul_count`` (which
    delegates to the base ring) grows by n**3 per matrix product.  Inversion
    requires the base ring to be a field.
    """

    def __init__(self, n, base):
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        self.n = n
        self.base = base
        self.is_commutative = n == 1 and base.is_commutative
        self.zero = tuple(tuple(base.zero for _ in range(n)) for _ in range(n))
        self.one = tuple(
            tuple(base.one if i == j else base.zero for j in range(n)) for i in range(n)
        )

    def __repr__(self):
        return "MatrixRing(%d, %r)" % (self.n, self.base)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixRing) and other.n == self.n and other.base == self.base
        )

    def __hash__(self):
        return hash(("MatrixRing", self.n, self.base))

    def _check(self, a):
        if len(a) != self.n or any(len(row) != self.n for row in a):
            raise DimensionMismatch(
                "expected a %dx%d matrix" % (self.n, self.n)
            )

    def add(self, a, b):
        badd = self.base.add
        return tuple(
            tuple(badd(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    def sub(self, a, b):
        bsub = self.base.sub
        return tuple(
            tuple(bsub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    def neg(self, a):
        bneg = self.base.neg
        return tuple(tuple(bneg(x) for x in row) for row in a)

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        n = self.n
        badd = self.base.add
        bmul = self.base.mul
        cols = tuple(zip(*b))
        out = []
        for row in a:
            out_row = []
            for col in cols:
                acc = bmul(row[0], col[0])
                for k in range(1, n):
                    acc = badd(acc, bmul(row[k], col[k]))
                out_row.append(acc)
            out.append(tuple(out_row))
        return tuple(out)

    def inv(self, a):
        """Invert by Gauss-Jordan elimination over the (field) base ring.

        Pivots on the first row with a nonzero entry in the pivot column;
        arithmetic is exact, so there is no numerical pivoting concern.
        Raises NotInvertible when a pivot column is all zero.
        """
        self._check(a)
        n = self.n
        base = self.base
        work = [list(row) + [base.one if i == j else base.zero for j in range(n)]
                for i, row in enumerate(a)]
        for col in range(n):
            pivot = None
            for row in range(col, n):
                if not base.is_zero(work[row][col]):
                    pivot = row
                    break
            if pivot is None:
                raise NotInvertible("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            scale = base.inv(work[col][col])
            work[col] = [base.mul(scale, x) for x in work[col]]
            for row in range(n):
                if row == col:
                    continue
                factor = work[row][col]
                if base.is_zero(factor):
                    continue
                prow = work[col]
                work[row] = [
                    base.sub(x, base.mul(factor, px)) for x, px in zip(work[row], prow)
                ]
        return tuple(tuple(row[n:]) for row in work)

    def from_int(self, n):
        c = self.base.from_int(n)
        return tuple(
            tuple(c if i == j else self.base.zero for j in range(self.n))
            for i in range(self.n)
        )

    def from_rows(self, rows):
        """Build an element from nested lists of integers, reduced in the base ring."""
        m = tuple(tuple(self.base.from_int(x) for x in row) for row in rows)
        self._check(m)
        return m

    def random_element(self, rng):
        be = self.base.random_element
        return tuple(
            tuple(be(rng) for _ in range(self.n)) for _ in range(self.n)
        )

    def random_invertible(self, rng):
        while True:
            a = self.random_element(rng)
            try:
                self.inv(a)
            except NotInvertible:
                continue
            return a

    @property
    def mul_count(self):
        return self.base.mul_count


class PolyRing(Ring):
    """Commutative dense univariate polynomials over GF(p), used as a coefficient ring.

    Elements are little-endian tuples of ints with no trailing zeros; the
    empty tuple is the zero polynomial.  Only nonzero constants are units.
    This is the coefficient ring for differential operators, so it also
    provides the formal derivative ``diff``.
    """

    is_commutative = True

    def __init__(self, base, var="y"):
        if not isinstance(base, GF):
            raise TypeError("PolyRing coefficients must come from a GF instance")
        self.base = base
        self.var = var
        self.zero = ()
        self.one = (1,)

    def __repr__(self):
        return "PolyRing(%r, %r)" % (self.base, self.var)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("PolyRing", self.base, self.var))

    def _trim(self, coeffs):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        return tuple(coeffs[:end])

    def add(self, a, b):
        p = self.base.p
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return self._trim(out)

    def neg(self, a):
        p = self.base.p
        return tuple(-c % p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        p = self.base.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        self.base.tally(len(a) * len(b))
        return self._trim([c % p for c in out])

    def inv(self, a):
        if len(a) != 1:
            raise NotInvertible("only nonzero constants are units in %r" % self)
        return (self.base.inv(a[0]),)

    def diff(self, a):
        """Formal derivative with respect to the polynomial variable."""
        p = self.base.p
        return self._trim([(i * c) % p for i, c in enumerate(a)][1:])

    def from_int(self, n):
        return self._trim((n % self.base.p,))

    def from_coeffs(self, coeffs):
        """Build an element from a little-endian list of integers mod p."""
        p = self.base.p
        return self._trim([c % p for c in coeffs])

    def random_element(self, rng, max_degree=4):
        return self._trim([rng.randrange(self.base.p) for _ in range(max_degree + 1)])

    @property
    def mul_count(self):
        return self.base.mul_count
