"""Exact coefficient rings: prime fields, square matrices, dense polynomial rings.

Ring elements are plain immutable Python values (ints for GF(p), nested tuples
for matrices and polynomials); a ring object supplies the operations.  This
keeps elements hashable and comparable with ``==`` and lets one counter track
base-field multiplications for the benchmark harness.

Ring objects themselves are cheap and stateless apart from the multiplication
counter.  For concurrent benchmark runs, give each worker its own ring
instance and merge the counts afterwards.

Besides element operations, a ring supplies the coefficient-sequence kernels
that polynomial arithmetic is built from: ``seq_mul`` (a schoolbook product,
optionally kept below x**n; the leaves of Karatsuba), ``seq_add``,
``seq_sub`` (``seq_sub((), a)`` negates) and ``seq_lincomb`` (a sum of rows,
each scaled on the left; the skew product).  The :class:`Ring` defaults are
element-wise loops over ``mul``/``add``/``sub`` and are the counted
reference.  :class:`GF` overrides the first three with bulk integer
arithmetic, and adds ``seq_product``: a whole product packed into one
Python int per operand (Kronecker substitution), multiplied once and
unpacked.  Every product that Karatsuba would split runs as one such
multiply, tallied the count that the recursion makes (the polynomial layer
walks the split to find it), and so does every leaf above a few coefficient
pairs, tallied the count of the element-wise leaf; so ``mul_count`` means the
same on every path.  :class:`PolyRing` packs in two variables for
``seq_lincomb``: each row becomes one int with a block of slots per entry, and
the scaled rows are summed as ints and unpacked once.  Its ``seq_add`` and
``seq_sub`` are list-wise.
"""

import sys
from array import array
from itertools import zip_longest

from .errors import DimensionMismatch, NotInvertible


def trim(seq, zero=0):
    """seq as a tuple without its trailing zeros."""
    seq = tuple(seq)
    end = len(seq)
    while end and seq[end - 1] == zero:
        end -= 1
    return seq[:end]


class Ring:
    """Contract for an exact coefficient ring.

    Concrete rings provide ``zero``, ``one``, ``add``, ``sub``, ``neg``,
    ``mul``, a partial ``inv``, and an ``is_commutative`` flag.  ``mul_count``
    is a monotone count of base-field multiplications performed so far.  The
    ``seq_*`` kernels work on whole coefficient sequences and return lists; a
    ring may override them with faster code that gives the same lists and
    advances ``mul_count`` by the same amount.  ``seq_product`` is None, or
    a whole product ``seq_product(a, b, count)`` that advances ``mul_count`` by
    the given count; products that Karatsuba would split then skip the
    recursion.
    """

    is_commutative = True
    zero = None
    one = None
    seq_product = None

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

    def is_zero(self, a):
        return a == self.zero

    def from_int(self, n):
        """Image of the integer n under the canonical map Z -> ring."""
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    def random_invertible(self, rng):
        """Draw random elements until one has an inverse, and return it."""
        while True:
            a = self.random_element(rng)
            try:
                self.inv(a)
            except NotInvertible:
                continue
            return a

    @property
    def mul_count(self):
        raise NotImplementedError

    # -- coefficient-sequence kernels; results may carry trailing zeros --

    def seq_mul(self, a, b, n=None):
        """Schoolbook product of coefficient sequences, kept below x**n when n is given.

        Left factors come from a, right factors from b.  One ``mul`` is made
        per pair of a nonzero a[i] and a b[j] with i + j below the kept size.
        """
        size = len(a) + len(b) - 1
        if n is not None and n < size:
            size = max(n, 0)
        out = [self.zero] * size
        add = self.add
        mul = self.mul
        zero = self.zero
        for i, ai in enumerate(a[:size]):
            if ai == zero:
                continue
            for j, bj in enumerate(b[: size - i], i):
                out[j] = add(out[j], mul(ai, bj))
        return out

    def seq_add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        add = self.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return out

    def seq_sub(self, a, b):
        sub = self.sub
        zero = self.zero
        return [sub(x, y) for x, y in zip_longest(a, b, fillvalue=zero)]

    def seq_lincomb(self, scalars, rows):
        """The sum of scalars[i] * rows[i], each scalar multiplying its row's entries from the left.

        Rows with a zero scalar are skipped; every other entry costs one ``mul``.
        The result is as long as the longest row kept.
        """
        out = []
        mul = self.mul
        zero = self.zero
        for c, row in zip(scalars, rows):
            if c != zero:
                out = self.seq_add(out, [mul(c, y) for y in row])
        return out


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
        """Record n base-field multiplications done in bulk."""
        self._mul_count += n

    @property
    def mul_count(self):
        return self._mul_count

    def seq_mul(self, a, b, n=None):
        """The schoolbook leaf product, computed in bulk; see :meth:`Ring.seq_mul`.

        Operands with more than ``_ELEMENTWISE_PAIRS`` coefficient pairs are
        cut to the kept size and multiplied by :meth:`seq_product`, tallied
        the count the element-wise leaf makes.  Smaller operands take the
        element-wise leaf.
        """
        size = len(a) + len(b) - 1
        if n is not None and n < size:
            size = max(n, 0)
        la, lb = min(len(a), size), min(len(b), size)
        if la * lb <= _ELEMENTWISE_PAIRS:
            return Ring.seq_mul(self, a, b, n)
        a, b = a[:size], b[:size]
        if size == la + lb - 1 and 0 not in a:
            count = la * lb
        else:
            count = sum(min(lb, size - i) for i, c in enumerate(a) if c)
        return self.seq_product(a, b, count)[:size]

    def seq_product(self, a, b, count):
        """The whole product of nonempty a and b as one packed multiply, tallying ``count``.

        Each operand is packed into one int with a byte-aligned slot per
        coefficient, wide enough for (p-1)**2 * min(len a, len b), so that no
        slot of the product overflows into the next.  The product is unpacked
        and reduced mod p.  The caller gives the count of base multiplications
        its element-wise route would make.
        """
        self.tally(count)
        p = self.p
        w = _slot_width((p - 1) ** 2 * min(len(a), len(b)))
        product = _pack_int(a, w) * _pack_int(b, w)
        return [c % p for c in _unpack_int(product, w, len(a) + len(b) - 1)]

    def seq_add(self, a, b):
        p = self.p
        return [(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)]

    def seq_sub(self, a, b):
        p = self.p
        return [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]


# GF.seq_mul multiplies element-wise when len(a) * len(b) is at most this;
# below it, packing costs more than the products it replaces.
_ELEMENTWISE_PAIRS = 16

# slot width in bytes -> array type code, ascending, for the widths arrays hold
_SLOT_CODES = dict(sorted((array(code).itemsize, code) for code in "BHIQ"))


def _slot_width(bound):
    """Bytes per slot for values up to ``bound``: 1, 2, 4 or 8 when one suffices."""
    width = (bound.bit_length() + 7) // 8
    return next((w for w in _SLOT_CODES if width <= w), width)


def _pack_int(coeffs, w):
    """The int holding coeffs[i] in its i-th w-byte slot."""
    if w in _SLOT_CODES:
        return int.from_bytes(array(_SLOT_CODES[w], coeffs).tobytes(), sys.byteorder)
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in coeffs]), "little")


def _unpack_int(x, w, count):
    """The first ``count`` w-byte slots of an int packed by :func:`_pack_int`."""
    if w in _SLOT_CODES:
        return memoryview(x.to_bytes(count * w, sys.byteorder)).cast(_SLOT_CODES[w]).tolist()
    data = x.to_bytes(count * w, "little")
    return [int.from_bytes(data[i : i + w], "little") for i in range(0, count * w, w)]


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
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

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

    def add(self, a, b):
        return trim(self.base.seq_add(a, b))

    def neg(self, a):
        return tuple(self.base.seq_sub((), a))

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
        return trim([c % p for c in out])

    def seq_add(self, a, b):
        p = self.base.p
        return [trim([(s + t) % p for s, t in zip_longest(x, y, fillvalue=0)])
                for x, y in zip_longest(a, b, fillvalue=())]

    def seq_sub(self, a, b):
        p = self.base.p
        return [trim([(s - t) % p for s, t in zip_longest(x, y, fillvalue=0)])
                for x, y in zip_longest(a, b, fillvalue=())]

    def seq_lincomb(self, scalars, rows):
        """:meth:`Ring.seq_lincomb` as one packed integer sum, tallying the element-wise count.

        With A the longest scalar and B the longest row entry, entry j of a row
        fills block j of L = A + B - 1 slots, so that a scalar times the packed
        row keeps each entry's product inside its block.  Slots are wide enough
        for (p-1)**2 * min(A, B) per nonzero scalar, so the sum of all the
        products overflows no slot either.
        """
        kept = [(c, row) for c, row in zip(scalars, rows) if c]
        if not kept:
            return []
        p = self.base.p
        a_len = max(len(c) for c, _ in kept)
        b_len = max([1] + [len(y) for _, row in kept for y in row])
        L = a_len + b_len - 1
        w = _slot_width((p - 1) ** 2 * min(a_len, b_len) * len(kept))
        pads = [(0,) * (L - k) for k in range(L + 1)]
        total = muls = 0
        for c, row in kept:
            total += _pack_int(c, w) * _pack_int([x for y in row for x in y + pads[len(y)]], w)
            muls += len(c) * sum(map(len, row))
        self.base.tally(muls)
        n = max(len(row) for _, row in kept)
        flat = [x % p for x in _unpack_int(total, w, n * L)]
        return [trim(flat[j : j + L]) for j in range(0, n * L, L)]

    def inv(self, a):
        if len(a) != 1:
            raise NotInvertible("only nonzero constants are units in %r" % self)
        return (self.base.inv(a[0]),)

    def diff(self, a):
        """Formal derivative with respect to the polynomial variable."""
        p = self.base.p
        return trim([(i * c) % p for i, c in enumerate(a)][1:])

    def from_int(self, n):
        return trim((n % self.base.p,))

    def from_coeffs(self, coeffs):
        """Build an element from a little-endian list of integers mod p."""
        p = self.base.p
        return trim([c % p for c in coeffs])

    def random_element(self, rng, max_degree=4):
        return trim([rng.randrange(self.base.p) for _ in range(max_degree + 1)])

    def random_invertible(self, rng):
        """A random nonzero constant, drawn at once.

        Drawing random elements until one is a unit, as :class:`Ring` does,
        takes about p**4 draws here.
        """
        return (rng.randrange(1, self.base.p),)

    @property
    def mul_count(self):
        return self.base.mul_count
