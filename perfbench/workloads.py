"""Benchmark workloads: seeded inputs, the timed entry point, and the output check.

Every workload is built from a seed alone; input ``i`` is generated from its
own ``random.Random`` stream, so the same seed gives byte-identical inputs in
any order and on any run.  ``divide`` is the only call that is timed.
``check`` runs afterwards.  It tests the residual identity and compares the
result with classical division of the same input: for the two central
workloads, a long division on packed integers written here, which shares no
code with polyquo and is checked against ``classical_div`` by the self-test
(``classical_div`` itself would cost half a timed division per check).

Each workload owns fresh ring instances, so ``mul_count`` never carries over
from another workload.  ``count`` is the number of leading inputs whose base
multiplications define ``base_muls_per_div`` and which the traced run divides.
"""

import hashlib
import json
import os
import random
import shutil
import tempfile

import polyquo.cli as cli
from polyquo.polynomial import LEFT, RIGHT, DensePoly, classical_div
from polyquo.rings import GF, MatrixRing
from polyquo.shinv import quo
from polyquo.skew import make_lodo, rquo_via_lshinv, skew_classical_div, skew_mul

P = 127


class CheckFailed(Exception):
    """A division result disagreed with the oracle or failed its residual identity."""


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def _nonzero(rng):
    return rng.randrange(1, P)


def _random_nonzero(gen, rng):
    c = gen.random_element(rng)
    while c == gen.zero:
        c = gen.random_element(rng)
    return c


def _json(c):
    return c if isinstance(c, int) else [list(row) for row in c]


# --- independent arithmetic: residual identity and classical long division -----
#
# Polynomials with n x n matrix coefficients over GF(p) (n = 1 for GF(p)
# itself) are multiplied entry by entry through Kronecker substitution: each
# entry's coefficient sequence is packed into one Python int, so a product is
# one bigint multiplication.  Left factors always come from the left operand.


def _pack(seq, width):
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in seq), "little")


def _unpack(x, width, n):
    raw = x.to_bytes(width * n, "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(n)]


def matpoly_mul(a, b, n):
    """Product a*b of coefficient lists whose entries are n x n tuples of ints mod P."""
    if not a or not b:
        return []
    length = len(a) + len(b) - 1
    bound = n * min(len(a), len(b)) * (P - 1) ** 2
    width = (bound.bit_length() + 8) // 8
    pa = [[_pack([c[i][k] for c in a], width) for k in range(n)] for i in range(n)]
    pb = [[_pack([c[k][j] for c in b], width) for j in range(n)] for k in range(n)]
    entries = [
        [_unpack(sum(pa[i][k] * pb[k][j] for k in range(n)), width, length) for j in range(n)]
        for i in range(n)
    ]
    return [
        tuple(tuple(entries[i][j][t] % P for j in range(n)) for i in range(n))
        for t in range(length)
    ]


def as_matrices(coeffs, n):
    return [((c,),) for c in coeffs] if n == 1 else list(coeffs)


def residual_holds(u, v, q, r, side, n):
    """Whether u = q*v + r (right) or u = v*q + r (left) with deg r < deg v."""
    if len(r.coeffs) >= len(v.coeffs):
        return False
    a, b = as_matrices(q.coeffs, n), as_matrices(v.coeffs, n)
    prod = matpoly_mul(a, b, n) if side is RIGHT else matpoly_mul(b, a, n)
    rem = as_matrices(r.coeffs, n)
    zero = ((0,) * n,) * n
    total = []
    for t in range(max(len(prod), len(rem))):
        x = prod[t] if t < len(prod) else zero
        y = rem[t] if t < len(rem) else zero
        total.append(tuple(
            tuple((e + f) % P for e, f in zip(rx, ry)) for rx, ry in zip(x, y)
        ))
    while total and total[-1] == zero:
        total.pop()
    return total == as_matrices(u.coeffs, n)


def _mat_mul(a, b, n):
    return [[sum(a[i][m] * b[m][j] for m in range(n)) % P for j in range(n)] for i in range(n)]


def _mat_inv(a, n):
    """Inverse of an invertible n x n matrix over GF(P), by Gauss-Jordan elimination."""
    rows = [[x % P for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], P - 2, P)
        rows[col] = [x * scale % P for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [(x - f * y) % P for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def long_division(u, v, side, n):
    """Classical division u = q*v + r (right) or u = v*q + r (left), as coefficient lists.

    The remainder is held as one packed int per matrix entry.  Each step
    reads the leading coefficient and adds (P - c) times the packed divisor,
    which keeps every slot non-negative; slots are wide enough that they never
    carry into each other, and are reduced mod P only when read.
    """
    a, b = as_matrices(u.coeffs, n), as_matrices(v.coeffs, n)
    k = len(b) - 1
    steps = len(a) - k
    if steps <= 0:
        return [], a
    width = ((P - 1) + steps * n * (P - 1) ** 2).bit_length() // 8 + 1
    bits, mask = 8 * width, (1 << 8 * width) - 1
    rem = [[_pack([c[i][j] for c in a], width) for j in range(n)] for i in range(n)]
    vp = [[_pack([c[i][j] for c in b], width) for j in range(n)] for i in range(n)]
    ivk = _mat_inv(b[-1], n)
    q = [None] * steps
    for i in range(steps - 1, -1, -1):
        lead = [[(rem[x][y] >> bits * (i + k) & mask) % P for y in range(n)] for x in range(n)]
        c = _mat_mul(lead, ivk, n) if side is RIGHT else _mat_mul(ivk, lead, n)
        q[i] = tuple(map(tuple, c))
        neg = [[(P - e) % P for e in row] for row in c]
        for x in range(n):
            for y in range(n):
                if side is RIGHT:
                    t = sum(neg[x][m] * vp[m][y] for m in range(n))
                else:
                    t = sum(vp[x][m] * neg[m][y] for m in range(n))
                rem[x][y] += t << bits * i
    low = (1 << bits * k) - 1
    slots = [[_unpack(rem[x][y] & low, width, k) for y in range(n)] for x in range(n)]
    r = [tuple(tuple(slots[x][y][t] % P for y in range(n)) for x in range(n)) for t in range(k)]
    zero = ((0,) * n,) * n
    while r and r[-1] == zero:
        r.pop()
    return q, r


def digest(items):
    """SHA-256 of a canonical JSON serialization of the given inputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _payload(poly):
    return [_json(c) for c in poly.coeffs]


# --- workloads -----------------------------------------------------------------


class Workload:
    """Common interface; subclasses define inputs, the entry point and the check."""

    name = None
    count = 10
    cycle = 1  # a timed run ends on a multiple of this many divisions
    root = None  # span name of the entry point in the traced run
    setup_code = None  # timed in a fresh interpreter to measure setup_s

    def __init__(self, seed, count=None, workdir=None):
        self.seed = seed
        if count is not None:
            self.count = count

    def rings(self):
        """The workload-owned ring instances the traced run instruments."""
        return ()

    def mul_count(self):
        raise NotImplementedError

    def root_args(self, inp):
        """The entry point's arguments, which the traced run gives its root span."""
        return ()

    def input(self, i):
        raise NotImplementedError

    def serial(self, inp):
        raise NotImplementedError

    def divide(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """Raise CheckFailed unless ``out`` is right; return a value identifying it."""
        raise NotImplementedError

    def input_digest(self):
        return digest(self.serial(self.input(i)) for i in range(self.count))

    def close(self):
        pass


class _Central(Workload):
    """Shared parts of the two fast-quotient workloads over a central variable."""

    root = "shinv.quo"
    n = 1

    def rings(self):
        return (self.ring,)

    def mul_count(self):
        return self.ring.mul_count

    def root_args(self, inp):
        return inp

    def serial(self, inp):
        u, v, side = inp
        return [side.value, _payload(u), _payload(v)]

    def divide(self, inp):
        u, v, side = inp
        return quo(u, v, side)

    def check(self, inp, out):
        u, v, side = inp
        q, r = out
        if not residual_holds(u, v, q, r, side, self.n):
            raise CheckFailed("residual identity or remainder degree fails")
        got = (as_matrices(q.coeffs, self.n), as_matrices(r.coeffs, self.n))
        if got != long_division(u, v, side, self.n):
            raise CheckFailed("quotient differs from classical long division")
        return got


class GfpModred(_Central):
    """GF(127): one fixed degree-512 modulus, fresh degree-1024 dividends, right quotients."""

    name = "gfp-modred"
    setup_code = "import polyquo\npolyquo.GF(127)\n"

    def __init__(self, seed, count=None, workdir=None):
        super().__init__(seed, count)
        self.ring = GF(P)
        rng = _rng(self.name, seed, "v")
        self.v = DensePoly(self.ring, [rng.randrange(P) for _ in range(512)] + [_nonzero(rng)])

    def input(self, i):
        rng = _rng(self.name, self.seed, i)
        u = DensePoly(self.ring, [rng.randrange(P) for _ in range(1024)] + [_nonzero(rng)])
        return u, self.v, RIGHT


class Mat3Fresh(_Central):
    """3x3 matrices over GF(127): fresh u (deg 128) and v (deg 64), sides alternate."""

    name = "mat3-fresh"
    n = 3
    setup_code = "import polyquo\npolyquo.MatrixRing(3, polyquo.GF(127))\n"

    def __init__(self, seed, count=None, workdir=None):
        super().__init__(seed, count)
        self.ring = MatrixRing(3, GF(P))
        self._gen = MatrixRing(3, GF(P))  # keeps input generation off the counted ring

    def _poly(self, rng, degree, lead):
        coeffs = [self._gen.random_element(rng) for _ in range(degree)]
        return DensePoly(self.ring, coeffs + [lead])

    def input(self, i):
        rng = _rng(self.name, self.seed, i)
        u = self._poly(rng, 128, _random_nonzero(self._gen, rng))
        v = self._poly(rng, 64, self._gen.random_invertible(rng))
        return u, v, LEFT if i % 2 == 0 else RIGHT


class LodoRquo(Workload):
    """Differential operators over GF(127)[y]: monic v (deg 12), u (deg 24), right quotients."""

    name = "lodo-rquo"
    root = "skew.rquo_via_lshinv"
    setup_code = "import polyquo\npolyquo.make_lodo(127)\n"

    def __init__(self, seed, count=None, workdir=None):
        super().__init__(seed, count)
        # One context for every input: two make_lodo contexts refuse to mix.
        self.ctx = make_lodo(P)

    def rings(self):
        return (self.ctx.ring,)

    def mul_count(self):
        return self.ctx.ring.mul_count

    def _coeff(self, rng, nonzero=False):
        c = self.ctx.ring.from_coeffs([rng.randrange(P) for _ in range(4)])
        while nonzero and not c:
            c = self.ctx.ring.from_coeffs([rng.randrange(P) for _ in range(4)])
        return c

    def input(self, i):
        rng = _rng(self.name, self.seed, i)
        ring = self.ctx.ring
        v = self.ctx.poly([self._coeff(rng) for _ in range(12)] + [ring.one])
        u = self.ctx.poly([self._coeff(rng) for _ in range(24)] + [self._coeff(rng, True)])
        return u, v

    def serial(self, inp):
        u, v = inp
        return [[list(c) for c in u.coeffs], [list(c) for c in v.coeffs]]

    def divide(self, inp):
        u, v = inp
        return rquo_via_lshinv(u, v)

    def check(self, inp, out):
        u, v = inp
        q, r = out
        if not (r.is_zero or r.degree < v.degree) or u != skew_mul(q, v) + r:
            raise CheckFailed("residual identity or remainder degree fails")
        if (q, r) != skew_classical_div(u, v, RIGHT):
            raise CheckFailed("quotient differs from skew_classical_div")
        return q.coeffs, r.coeffs


class CliSmall(Workload):
    """In-process ``polyquo divide`` over a seeded pool of small gfp and 2x2 matrix documents.

    Document i has method i % 3, side (i // 3) % 2, ring kind gfp unless
    (i // 6) % 3 == 2, deg v = 4 + i % 13 and deg u = deg v + 4 + (i // 13) % 12.
    Since 18 and 13 are coprime, every method/side/kind combination meets every
    divisor degree once.  Every gfp document costs less than every matrix
    document, so the 2:1 mix puts that gap at the 67th percentile, away from
    p50 and p90; within each kind the sizes form one continuous range.
    """

    name = "cli-small"
    root = "cli.main"
    pool_size = cycle = 234
    setup_code = "import polyquo.cli\npolyquo.cli.build_parser()\n"
    METHODS = ("classical", "fast", "pseudo")
    SIDES = ("left", "right")

    def __init__(self, seed, count=None, workdir="."):
        super().__init__(seed, self.pool_size if count is None else count)
        os.makedirs(workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-small-", dir=workdir)
        self.out_path = os.path.join(self.dir, "out.json")
        # Generation and the oracle use rings of their own, never the CLI's.
        self._gens = (GF(P), MatrixRing(2, GF(P)))
        self.pool = [self._make(i) for i in range(self.pool_size)]
        self._expected = {}
        self._muls = 0

    def _make(self, i):
        rng = _rng(self.name, self.seed, i)
        method = self.METHODS[i % 3]
        side = self.SIDES[(i // 3) % 2]
        gen = self._gens[(i // 6) % 3 == 2]
        if isinstance(gen, GF):
            ring = {"kind": "gfp", "p": P}
        else:
            ring = {"kind": "matrix", "p": P, "n": gen.n}
        deg_v = 4 + i % 13
        deg_u = deg_v + 4 + (i // 13) % 12
        scalar = _nonzero(rng)
        if method == "pseudo":
            v_lead = gen.from_int(scalar)  # a scalar is central
        elif isinstance(gen, GF):
            v_lead = _random_nonzero(gen, rng)
        else:
            v_lead = gen.random_invertible(rng)
        u = [gen.random_element(rng) for _ in range(deg_u)] + [_random_nonzero(gen, rng)]
        v = [gen.random_element(rng) for _ in range(deg_v)] + [v_lead]
        doc = {"ring": ring, "polys": {"u": [_json(c) for c in u], "v": [_json(c) for c in v]}}
        path = os.path.join(self.dir, "doc%03d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return {
            "index": i, "path": path, "doc": doc, "method": method, "side": side,
            "u": DensePoly(gen, u), "v": DensePoly(gen, v), "scalar": scalar,
        }

    def mul_count(self):
        return self._muls

    def input(self, i):
        return self.pool[i % self.pool_size]

    def serial(self, inp):
        return [inp["method"], inp["side"], inp["doc"]]

    def divide(self, inp):
        built = []
        build_ring = cli.build_ring

        def capture(desc):
            ctx = build_ring(desc)
            built.append(ctx)
            return ctx

        cli.build_ring = capture
        try:
            code = cli.main([
                "divide", inp["path"], "--side", inp["side"],
                "--method", inp["method"], "-o", self.out_path,
            ])
        finally:
            cli.build_ring = build_ring
        self._muls += sum(ctx.mul_count for ctx in built)
        return code

    def _oracle(self, inp):
        """Expected q, r payloads: classical_div, scaled by lc(v)**e for pseudodivision."""
        i = inp["index"]
        if i not in self._expected:
            u, v = inp["u"], inp["v"]
            ring = u.ring
            n = getattr(ring, "n", 1)
            side = LEFT if inp["side"] == "left" else RIGHT
            q, r = classical_div(u, v, side)
            if not residual_holds(u, v, q, r, side, n):
                raise CheckFailed("oracle for document %d fails its residual" % i)
            if inp["method"] == "pseudo":
                # lc(v) = c*1 is central, so m*u = v*(m*q) + m*r with m = c**e.
                m = ring.from_int(pow(inp["scalar"], u.degree - v.degree + 1, P))
                q = DensePoly(ring, [ring.mul(m, c) for c in q.coeffs])
                r = DensePoly(ring, [ring.mul(m, c) for c in r.coeffs])
            self._expected[i] = (_payload(q), _payload(r))
        return self._expected[i]

    def check(self, inp, out):
        if out != 0:
            raise CheckFailed("polyquo divide exited with %r" % (out,))
        # Removing the output makes every division write a new file: rewriting
        # an existing one on ext4 starts disk writeback on close, which adds
        # the shared disk's latency spikes to the timing.
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        finally:
            os.remove(self.out_path)
        emitted = json.loads(text)
        if emitted["result"]["residual_ok"] is not True:
            raise CheckFailed("emitted residual_ok is not true")
        if (emitted["polys"]["q"], emitted["polys"]["r"]) != self._oracle(inp):
            raise CheckFailed("emitted q, r differ from classical_div")
        return text

    def input_digest(self):
        return digest(self.serial(inp) for inp in self.pool)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GfpModred, Mat3Fresh, LodoRquo, CliSmall)}


def make_workload(name, seed, count=None, workdir="."):
    return WORKLOADS[name](seed, count, workdir)
