"""Command-line front end: divide, shifted inverse, and operation-count benchmarks.

Exit codes: 0 success (division results additionally require a passing
residual check), 2 parse or usage errors, 3 algebraic failures (an
``AlgebraicError`` such as a singular or non-central leading coefficient, a
non-monic divisor or an unsupported twist, or a zero divisor), 1 a result
that failed its own residual verification.
"""

import argparse
import contextlib
import functools
import os
import stat
import sys
import time

from .documents import (
    MAX_DEGREE,
    PolyDocument,
    build_ring,
    check_ring,
    emit_document,
    load_document,
    poly_payload,
    to_poly,
)
from .errors import AlgebraicError, ParseError, UnsupportedOperation
from .polynomial import RIGHT, DensePoly, Orientation, classical_div, mul_oriented, pseudo_div
from .shinv import IterationTrace, quo, shinv
from .skew import rquo_via_lshinv, skew_classical_div


def _residual_ok(u, v, q, r, side, method):
    """Re-derive the division identity and degree bound for an emitted result."""
    if not (r.is_zero or r.degree < v.degree):
        return False
    if method == "pseudo":
        ring = u.ring
        e = 0 if u.is_zero or u.degree < v.degree else u.degree - v.degree + 1
        m = ring.one
        for _ in range(e):
            m = ring.mul(m, v.lc)
        mm = DensePoly(ring, (m,))
        lhs = mul_oriented(u, mm, side)
    else:
        lhs = u
    prod = mul_oriented(q, v, side)
    return lhs == prod + r


def cmd_divide(args):
    doc = load_document(args.input)
    kind = doc.ring["kind"]
    ctx = build_ring(doc.ring)
    u = to_poly(doc, "u", ctx)
    v = to_poly(doc, "v", ctx)
    side = Orientation(args.side)
    with _output(args.output) as dest:
        if kind == "lodo":
            if args.method == "classical":
                q, r = skew_classical_div(u, v, side)
            elif args.method == "fast":
                if side is not RIGHT:
                    raise UnsupportedOperation(
                        "only the right quotient of a skew polynomial can be"
                        " computed from the shifted inverse"
                    )
                q, r = rquo_via_lshinv(u, v)
            else:
                raise UnsupportedOperation("pseudodivision is not defined for skew polynomials")
        else:
            if args.method == "classical":
                q, r = classical_div(u, v, side)
            elif args.method == "fast":
                q, r = quo(u, v, side, args.refine)
            else:
                q, r = pseudo_div(u, v, side)
        ok = _residual_ok(u, v, q, r, side, args.method)
        out = PolyDocument(ring=doc.ring, polys={"q": poly_payload(q), "r": poly_payload(r)})
        extra = {
            "result": {
                "method": args.method,
                "side": args.side,
                "residual_ok": ok,
            }
        }
        dest.write(emit_document(out, extra))
    return 0 if ok else 1


def cmd_shinv(args):
    if not 0 <= args.h <= MAX_DEGREE:
        raise ParseError(
            "--h must be a non-negative integer at most %d, got %d" % (MAX_DEGREE, args.h)
        )
    doc = load_document(args.input)
    kind = doc.ring["kind"]
    if kind == "lodo":
        raise UnsupportedOperation(
            "the fast shifted inverse applies only when the variable is central"
        )
    ctx = build_ring(doc.ring)
    v = to_poly(doc, "v", ctx)
    trace = IterationTrace() if args.trace else None
    with _output(args.output) as dest:
        w = shinv(v, args.h, args.refine, RIGHT, trace)
        out = PolyDocument(ring=doc.ring, polys={"shinv": poly_payload(w)})
        extra = {"result": {"h": args.h, "refine": args.refine}}
        if args.trace:
            extra["trace"] = {
                "records": [
                    {k: x for k, x in vars(rec).items() if k != "w"} for rec in trace.records
                ],
            }
        dest.write(emit_document(out, extra))
    return 0


# bench ring spec kind -> the descriptor keys its numbers fill, in order
RING_SPEC_KEYS = {"gfp": ("p",), "matrix": ("p", "n")}


def parse_ring_spec(spec):
    """The ring of a spec gfp:P or matrix:P:N, checked as a document's ring is."""
    kind, *numbers = spec.split(":")
    keys = RING_SPEC_KEYS.get(kind, ())
    try:
        values = [int(n) for n in numbers]
    except ValueError:
        values = None
    if not keys or values is None or len(values) != len(keys):
        raise ParseError("ring spec must be gfp:P or matrix:P:N, got %r" % spec)
    desc = dict(zip(keys, values), kind=kind)
    return build_ring(check_ring(desc))


def random_poly(ring, rng, degree):
    """Random polynomial of exact degree with an invertible leading coefficient."""
    coeffs = [ring.random_element(rng) for _ in range(degree)]
    return DensePoly(ring, coeffs + [ring.random_invertible(rng)])


BENCH_METHODS = ("classical", "refine1", "refine2", "refine3")


def run_bench(ring, sizes, seed=0, repeat=1):
    """Divide a random degree-2N polynomial by a random degree-N one, per method.

    Returns rows (method, N, iterations, mulCount, nanos).  Instances are
    deterministic in the seed; N = deg u - deg v is the quotient degree.
    Each division runs ``repeat`` >= 1 times and nanos is the fastest run.
    """
    import random as _random

    rows = []
    for n in sizes:
        rng = _random.Random("%d:%d" % (seed, n))
        u = random_poly(ring, rng, 2 * n)
        v = random_poly(ring, rng, n)
        for method in BENCH_METHODS:
            times = []
            for _ in range(repeat):
                trace = IterationTrace()
                before = ring.mul_count
                t0 = time.perf_counter_ns()
                if method == "classical":
                    classical_div(u, v, RIGHT)
                else:
                    quo(u, v, RIGHT, int(method[-1]), trace)
                times.append(time.perf_counter_ns() - t0)
            rows.append((method, n, trace.iterations, ring.mul_count - before, min(times)))
    return rows


def cmd_bench(args):
    try:
        sizes = [int(s) for s in args.degrees.split(",") if s]
    except ValueError:
        sizes = None
    if sizes is None or any(not 0 <= n <= MAX_DEGREE for n in sizes):
        raise ParseError(
            "--degrees must be comma-separated non-negative integers at most %d, got %r"
            % (MAX_DEGREE, args.degrees)
        )
    if args.repeat < 1:
        raise ParseError("--repeat must be a positive integer, got %d" % args.repeat)
    ring = parse_ring_spec(args.ring)
    with _output(args.output) as dest:
        rows = run_bench(ring, sizes, seed=args.seed, repeat=args.repeat)
        lines = ["method,N,iterations,mulCount,nanos"]
        lines += ["%s,%d,%d,%d,%d" % row for row in rows]
        dest.write("\n".join(lines) + "\n")
    return 0


@contextlib.contextmanager
def _output(path):
    """The stream for a command's result, with the ``-o`` file opened before the work.

    The file is opened without truncation, so a run that fails keeps an
    existing file's bytes.  The result overwrites them from the start, and a
    run that succeeds cuts off the old tail of a regular file.
    """
    if not path:
        yield sys.stdout
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyquo",
        description="Exact quotients of polynomials with non-commutative coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("divide", help="divide u by v from a document")
    p_div.add_argument("input", help="path to a JSON polynomial document with u and v")
    p_div.add_argument("--side", choices=("left", "right"), default="right")
    p_div.add_argument(
        "--method", choices=("classical", "fast", "pseudo"), default="classical"
    )
    p_div.add_argument("--refine", type=int, choices=(1, 2, 3), default=3)
    p_div.add_argument("-o", "--output", default=None)

    p_sh = sub.add_parser("shinv", help="whole H-shifted inverse of v from a document")
    p_sh.add_argument("input", help="path to a JSON polynomial document with v")
    p_sh.add_argument("--h", dest="h", type=int, required=True)
    p_sh.add_argument("--refine", type=int, choices=(1, 2, 3), default=3)
    p_sh.add_argument("--trace", action="store_true")
    p_sh.add_argument("-o", "--output", default=None)

    p_bench = sub.add_parser("bench", help="operation-count benchmark, CSV output")
    p_bench.add_argument("--degrees", default="64,128,256,512")
    p_bench.add_argument("--ring", default="gfp:127")
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("-o", "--output", default=None)
    return parser


@functools.cache
def _parser():
    """The parser ``main`` uses, built on its first call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up on each call, so a replaced cmd_* function is the one run
    command = {"divide": cmd_divide, "shinv": cmd_shinv, "bench": cmd_bench}[args.command]
    try:
        return command(args)
    except (ParseError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AlgebraicError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
