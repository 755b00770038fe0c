"""Command-line front end: divide, shifted inverse, and operation-count benchmarks.

Exit codes: 0 success (division results additionally require a passing
residual check), 2 parse or usage errors, 3 algebraic failures (singular
leading coefficient, non-central leading coefficient, non-monic divisor,
unsupported twist), 1 a result that failed its own residual verification.
"""

import argparse
import sys
import time

from .documents import (
    PolyDocument,
    build_ring,
    emit_document,
    load_document,
    poly_payload,
    to_poly,
)
from .errors import (
    NegativeLeftShift,
    NoConvergence,
    NotCentral,
    NotInvertible,
    NotMonic,
    ParseError,
    UnsupportedSigma,
)
from .polynomial import LEFT, RIGHT, DensePoly, classical_div, mul_oriented, pseudo_div
from .rings import GF, MatrixRing
from .shinv import IterationTrace, ShinvConfig, quo, shinv
from .skew import rquo_via_lshinv, skew_classical_div

ALGEBRAIC_ERRORS = (
    NotInvertible,
    NotCentral,
    NotMonic,
    UnsupportedSigma,
    NegativeLeftShift,
    NoConvergence,
    ZeroDivisionError,
)


class UnsupportedOperation(ValueError):
    pass


def _orientation(side):
    return LEFT if side == "left" else RIGHT


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
        lhs = mul_oriented(u, mm, _orientation(side))
    else:
        lhs = u
    prod = mul_oriented(q, v, _orientation(side))
    return lhs == prod + r


def cmd_divide(args):
    doc = load_document(args.input)
    kind = doc.ring["kind"]
    ctx = build_ring(doc.ring)
    u = to_poly(doc, "u", ctx)
    v = to_poly(doc, "v", ctx)
    if v.is_zero:
        raise ZeroDivisionError("divisor is zero")
    if kind == "lodo":
        if args.method == "classical":
            q, r = skew_classical_div(u, v, _orientation(args.side))
        elif args.method == "fast":
            if args.side != "right":
                raise UnsupportedOperation(
                    "only the right quotient of a skew polynomial can be"
                    " computed from the shifted inverse"
                )
            q, r = rquo_via_lshinv(u, v)
        else:
            raise UnsupportedOperation("pseudodivision is not defined for skew polynomials")
    else:
        if args.method == "classical":
            q, r = classical_div(u, v, _orientation(args.side))
        elif args.method == "fast":
            cfg = ShinvConfig(refine=args.refine)
            q, r = quo(u, v, _orientation(args.side), cfg)
        else:
            q, r = pseudo_div(u, v, _orientation(args.side))
    ok = _residual_ok(u, v, q, r, args.side, args.method)
    out = PolyDocument(ring=doc.ring, polys={"q": poly_payload(q), "r": poly_payload(r)})
    extra = {
        "result": {
            "method": args.method,
            "side": args.side,
            "residual_ok": ok,
        }
    }
    _write(args.output, emit_document(out, extra))
    return 0 if ok else 1


def cmd_shinv(args):
    doc = load_document(args.input)
    kind = doc.ring["kind"]
    if kind == "lodo":
        raise UnsupportedOperation(
            "the fast shifted inverse applies only when the variable is central"
        )
    ctx = build_ring(doc.ring)
    v = to_poly(doc, "v", ctx)
    trace = IterationTrace()
    cfg = ShinvConfig(refine=args.refine)
    w = shinv(v, args.h, cfg, RIGHT, trace)
    out = PolyDocument(ring=doc.ring, polys={"shinv": poly_payload(w)})
    extra = {"result": {"h": args.h, "refine": args.refine}}
    if args.trace:
        extra["trace"] = {
            "records": [
                {
                    "accurate": rec.accurate,
                    "prec": rec.prec,
                    "grow": rec.grow,
                    "divisor_drop": rec.divisor_drop,
                }
                for rec in trace.records
            ],
            "guard_steps": trace.guard_steps,
        }
    _write(args.output, emit_document(out, extra))
    return 0


def parse_ring_spec(spec):
    parts = spec.split(":")
    try:
        if parts[0] == "gfp" and len(parts) == 2:
            return GF(int(parts[1]))
        if parts[0] == "matrix" and len(parts) == 3:
            return MatrixRing(int(parts[2]), GF(int(parts[1])))
    except ValueError:
        pass
    raise ParseError("ring spec must be gfp:P or matrix:P:N, got %r" % spec)


def random_poly(ring, rng, degree):
    """Random polynomial of exact degree with an invertible leading coefficient."""
    coeffs = [ring.random_element(rng) for _ in range(degree)]
    while True:
        lead = ring.random_element(rng)
        try:
            ring.inv(lead)
        except NotInvertible:
            continue
        break
    return DensePoly(ring, coeffs + [lead])


BENCH_METHODS = ("classical", "refine1", "refine2", "refine3")


def run_bench(ring, sizes, seed=0, repeat=1, methods=BENCH_METHODS):
    """Divide a random degree-2N polynomial by a random degree-N one, per method.

    Returns rows (method, N, iterations, mulCount, nanos).  Instances are
    deterministic in the seed; N = deg u - deg v is the quotient degree.
    """
    import random as _random

    rows = []
    for n in sizes:
        rng = _random.Random("%d:%d" % (seed, n))
        u = random_poly(ring, rng, 2 * n)
        v = random_poly(ring, rng, n)
        for method in methods:
            iterations = 0
            best = None
            mul_count = 0
            for _ in range(max(1, repeat)):
                trace = IterationTrace()
                before = ring.mul_count
                t0 = time.perf_counter_ns()
                if method == "classical":
                    classical_div(u, v, RIGHT)
                else:
                    cfg = ShinvConfig(refine=int(method[-1]))
                    quo(u, v, RIGHT, cfg, trace)
                elapsed = time.perf_counter_ns() - t0
                mul_count = ring.mul_count - before
                iterations = trace.iterations
                best = elapsed if best is None else min(best, elapsed)
            rows.append((method, n, iterations, mul_count, best))
    return rows


def cmd_bench(args):
    sizes = [int(s) for s in args.degrees.split(",") if s]
    ring = parse_ring_spec(args.ring)
    rows = run_bench(ring, sizes, seed=args.seed, repeat=args.repeat)
    lines = ["method,N,iterations,mulCount,nanos"]
    lines += ["%s,%d,%d,%d,%d" % row for row in rows]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    p_div.set_defaults(func=cmd_divide)

    p_sh = sub.add_parser("shinv", help="whole H-shifted inverse of v from a document")
    p_sh.add_argument("input", help="path to a JSON polynomial document with v")
    p_sh.add_argument("--h", dest="h", type=int, required=True)
    p_sh.add_argument("--refine", type=int, choices=(1, 2, 3), default=3)
    p_sh.add_argument("--trace", action="store_true")
    p_sh.add_argument("-o", "--output", default=None)
    p_sh.set_defaults(func=cmd_shinv)

    p_bench = sub.add_parser("bench", help="operation-count benchmark, CSV output")
    p_bench.add_argument("--degrees", default="64,128,256,512")
    p_bench.add_argument("--ring", default="gfp:127")
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("-o", "--output", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except UnsupportedOperation as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ALGEBRAIC_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
