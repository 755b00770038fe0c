"""Span tracer for the benchmark's traced run.

Spans are recorded around calls into polyquo's layers by temporarily replacing
module attributes, ``DensePoly`` methods and ring-instance methods; the
modules call these names through their globals, so no source file changes.
Every replacement is installed when a division starts and undone when it
ends, so the oracle checks between divisions run the original code.

A span records its name, start, end, parent span and the id of the division
it belongs to, plus the base-field multiplications made while it was open.
Calls into the workload's coefficient ring are too many for a span each (a
GF(127) division at N = 512 makes about half a million), so they are counted
on the innermost open span: ``mul`` and ``inv`` calls with their accumulated
time, ``add``/``sub``/``neg`` calls as a count.

Self time is a span's duration minus the time covered by its child spans and
minus the timed ring calls (``mul``, ``inv``) made directly under it.

A kept ratio compares a product's measured base multiplications with those a
schoolbook product limited to the kept coefficients would need: the nonzero
coefficient pairs that reach a kept coefficient, times the base products in
one coefficient product.  Below 1, the product forms coefficients it throws
away; above 1, it needs fewer multiplications than even that (Karatsuba).
"""

import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from polyquo.polynomial import KARATSUBA_THRESHOLD, DensePoly
from polyquo.rings import GF, MatrixRing
from polyquo.skew import SkewPolyRing


class Span:
    __slots__ = (
        "name", "index", "parent", "division", "start", "end", "muls0", "muls",
        "mul_calls", "mul_s", "inv_calls", "inv_s", "add_calls", "attrs", "args",
    )

    def __init__(self, name, index, parent, division, muls0):
        self.name = name
        self.index = index
        self.parent = parent
        self.division = division
        self.muls0 = muls0
        self.muls = 0
        self.start = self.end = 0.0
        self.mul_calls = self.inv_calls = self.add_calls = 0
        self.mul_s = self.inv_s = 0.0
        self.attrs = {}
        self.args = ()  # the call's arguments, held only while the span is open

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, t0):
        return {
            "name": self.name, "index": self.index, "parent": self.parent,
            "division": self.division, "start": self.start - t0, "end": self.end - t0,
            "base_muls": self.muls, "ring_mul_calls": self.mul_calls,
            "ring_mul_s": self.mul_s, "ring_inv_calls": self.inv_calls,
            "ring_inv_s": self.inv_s, "ring_add_calls": self.add_calls,
            "attrs": self.attrs,
        }


def _dense_mul_attrs(span, args, result, parent):
    a, b = args[0].coeffs, args[1].coeffs
    span.attrs["pairs"] = len(a) * len(b)
    span.attrs["karatsuba"] = min(len(a), len(b)) > KARATSUBA_THRESHOLD


def coeff_mul_cost(ring):
    """Base multiplications in one product of two ring elements, or None if it varies.

    A GF(p) product is one; an n x n matrix product makes n**3 base products.
    """
    if isinstance(ring, GF):
        return 1
    if isinstance(ring, MatrixRing):
        base = coeff_mul_cost(ring.base)
        return None if base is None else ring.n ** 3 * base
    return None


def nonzero_pairs(a, b, below=None):
    """Pairs (i, j) of nonzero coefficients a[i], b[j] with i + j < below (all if None).

    These are the coefficient products that a schoolbook product truncated
    below x**below cannot avoid; it is a property of the operands, not of how
    polyquo multiplies them.
    """
    prefix = [0]  # prefix[t]: nonzero coefficients among b[:t]
    for c in b:
        prefix.append(prefix[-1] + (not _is_zero(c)))
    if below is None:
        below = len(a) + len(b)
    return sum(
        prefix[min(len(b), below - i)] for i, c in enumerate(a[:below]) if not _is_zero(c)
    )


def _is_zero(c):
    if isinstance(c, int):
        return c == 0
    return not any(any(row) for row in c)


def _needed_attrs(span, u, v, below=None, above=None):
    """Record the base multiplications a product truncated to the kept coefficients needs.

    ``below`` keeps the coefficients under x**below; ``above`` keeps those at
    x**above and up.  The kept ratio set in ``layer_metrics`` divides this by
    the span's measured base multiplications.
    """
    cost = coeff_mul_cost(u.ring)
    if cost is None:
        return
    a, b = u.coeffs, v.coeffs
    if above is not None:
        pairs = nonzero_pairs(a, b) - nonzero_pairs(a, b, above)
    else:
        pairs = nonzero_pairs(a, b, below)
    span.attrs["needed"] = pairs * cost


def _mul_mod_attrs(span, args, result, parent):
    u, v, n = args[:3]
    _needed_attrs(span, u, v, below=n)


def _product_attrs(span, args, result, parent):
    # quo makes two products of its own: u*shinv, of which only the
    # coefficients at x**(h+1) and up survive the final shift, then q*v, of
    # which only those below x**k matter, since r = u - q*v has degree below k.
    if parent is None or parent.name != "shinv.quo":
        return
    role = parent.attrs.get("products", 0)
    parent.attrs["products"] = role + 1
    u, v = parent.args[:2]
    span.attrs["role"] = role
    if role == 0:
        _needed_attrs(span, args[0], args[1], above=u.degree + 1)
    elif role == 1:
        _needed_attrs(span, args[0], args[1], below=v.degree)


def _load_attrs(span, args, result, parent):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _emit_attrs(span, args, result, parent):
    span.attrs["bytes"] = len(result.encode("utf-8"))


# (module or class, attribute, span name, function recording span attributes)
_MODULE_PATCHES = (
    ("polyquo.shinv", "shinv", "shinv.shinv", None),
    ("polyquo.shinv", "shinv0", "shinv.shinv0", None),
    ("polyquo.shinv", "step", "shinv.step", None),
    ("polyquo.shinv", "pow_diff", "shinv.pow_diff", None),
    ("polyquo.shinv", "mul_oriented", "shinv.mul_oriented", _product_attrs),
    ("polyquo.shinv", "mul_mod", "polynomial.mul_mod", _mul_mod_attrs),
    ("polyquo.skew", "lshinv", "skew.lshinv", None),
    ("polyquo.skew", "skew_mul", "skew.skew_mul", None),
    ("polyquo.cli", "load_document", "documents.load", _load_attrs),
    ("polyquo.cli", "build_ring", "documents.build_ring", None),
    ("polyquo.cli", "to_poly", "documents.to_poly", None),
    ("polyquo.cli", "emit_document", "documents.emit", _emit_attrs),
    ("polyquo.cli", "quo", "shinv.quo", None),
    ("polyquo.cli", "classical_div", "polynomial.classical_div", None),
    ("polyquo.cli", "pseudo_div", "polynomial.pseudo_div", None),
    ("polyquo.cli", "mul_oriented", "cli.residual_product", None),
)
_CLASS_PATCHES = (
    (DensePoly, "__mul__", "polynomial.mul", _dense_mul_attrs),
    (DensePoly, "__add__", "polynomial.addsub", None),
    (DensePoly, "__sub__", "polynomial.addsub", None),
    (DensePoly, "__neg__", "polynomial.addsub", None),
)


RING_METHODS = ("mul", "inv", "add", "sub", "neg")


def patch_targets():
    """Every (owner, attribute) a traced division replaces, besides ring-instance methods."""
    targets = [(importlib.import_module(m), a) for m, a, _, _ in _MODULE_PATCHES]
    return targets + [(c, a) for c, a, _, _ in _CLASS_PATCHES]


class Tracer:
    """Collects spans in memory; ``division`` instruments one division at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._rings = []
        self._saved = []
        self._division = None
        self._originals = [(o, a, vars(o).get(a)) for o, a in patch_targets()]

    def unrestored(self):
        """The (owner, attribute) pairs that do not hold their original value."""
        return [(o, a) for o, a, orig in self._originals if vars(o).get(a) is not orig]

    def _muls(self):
        return sum(ring.mul_count for ring in self._rings)

    def open(self, name):
        parent = self._stack[-1].index if self._stack else None
        span = Span(name, len(self.spans), parent, self._division, self._muls())
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        span.muls = self._muls() - span.muls0

    def _replace(self, owner, name, value):
        self._saved.append((owner, name, vars(owner).get(name), name in vars(owner)))
        setattr(owner, name, value)

    def _restore(self):
        while self._saved:
            owner, name, old, had = self._saved.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def _wrap(self, fn, name, attrs, after=None):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            span.args = args
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                attrs(span, args, result, stack[-1] if stack else None)
            span.args = ()
            if after is not None:
                after(result)
            return result

        return wrapper

    def instrument_ring(self, ring):
        """Count calls into a ring instance on the innermost open span."""
        stack = self._stack
        self._rings.append(ring)
        mul, inv = ring.mul, ring.inv

        def timed_mul(a, b):
            t = perf_counter()
            result = mul(a, b)
            span = stack[-1]
            span.mul_s += perf_counter() - t
            span.mul_calls += 1
            return result

        def timed_inv(a):
            t = perf_counter()
            result = inv(a)
            span = stack[-1]
            span.inv_s += perf_counter() - t
            span.inv_calls += 1
            return result

        def counted(fn):
            def wrapper(*args):
                stack[-1].add_calls += 1
                return fn(*args)
            return wrapper

        self._replace(ring, "mul", timed_mul)
        self._replace(ring, "inv", timed_inv)
        for op in ("add", "sub", "neg"):
            self._replace(ring, op, counted(getattr(ring, op)))

    def _instrument_built(self, ctx):
        self.instrument_ring(ctx.ring if isinstance(ctx, SkewPolyRing) else ctx)

    @contextmanager
    def division(self, division_id, name, rings=(), args=()):
        """Trace one division: install every wrapper, open its root span, undo it all."""
        self._division = division_id
        self._rings = []
        try:
            for ring in rings:
                self.instrument_ring(ring)
            for module, attr, span_name, attr_fn in _MODULE_PATCHES:
                owner = importlib.import_module(module)
                after = self._instrument_built if attr == "build_ring" else None
                self._replace(owner, attr, self._wrap(getattr(owner, attr), span_name, attr_fn, after))
            for owner, attr, span_name, attr_fn in _CLASS_PATCHES:
                self._replace(owner, attr, self._wrap(getattr(owner, attr), span_name, attr_fn))
            root = self.open(name)
            root.args = args
            try:
                yield root
            finally:
                self.close(root)
                root.args = ()
        finally:
            self._restore()
            self._rings = []
            self._division = None

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(t0)) + "\n")


# --- per-layer metrics ----------------------------------------------------------

# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "rings.mul_calls": ("count", "lower"),
    "rings.mul_s": ("s", "lower"),
    "rings.inv_calls": ("count", "lower"),
    "rings.add_calls": ("count", "lower"),
    "rings.base_muls": ("count", "lower"),
    "polynomial.mul_calls": ("count", "lower"),
    "polynomial.mul_s": ("s", "lower"),
    "polynomial.mul_self_s": ("s", "lower"),
    "polynomial.mul_coeff_pairs": ("count", "lower"),
    "polynomial.karatsuba_share": ("ratio", "higher"),
    "polynomial.mul_mod_calls": ("count", "lower"),
    "polynomial.mul_mod_s": ("s", "lower"),
    "polynomial.mul_mod_kept_ratio": ("ratio", "higher"),
    "polynomial.classical_div_s": ("s", "lower"),
    "polynomial.pseudo_div_s": ("s", "lower"),
    "polynomial.addsub_s": ("s", "lower"),
    "shinv.shinv_calls": ("count", "lower"),
    "shinv.shinv_s": ("s", "lower"),
    "shinv.shinv0_s": ("s", "lower"),
    "shinv.shinv0_muls": ("count", "lower"),
    "shinv.self_muls": ("count", "lower"),
    "shinv.step_calls": ("count", "lower"),
    "shinv.pow_diff_s": ("s", "lower"),
    "shinv.pow_diff_muls": ("count", "lower"),
    "shinv.update_s": ("s", "lower"),
    "shinv.update_muls": ("count", "lower"),
    "shinv.quotient_product_s": ("s", "lower"),
    "shinv.quotient_product_muls": ("count", "lower"),
    "shinv.quotient_product_kept_ratio": ("ratio", "higher"),
    "shinv.remainder_product_s": ("s", "lower"),
    "shinv.remainder_product_muls": ("count", "lower"),
    "shinv.remainder_product_kept_ratio": ("ratio", "higher"),
    "shinv.quo_other_muls": ("count", "lower"),
    "skew.skew_mul_calls": ("count", "lower"),
    "skew.skew_mul_s": ("s", "lower"),
    "skew.skew_mul_self_s": ("s", "lower"),
    "skew.lshinv_s": ("s", "lower"),
    "skew.lshinv_updates": ("count", "lower"),
    "skew.lshinv_muls": ("count", "lower"),
    "skew.quotient_product_s": ("s", "lower"),
    "skew.quotient_product_muls": ("count", "lower"),
    "skew.remainder_product_s": ("s", "lower"),
    "skew.remainder_product_muls": ("count", "lower"),
    "skew.rquo_other_muls": ("count", "lower"),
    "documents.load_s": ("s", "lower"),
    "documents.build_ring_s": ("s", "lower"),
    "documents.to_poly_s": ("s", "lower"),
    "documents.emit_s": ("s", "lower"),
    "documents.bytes_in": ("B", "lower"),
    "documents.bytes_out": ("B", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "cli.residual_s": ("s", "lower"),
    "trace.divisions": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Base-multiplication phases that must add up to rings.base_muls exactly.
SHINV_PHASES = (
    "shinv.shinv0_muls", "shinv.self_muls", "shinv.pow_diff_muls", "shinv.update_muls",
    "shinv.quotient_product_muls", "shinv.remainder_product_muls", "shinv.quo_other_muls",
)
SKEW_PHASES = (
    "skew.lshinv_muls", "skew.quotient_product_muls", "skew.remainder_product_muls",
    "skew.rquo_other_muls",
)


def _ratio(num, den):
    return num / den if den else 0.0


def _kept_ratio(spans):
    """Base muls a product truncated to its kept coefficients needs, over those made."""
    spans = [s for s in spans if "needed" in s.attrs]
    return _ratio(sum(s.attrs["needed"] for s in spans), sum(s.muls for s in spans))


def layer_metrics(spans):
    """Per-layer totals over the given spans (one traced pass); see LAYER_METRICS."""
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name, field="duration"):
        return sum(getattr(s, field) for s in by_name[name])

    def self_time(s):
        covered = sum(c.duration for c in children[s.index])
        return s.duration - covered - s.mul_s - s.inv_s

    def direct(parent_name, child_name):
        """Per parent span, its direct children of the given name, in call order."""
        return [
            [c for c in children[p.index] if c.name == child_name]
            for p in by_name[parent_name]
        ]

    m = {}
    m["rings.mul_calls"] = sum(s.mul_calls for s in spans)
    m["rings.mul_s"] = sum(s.mul_s for s in spans)
    m["rings.inv_calls"] = sum(s.inv_calls for s in spans)
    m["rings.add_calls"] = sum(s.add_calls for s in spans)
    m["rings.base_muls"] = sum(s.muls for s in spans if s.parent is None)

    muls = by_name["polynomial.mul"]
    m["polynomial.mul_calls"] = len(muls)
    m["polynomial.mul_s"] = total("polynomial.mul")
    m["polynomial.mul_self_s"] = sum(self_time(s) for s in muls)
    m["polynomial.mul_coeff_pairs"] = sum(s.attrs["pairs"] for s in muls)
    m["polynomial.karatsuba_share"] = _ratio(sum(s.attrs["karatsuba"] for s in muls), len(muls))
    mods = by_name["polynomial.mul_mod"]
    m["polynomial.mul_mod_calls"] = len(mods)
    m["polynomial.mul_mod_s"] = total("polynomial.mul_mod")
    m["polynomial.mul_mod_kept_ratio"] = _kept_ratio(mods)
    m["polynomial.classical_div_s"] = total("polynomial.classical_div")
    m["polynomial.pseudo_div_s"] = total("polynomial.pseudo_div")
    m["polynomial.addsub_s"] = total("polynomial.addsub")

    m["shinv.shinv_calls"] = len(by_name["shinv.shinv"])
    m["shinv.shinv_s"] = total("shinv.shinv")
    m["shinv.shinv0_s"] = total("shinv.shinv0")
    m["shinv.shinv0_muls"] = total("shinv.shinv0", "muls")
    # shinv's own muls: everything under shinv outside shinv0 and the steps
    m["shinv.self_muls"] = sum(
        s.muls - sum(c.muls for c in children[s.index] if c.name in ("shinv.shinv0", "shinv.step"))
        for s in by_name["shinv.shinv"]
    )
    m["shinv.step_calls"] = len(by_name["shinv.step"])
    m["shinv.pow_diff_s"] = total("shinv.pow_diff")
    m["shinv.pow_diff_muls"] = total("shinv.pow_diff", "muls")
    m["shinv.update_s"] = total("shinv.step") - m["shinv.pow_diff_s"]
    m["shinv.update_muls"] = total("shinv.step", "muls") - m["shinv.pow_diff_muls"]
    # quo's two products of its own, tagged in call order by _product_attrs
    products = [s for s in by_name["shinv.mul_oriented"] if "role" in s.attrs]
    for role, pos in (("quotient_product", 0), ("remainder_product", 1)):
        prods = [s for s in products if s.attrs["role"] == pos]
        m["shinv.%s_s" % role] = sum(s.duration for s in prods)
        m["shinv.%s_muls" % role] = sum(s.muls for s in prods)
        m["shinv.%s_kept_ratio" % role] = _kept_ratio(prods)
    # quo's muls outside shinv and those two products, so that a product
    # made under another name moves this figure rather than escaping the sum
    m["shinv.quo_other_muls"] = total("shinv.quo", "muls") - total("shinv.shinv", "muls") - (
        m["shinv.quotient_product_muls"] + m["shinv.remainder_product_muls"]
    )

    skews = by_name["skew.skew_mul"]
    m["skew.skew_mul_calls"] = len(skews)
    m["skew.skew_mul_s"] = total("skew.skew_mul")
    m["skew.skew_mul_self_s"] = sum(self_time(s) for s in skews)
    m["skew.lshinv_s"] = total("skew.lshinv")
    # lshinv alternates a residual product v*w and an update product w*rho,
    # ending on the residual product that certifies w.
    m["skew.lshinv_updates"] = sum(len(k) // 2 for k in direct("skew.lshinv", "skew.skew_mul"))
    m["skew.lshinv_muls"] = total("skew.lshinv", "muls")
    rquo = direct("skew.rquo_via_lshinv", "skew.skew_mul")
    for role, pos in (("quotient_product", 0), ("remainder_product", 1)):
        prods = [kids[pos] for kids in rquo if len(kids) > pos]
        m["skew.%s_s" % role] = sum(s.duration for s in prods)
        m["skew.%s_muls" % role] = sum(s.muls for s in prods)
    m["skew.rquo_other_muls"] = total("skew.rquo_via_lshinv", "muls") - m["skew.lshinv_muls"] - (
        m["skew.quotient_product_muls"] + m["skew.remainder_product_muls"]
    )

    m["documents.load_s"] = total("documents.load")
    m["documents.build_ring_s"] = total("documents.build_ring")
    m["documents.to_poly_s"] = total("documents.to_poly")
    m["documents.emit_s"] = total("documents.emit")
    m["documents.bytes_in"] = sum(s.attrs["bytes"] for s in by_name["documents.load"])
    m["documents.bytes_out"] = sum(s.attrs["bytes"] for s in by_name["documents.emit"])
    m["cli.main_self_s"] = sum(self_time(s) for s in by_name["cli.main"])
    m["cli.residual_s"] = total("cli.residual_product")
    return m


def reconcile(m, phases):
    """The difference between rings.base_muls and the sum of the given phases."""
    return m["rings.base_muls"] - sum(m[p] for p in phases)
