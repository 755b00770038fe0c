"""polyquo benchmark: one closed-loop workload per run, every result checked.

    python3 perfbench/run.py --workload gfp-modred --seed 1 --seconds 30 --trace 0

Run from the root of a polyquo checkout; the package is imported from
``src/``.  One process, one caller: the next division starts only when the
previous one returns, and no threads or worker pools are started.

``--trace 0`` measures the end-to-end metrics.  It divides fresh seeded
inputs until ``--seconds`` of division time and at least MIN_SAMPLES
divisions have passed, so that at least ten samples lie above the 90th
percentile, and ends on whole passes over a workload's document pool.
Between divisions, outside the timed region, it times the set-up in a fresh
interpreter SETUP_REPEATS times, spaced evenly over the run's projected
division time, so the set-up samples meet the same machine as the divisions.

Division times are reported in ``ref``: one ``ref`` is the time the fixed
pure-Python loop ``reference_loop`` takes at that moment.  The loop is timed
between divisions at least every REF_EVERY_S seconds, and each division's
wall time is divided by the mean of the samples taken just before and just
after it.  A shared host's speed drifts by half and more over tens of
seconds, and moves the loop and a division alike, so times in ``ref`` repeat
where seconds do not.  The wall-clock figures are printed too, in ``notes``.

``--trace 1`` makes passes over the workload's first ``count`` inputs until
``--seconds`` have passed, dividing each input traced and then untraced, and
reports the per-layer metrics of one pass.  Both print one line per
metric, then a JSON summary as the last line of standard output, and exit 1
if any division failed or any check did not hold.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

MIN_SAMPLES = 100
SETUP_REPEATS = 31
REF_EVERY_S = 0.2
REF_REPEATS = 3

END_TO_END = {
    "div_ref_p50": "ref",
    "div_ref_p90": "ref",
    "divs_per_kref": "1/kref",
    "base_muls_per_div": "count",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_polyquo():
    """Import polyquo from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "polyquo", "__init__.py")):
        sys.exit("error: no polyquo sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import polyquo

    if os.path.dirname(os.path.dirname(os.path.abspath(polyquo.__file__))) != SRC:
        sys.exit("error: imported polyquo from %s, not %s" % (polyquo.__file__, SRC))


_SETUP_TEMPLATE = """\
import sys, time
sys.path.insert(0, %r)
t0 = time.perf_counter()
%s
print(repr(time.perf_counter() - t0))
"""


def measure_setup(workload_cls):
    """Time to import polyquo and build the workload's rings, in a fresh interpreter."""
    code = _SETUP_TEMPLATE % (SRC, workload_cls.setup_code)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed divisions, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, i, exc):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append("division %d: %s: %s" % (i, type(exc).__name__, exc))


def _checked(wl, i, inp, out, tally):
    """Run the workload's check on one result; a failure is counted, never raised."""
    tally.attempted += 1
    if isinstance(out, Exception):
        tally.fail(i, out)
        return None
    try:
        return wl.check(inp, out)
    except Exception as exc:  # a failed check is a failed division, reported below
        tally.fail(i, exc)
        return None


def _divide(wl, inp):
    """One untraced division: its result (or exception), wall time and base multiplications."""
    before = wl.mul_count()
    t0 = time.perf_counter()
    try:
        out = wl.divide(inp)
    except Exception as exc:  # counted as a failed division
        out = exc
    return out, time.perf_counter() - t0, wl.mul_count() - before


# The reference loop does the two kinds of work a division does: a schoolbook
# product mod 127 of two fixed 64-term lists, as in polyquo's inner loops,
# and the per-call overhead of a command (an argument parser built and run,
# a small JSON document parsed and written).  Nothing in it calls polyquo,
# so no change to the program moves it.
_REF_A = tuple((7 * i + 3) % 127 for i in range(64))
_REF_B = tuple((5 * i + 1) % 127 for i in range(64))
_REF_DOC = json.dumps({"ring": {"kind": "gfp", "p": 127},
                       "polys": {"u": list(_REF_A), "v": list(_REF_B[:32])}})
_REF_ARGV = ["divide", "doc.json", "--side", "left", "--method", "fast", "-o", "out.json"]


def reference_loop():
    out = [0] * (len(_REF_A) + len(_REF_B) - 1)
    for i, x in enumerate(_REF_A):
        for j, y in enumerate(_REF_B):
            out[i + j] = (out[i + j] + x * y) % 127
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    divide = sub.add_parser("divide")
    divide.add_argument("document")
    divide.add_argument("--side", choices=("left", "right"))
    divide.add_argument("--method", choices=("classical", "fast", "pseudo"))
    divide.add_argument("-o", dest="output")
    parser.parse_args(_REF_ARGV)
    json.dumps(json.loads(_REF_DOC))
    return out


def time_reference():
    """Median wall time of REF_REPEATS reference loops: the host's speed now."""
    samples = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def timed_run(wl, seconds, tally):
    """Closed loop of untraced divisions, with set-up and reference timings taken between them.

    Returns per-division wall times, per-division reference times (the mean
    of the reference samples just before and just after each division),
    per-division base-mul counts and set-up times.
    """
    times, muls, setups = [], [], []
    refs, ref_before = [time_reference()], []
    last_ref = time.perf_counter()
    elapsed = 0.0
    i = 0
    while elapsed < seconds or i < MIN_SAMPLES or i % wl.cycle:
        # the run lasts --seconds, or MIN_SAMPLES divisions if those take longer
        projected = max(seconds, elapsed / i * MIN_SAMPLES) if i else seconds
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * projected / SETUP_REPEATS:
            setups.append(measure_setup(type(wl)))
        inp = wl.input(i)
        out, secs, n = _divide(wl, inp)
        ref_before.append(len(refs) - 1)
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(time_reference())
            last_ref = time.perf_counter()
        times.append(secs)
        muls.append(n)
        elapsed += secs
        _checked(wl, i, inp, out, tally)
        i += 1
    refs.append(time_reference())
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(type(wl)))
    div_refs = [(refs[k] + refs[k + 1]) / 2 for k in ref_before]
    return times, div_refs, muls, setups


def end_to_end(wl, seconds, tally):
    times, div_refs, muls, setups = timed_run(wl, seconds, tally)
    in_refs = [t / r for t, r in zip(times, div_refs)]
    p90 = statistics.quantiles(in_refs, n=10, method="inclusive")[-1]
    # The smallest whole number of pool passes holding MIN_SAMPLES divisions:
    # every run reaches it, so every run of a seed counts the same inputs.
    basis = -(-MIN_SAMPLES // wl.cycle) * wl.cycle
    metrics = {
        "div_ref_p50": statistics.median(in_refs),
        "div_ref_p90": p90,
        "divs_per_kref": 1000 * len(in_refs) / sum(in_refs),
        "base_muls_per_div": sum(muls[:basis]) / basis,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "samples": len(times),
        "samples_above_p90": sum(x > p90 for x in in_refs),
        "base_muls_basis": basis,
        "setup_repeats": len(setups),
        "ref_s_median": statistics.median(div_refs),
        "wall_div_s_p50": statistics.median(times),
        "wall_div_s_p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "wall_divs_per_s": len(times) / sum(times),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def traced_run(wl, seconds, tally, spans_path):
    """Passes over the first ``count`` inputs, each divided traced and then untraced."""
    from tracer import (
        LAYER_METRICS, RING_METHODS, SHINV_PHASES, SKEW_PHASES, Tracer, layer_metrics, reconcile,
    )

    inputs = [wl.input(i) for i in range(wl.count)]
    tracer = Tracer()
    passes, problems = [], []
    traced_s = untraced_s = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first_span = len(tracer.spans)
        traced_keys, untraced_keys, untraced_muls = [], [], 0
        # Each input is divided traced, then untraced, back to back, so that
        # both see the machine in the same state and the overhead ratio holds.
        for i, inp in enumerate(inputs):
            t0 = time.perf_counter()
            try:
                with tracer.division(i, wl.root, wl.rings(), wl.root_args(inp)):
                    out = wl.divide(inp)
            except Exception as exc:  # counted as a failed division
                out = exc
            traced_s += time.perf_counter() - t0
            traced_keys.append(_checked(wl, i, inp, out, tally))
            out, secs, n = _divide(wl, inp)
            untraced_s += secs
            untraced_muls += n
            untraced_keys.append(_checked(wl, i, inp, out, tally))
        m = layer_metrics(tracer.spans[first_span:])
        if traced_keys != untraced_keys:
            problems.append("traced results differ from untraced results")
        if m["rings.base_muls"] != untraced_muls:
            problems.append("rings.base_muls %d != untraced base muls %d"
                            % (m["rings.base_muls"], untraced_muls))
        phases = {"shinv.quo": SHINV_PHASES, "skew.rquo_via_lshinv": SKEW_PHASES}.get(wl.root)
        if phases and reconcile(m, phases) != 0:
            problems.append("phase muls miss rings.base_muls by %d" % reconcile(m, phases))
        passes.append(m)

    counts = {k for k, (unit, _) in LAYER_METRICS.items() if unit in ("count", "B")}
    counts &= set(passes[0])
    if any(p[k] != passes[0][k] for p in passes for k in counts):
        problems.append("per-layer counts differ between identical passes")
    for owner, attr in tracer.unrestored():
        problems.append("%s.%s was not restored" % (owner.__name__, attr))
    for ring in wl.rings():
        if set(RING_METHODS) & set(vars(ring)):
            problems.append("%r keeps instrumented methods" % ring)

    metrics = {k: statistics.fmean(p[k] for p in passes) for k in passes[0]}
    for k in counts:
        metrics[k] = passes[0][k]
    metrics["trace.divisions"] = len(inputs)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    notes = {"passes": len(passes), "spans": len(tracer.spans),
             "spans_file": os.path.relpath(spans_path, ROOT)}
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    return {k: (metrics[k], LAYER_METRICS[k][0]) for k in LAYER_METRICS}, notes, not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_polyquo()
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))

    tally = Tally()
    wl = make_workload(args.workload, args.seed, workdir=OUT_DIR)
    try:
        print("workload %s seed %d input_digest %s" % (wl.name, args.seed, wl.input_digest()))
        if args.trace:
            spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (wl.name, args.seed))
            metrics, notes, consistent = traced_run(wl, args.seconds, tally, spans_path)
        else:
            metrics, notes = end_to_end(wl, args.seconds, tally)
            consistent = True
    finally:
        wl.close()

    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    print("fail_frac %.6g ratio (%d of %d divisions)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    print("notes %s" % json.dumps(notes, sort_keys=True))
    for message in tally.messages:
        print("failure: %s" % message, file=sys.stderr)
    correct = consistent and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
