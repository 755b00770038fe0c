"""Run the benchmark over many seeds and summarise each metric's median and quartiles.

    python3 perfbench/steady.py --seeds 1-10 [--workloads gfp-modred,cli-small]
        [--trace-seeds 1] [--out summary.json]
    python3 perfbench/steady.py --compare first.json second.json

Runs are made one at a time, seed by seed, cycling through the workloads, so
that a slow spell of the machine falls on every workload alike.  For every
end-to-end metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median.  ``--trace-seeds`` adds traced
runs, whose overhead ratio and per-layer counts are summarised too.
``--compare`` runs nothing: it checks the second of two saved summaries
against the first.  No median may be worse by more than the metric's bound,
and ``base_muls_per_div`` must repeat exactly for every seed both share; the
exit status is 1 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WALL_NOTES = ("wall_div_s_p50", "wall_div_s_p90", "wall_divs_per_s", "ref_s_median")


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (%d): %s\n%s" % (done.returncode, " ".join(cmd), done.stderr))
    digest = lines[0].split()[-1]
    notes = json.loads(next(line for line in lines if line.startswith("notes "))[6:])
    return json.loads(lines[-1]), digest, wall, notes


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def compare(first_path, second_path, bench):
    """Print how the second summary's medians moved against the first; 1 on a breach."""
    loaded = []
    for path in (first_path, second_path):
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh)["workloads"])
    first, second = loaded
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    breaches = 0
    for w in second:
        for name, s in second[w]["metrics"].items():
            change = s["median"] / first[w]["metrics"][name]["median"] - 1
            worse = change if better[name] == "lower" else -change
            flag = ""
            if worse > bounds[name]:
                breaches += 1
                flag = "  <-- worse by more than the bound %.2f" % bounds[name]
            print("%-11s %-18s %+.4f%s" % (w, name, change, flag))
        old = dict(zip(first[w]["seeds"], first[w]["metrics"]["base_muls_per_div"]["values"]))
        new = dict(zip(second[w]["seeds"], second[w]["metrics"]["base_muls_per_div"]["values"]))
        same = all(old[k] == new[k] for k in old.keys() & new.keys())
        breaches += not same
        print("%-11s base_muls_per_div per seed: %s" % (w, "identical" if same else "DIFFERENT"))
    return 1 if breaches else 0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seeds", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        return compare(*args.compare, bench)

    runs = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for w in workloads:
            result, digest, wall, notes = run_once(w, seed, args.seconds, 0)
            runs[w].append((seed, digest, result, wall, notes))
            print("%s seed %d: %s" % (w, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})), flush=True)
    traced = {w: [] for w in workloads}
    for seed in _seeds(args.trace_seeds) if args.trace_seeds else []:
        for w in workloads:
            result, _, _, _ = run_once(w, seed, args.seconds, 1)
            traced[w].append(result["metrics"])

    summary = {}
    for w in workloads:
        entry = {"metrics": {}, "seeds": [run[0] for run in runs[w]],
                 "input_digests": [run[1] for run in runs[w]],
                 "divisions_per_run": [run[2]["attempted"] for run in runs[w]],
                 "run_wall_s": [round(run[3], 2) for run in runs[w]]}
        print("\n%s (%d runs)" % (w, len(runs[w])))
        for name in runs[w][0][2]["metrics"]:
            s = summarise([run[2]["metrics"][name]["value"] for run in runs[w]])
            s["unit"] = runs[w][0][2]["metrics"][name]["unit"]
            entry["metrics"][name] = s
            flag = ""
            if s["spread"] > bounds[name]:
                flag = "  <-- OVER THE BOUND"
            elif s["spread"] >= bounds[name] / 3:
                flag = "  <-- over bound/3"
            print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.3f)%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bounds[name], flag))
        # Wall-clock figures and the reference loop's time, from each run's
        # notes: what the host did, for comparison with the figures in ref.
        entry["wall_clock"] = {}
        for name in WALL_NOTES:
            s = summarise([run[4][name] for run in runs[w]])
            entry["wall_clock"][name] = s
            print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (not gated)"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"]))
        if traced[w]:
            entry["traced"] = {
                name: [m[name]["value"] for m in traced[w]] for name in traced[w][0]
            }
            print("  trace.overhead_ratio %s" % entry["traced"]["trace.overhead_ratio"])
        summary[w] = entry

    if args.out:
        report = {
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "arch": platform.machine(),
            },
            "run_seconds": args.seconds,
            "bounds": bounds,
            "hardware_counters": (
                "none: the machine exposes no hardware counters and no cache-miss data,"
                " so no bytes-moved figures are reported"
            ),
            "workloads": summary,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
