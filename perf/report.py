#!/usr/bin/env python3
"""Aggregate and compare bro_perf results.

  report.py merge [--bench BENCHMARK.json] RECORD.json...
                                            one run file from per-workload
                                            records (bro_perf --out); with
                                            --bench, fails on a missing metric
  report.py compare --bench BENCHMARK.json A.json... -- B.json...
                                            per workload and metric: medians
                                            and quartiles of each side, then
                                            a verdict from the metric's bound
  report.py baseline --ref NAME RUN.json... --traced RUN.json
                                            medians and quartiles of several
                                            untraced runs plus a traced run
"""
import argparse
import json
import statistics
import sys


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them; a
    single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 when the median
    is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """Compare side B (the change) against side A (the parent).

    A spread (quartile distance over median) wider than the bound on either
    side is 'unresolved' unless every B run beats, or loses to, every A
    run. Otherwise B is 'worse' when its median is worse than A's by more
    than the bound, 'improved' when it is better by more than A's quartile
    distance, and 'unchanged' otherwise.
    """
    sign = 1 if better == "higher" else -1
    beats = all(sign * (y - x) > 0 for x in a for y in b)
    loses = all(sign * (y - x) < 0 for x in a for y in b)
    if spread(a) > bound or spread(b) > bound:
        return "improved" if beats else "worse" if loses else "unresolved"
    q1a, med_a, q3a = quartiles(a)
    med_b = quartiles(b)[1]
    gain = sign * (med_b - med_a)
    if med_a and -gain / abs(med_a) > bound:
        return "worse"
    if gain > 0 and gain > q3a - q1a:
        return "improved"
    return "unchanged"


def load(path):
    with open(path) as f:
        return json.load(f)


def merge(paths):
    records = [load(p) for p in paths]
    return {"workloads": {r["workload"]: r for r in records}}


def missing_metrics(bench, run):
    """'workload: name' for every metric of the run's mode (per-layer when
    traced, end-to-end otherwise) that a workload record lacks."""
    missing = []
    for name, rec in run["workloads"].items():
        wanted = bench["per_layer" if rec["trace"] else "end_to_end"]
        missing += [f"{name}: {m['name']}" for m in wanted
                    if m["name"] not in rec["metrics"]]
    return missing


def values_by_metric(runs):
    """{workload: {metric: ([values], unit)}} over several run files."""
    table = {}
    for run in runs:
        for name, rec in run["workloads"].items():
            for metric, m in rec["metrics"].items():
                values, _ = table.setdefault(name, {}).setdefault(
                    metric, ([], m["unit"]))
                values.append(m["value"])
    return table


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(bench, side_a, side_b, out=sys.stdout):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a = values_by_metric([load(p) for p in side_a])
    b = values_by_metric([load(p) for p in side_b])
    worse = 0
    for workload in sorted(set(a) & set(b)):
        print(f"== {workload}", file=out)
        for metric in sorted(set(a[workload]) & set(b[workload])):
            va, unit = a[workload][metric]
            vb, _ = b[workload][metric]
            med_a = quartiles(va)[1]
            change = ((quartiles(vb)[1] - med_a) / abs(med_a) if med_a
                      else 0.0)
            spec = bounds.get(metric)
            v = (verdict(va, vb, spec["better"], spec["bound"]) if spec
                 else "per-layer (no bound)")
            worse += v == "worse"
            print(f"  {metric:34s} {unit:7s} A {fmt(va)}  B {fmt(vb)}  "
                  f"{change:+.2%}  {v}", file=out)
    return worse


def baseline(ref, runs, traced):
    loaded = [load(p) for p in runs]
    summary = {}
    for workload, metrics in values_by_metric(loaded).items():
        summary[workload] = {}
        for metric, (values, unit) in metrics.items():
            q1, med, q3 = quartiles(values)
            summary[workload][metric] = {"median": med, "q1": q1, "q3": q3,
                                         "unit": unit, "runs": len(values)}
    host = next(iter(loaded[0]["workloads"].values()))["host"]
    trace = load(traced)
    return {
        "ref": ref,
        "host": host,
        "untraced_runs": len(loaded),
        "untraced": summary,
        "traced": {w: {k: {"value": m["value"], "unit": m["unit"],
                           "n": m["n"], "note": m["note"]}
                       for k, m in rec["metrics"].items()}
                   for w, rec in trace["workloads"].items()},
    }


def main(argv):
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("merge")
    m.add_argument("--bench")
    m.add_argument("records", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("--bench", required=True)
    c.add_argument("files", nargs="+", help="A files (then --, then B files)")
    b = sub.add_parser("baseline")
    b.add_argument("--ref", required=True)
    b.add_argument("--traced", required=True)
    b.add_argument("runs", nargs="+")
    side_b = []
    if "--" in argv:  # argparse would swallow the bare "--" separator
        cut = argv.index("--")
        argv, side_b = argv[:cut], argv[cut + 1:]
    args = p.parse_args(argv)
    if args.cmd == "merge":
        run = merge(args.records)
        json.dump(run, sys.stdout, indent=1)
        print()
        missing = (missing_metrics(load(args.bench), run) if args.bench
                   else [])
        for m in missing:
            print(f"missing metric {m}", file=sys.stderr)
        return 1 if missing else 0
    if args.cmd == "compare":
        if not side_b:
            p.error("compare needs A files, then --, then B files")
        return 1 if compare(load(args.bench), args.files, side_b) else 0
    json.dump(baseline(args.ref, args.runs, args.traced), sys.stdout,
              indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
