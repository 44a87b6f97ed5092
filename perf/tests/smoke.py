"""Smoke run of every workload, untraced and traced, with bro_perf --quick:
each run must be correct with no failures, and must emit exactly the
BENCHMARK.json metrics of its mode with their units.

  smoke.py BRO_PERF BENCHMARK.json
"""
import json
import subprocess
import sys
import tempfile


def check(binary, workload, trace, out_dir, expected):
    """Problems of one run, as strings."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--quick", "--seed", "7",
         "--trace", str(trace), "--out-dir", out_dir],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} "
                        f"failed={result['failed']} "
                        f"attempted={result['attempted']}")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != expected:
        units = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        problems.append(f"missing {sorted(set(expected) - set(got))} "
                        f"extra {sorted(set(got) - set(expected))} "
                        f"unit mismatch {units}")
    if trace:
        with open(f"{out_dir}/trace-{workload}.json") as f:
            if not json.load(f)["traceEvents"]:
                problems.append("empty trace file")
    return problems


def main(binary, bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    with tempfile.TemporaryDirectory() as out_dir:
        for w in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                for p in check(binary, w, trace, out_dir, expected[trace]):
                    print(f"FAIL {w} --trace {trace}: {p}")
                    failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
