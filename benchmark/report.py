#!/usr/bin/env python3
"""Reads the result lines the harness prints and reports on them.

  report.py show    <set.json>            every metric by name with its unit
  report.py merge   <out.json> <run.json>...   one set from per-run result lines
  report.py compare <a.json> <b.json>     relative difference against each bound
  report.py spread  <dir>                 quartile spread over seeds, per workload
  report.py trace   <trace.jsonl>         self time per span name and field

A run file holds the harness's standard output (its last line is the
result object) and is named <workload>.<trace>[.<seed>].out. A set is
{"workloads": {name: {"end_to_end": {...}, "per_layer": {...},
"attempted": n, "failed": n, "correct": bool}}}.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def contract():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def result_of(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    return json.loads(lines[-1])


def merge(out, paths):
    workloads = {}
    for p in paths:
        name, trace = os.path.basename(p).split(".")[:2]
        r = result_of(p)
        w = workloads.setdefault(name, {"attempted": 0, "failed": 0, "correct": True})
        w["per_layer" if trace == "1" else "end_to_end"] = r["metrics"]
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        w["correct"] = w["correct"] and r["correct"]
    with open(out, "w") as f:
        json.dump({"workloads": workloads}, f, indent=1, sort_keys=True)
        f.write("\n")


def show(path):
    with open(path) as f:
        workloads = json.load(f)["workloads"]
    ok = True
    for name, w in workloads.items():
        print(f"== {name}: ops_attempted {w['attempted']} ops_failed {w['failed']}")
        ok = ok and w["correct"] and w["failed"] == 0
        for kind in ("end_to_end", "per_layer"):
            for metric, v in w.get(kind, {}).items():
                print(f"  {kind:<10} {metric:<36} {v['value']:>16.6f} {v['unit']}")
    return ok


def worse_by(spec, a, b):
    """How much worse b is than a, as a share of a."""
    if a == 0:
        return 0.0
    return (a - b) / abs(a) if spec["better"] == "higher" else (b - a) / abs(a)


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    ok = True
    for spec in contract()["end_to_end"]:
        for name in a:
            va = a[name]["end_to_end"][spec["name"]]["value"]
            vb = b[name]["end_to_end"][spec["name"]]["value"]
            diff = abs(va - vb) / abs(va) if va else 0.0
            verdict = "ok" if diff <= spec["bound"] else "OUTSIDE BOUND"
            ok = ok and diff <= spec["bound"]
            print(
                f"{name:<16} {spec['name']:<28} {va:>12.4f} {vb:>12.4f} "
                f"diff {diff:6.3%} bound {spec['bound']:.3f} {verdict}"
            )
    return ok


def spread(directory):
    """The driver's check: (Q3 - Q1) / median over the seeds of a workload."""
    runs = {}
    for p in sorted(os.listdir(directory)):
        if p.endswith(".out") and p.split(".")[1] == "0":
            runs.setdefault(p.split(".")[0], []).append(result_of(os.path.join(directory, p)))
    ok = True
    for spec in contract()["end_to_end"]:
        for name, results in runs.items():
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            q = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = (q[2] - q[0]) / med if med else 0.0
            third = "" if share <= spec["bound"] / 3 else " (above a third of the bound)"
            within = share <= spec["bound"] or spec["name"] == "setup_s"
            ok = ok and within
            print(
                f"{name:<16} {spec['name']:<28} n={len(values):<3} median {med:>12.4f} "
                f"spread {share:6.3%} bound {spec['bound']:.3f}"
                f"{third if within else ' OUTSIDE BOUND'}"
            )
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    print(f"ops_failed over all runs: {failed}")
    return ok and failed == 0


def trace(path):
    """Median self time per (span name, field label), over the ops."""
    per = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            if "name" in s:
                per.setdefault((s["name"], s["label"]), {}).setdefault(s["op"], 0)
                per[(s["name"], s["label"])][s["op"]] += s["self_ns"]
    for (name, label), ops in sorted(per.items()):
        values = [v / 1e6 for v in ops.values()]
        print(f"{name:<32} {label:<16} n={len(values):<5} self p50 {statistics.median(values):10.4f} ms")
    return True


def main(argv):
    if len(argv) >= 3 and argv[1] == "merge":
        merge(argv[2], argv[3:])
        return 0
    commands = {"show": show, "compare": compare, "spread": spread, "trace": trace}
    if len(argv) < 3 or argv[1] not in commands:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if commands[argv[1]](*argv[2:]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
