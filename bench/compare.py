#!/usr/bin/env python3
"""Summarize one result set, or compare two.

    python3 bench/compare.py RESULTS                 # medians and quartiles
    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

A result set is a directory of the JSON records that run.py writes to
.bench_out/results/.  For two sets, each
workload and end-to-end metric gets one row: both medians, both quartiles,
the bound from BENCHMARK.json and a verdict:

better      the change wins at least 9 in 10 seed-matched pairs (ties count
            for neither) and its median is ahead by more than the parent's
            interquartile range; or, where either spread exceeds the bound,
            every change run beats every parent run
worse       the change's median is behind by more than the bound
            (or, where a spread exceeds the bound, every change run loses)
unresolved  a spread (interquartile range over median) exceeds the bound
same        none of the above: within the bound

op_p90_s and error_rate are shown too, where both sets have them, without a
bound or a verdict.

Per-layer deltas from traced runs are printed below the rows.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(results):
    """{(workload, trace): {metric: [(seed, value, unit)]}} and the environments seen."""
    runs, envs = {}, set()
    for path in sorted(Path(results).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        envs.add(f"{rec['seconds']:g} s runs, nproc {rec['nproc']}, python {rec['python']}, "
                 f"numpy {rec['numpy']}, scipy {rec['scipy']}")
        table = runs.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            table.setdefault(name, []).append((rec["seed"], m["value"], m["unit"]))
    return runs, envs


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def spread(values):
    q = quartiles(values)
    m = statistics.median(values)
    return (q[2] - q[0]) / abs(m) if m else float("inf")


def verdict(a, b, bound, better):
    """a, b: [(seed, value)] of the parent and the change; pairs are matched by seed."""
    sign = 1.0 if better == "higher" else -1.0
    va, vb = [v for _, v, _ in a], [v for _, v, _ in b]
    ma, mb = statistics.median(va), statistics.median(vb)
    qa = quartiles(va)
    all_better = all(sign * (y - x) > 0 for x in va for y in vb)
    all_worse = all(sign * (y - x) < 0 for x in va for y in vb)
    worse_by_bound = -sign * (mb - ma) > bound * abs(ma)
    if spread(va) > bound or spread(vb) > bound:
        if all_better:
            return "better"
        return "worse" if all_worse and worse_by_bound else "unresolved"
    pairs = [(x, y) for (_, x, _), (_, y, _) in zip(sorted(a), sorted(b))]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if wins >= 0.9 * len(pairs) and sign * (mb - ma) > qa[2] - qa[0]:
        return "better"
    return "worse" if worse_by_bound else "same"


def _stats(values):
    q = quartiles(values)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}] n={len(values)}"


def summarize(runs):
    for (workload, trace), table in sorted(runs.items()):
        print(f"{workload} ({'traced' if trace else 'end to end'})")
        for name, values in table.items():
            print(f"  {name:<26} {values[0][2]:<6} {_stats([v for _, v, _ in values])}")


def compare(parent, change):
    print(f"{'workload':<15} {'metric':<16} {'unit':<5} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'bound':>5} {'delta':>8}  verdict")
    for w in SPEC["workloads"]:
        a_table, b_table = parent.get((w["name"], 0)), change.get((w["name"], 0))
        if not a_table or not b_table:
            print(f"{w['name']:<15} (no end-to-end runs in {'parent' if not a_table else 'change'})")
            continue
        bounded = {m["name"]: m for m in SPEC["end_to_end"]}
        # op_p90_s and error_rate are recorded where they apply but carry no bound
        for name in list(bounded) + sorted(set(a_table) & set(b_table) - set(bounded)):
            a, b = a_table[name], b_table[name]
            va, vb = [v for _, v, _ in a], [v for _, v, _ in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            m = bounded.get(name)
            delta = f"{(mb - ma) / ma:+.2%}" if ma else "n/a"
            print(f"{w['name']:<15} {name:<16} {a[0][2]:<5} {_stats(va):<36} {_stats(vb):<36} "
                  f"{m['bound'] if m else '-':>5} {delta:>8}  "
                  f"{verdict(a, b, m['bound'], m['better']) if m else 'no bound'}")
    print("\nper-layer deltas (medians of traced runs, change against parent)")
    for w in SPEC["workloads"]:
        a_table, b_table = parent.get((w["name"], 1)), change.get((w["name"], 1))
        if not a_table or not b_table:
            continue
        for m in SPEC["per_layer"]:
            ma = statistics.median(v for _, v, _ in a_table[m["name"]])
            mb = statistics.median(v for _, v, _ in b_table[m["name"]])
            delta = f"{(mb - ma) / ma:+.2%}" if ma else "n/a"
            print(f"  {w['name']:<15} {m['name']:<26} {ma:>12.6g} -> {mb:<12.6g} {m['unit']:<6} {delta}")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(arg) for arg in argv]
    for label, (_, envs) in zip(("parent", "change") if len(sets) == 2 else ("results",), sets):
        print(f"{label}: " + "; ".join(sorted(envs)))
    if len(sets) == 1:
        summarize(sets[0][0])
    else:
        compare(sets[0][0], sets[1][0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
