#!/usr/bin/env python3
"""Aggregate and compare vdce_perf runs (used by run.sh and aa.sh).

  report.py summary RUNS.jsonl OUT.json   median/quartiles per workload and metric
  report.py compare A.json B.json         do two sets of runs agree within the bounds?
"""
import json
import statistics
import sys

BENCH = json.load(open("BENCHMARK.json"))
DEFS = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}
# Counts: identical in every run of one seed, whatever the machine does.
EXACT = {"allocs_per_op", "alloc_bytes_per_op", "served_share"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(runs_path, out_path):
    runs = [json.loads(line) for line in open(runs_path)]
    failures = []
    table = {}
    for run in runs:
        w, res = run["workload"], run["result"]
        if not res or not res.get("correct"):
            failures.append(f"{w} seed {run['seed']}: run failed its checks")
            continue
        for name, m in res["metrics"].items():
            table.setdefault(w, {}).setdefault(name, []).append((run["seed"], m["value"]))
    out = {}
    print(f"\n{'workload':<15} {'metric':<36} {'median':>16} {'unit':<6} {'bound':>5} {'n':>3} "
          f"{'q1':>14} {'q3':>14} {'spread':>7}")
    for w, metrics in table.items():
        for name, samples in metrics.items():
            values = [v for _, v in samples]
            d = DEFS[name]
            bound = d.get("bound")
            if max(values) == 0 and bound is None:
                continue  # a layer this workload does not enter
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = ""
            if name in EXACT:
                by_seed = {}
                for seed, v in samples:
                    by_seed.setdefault(seed, set()).add(v)
                for seed, vs in by_seed.items():
                    if len(vs) > 1:
                        failures.append(f"{w}/{name}: seed {seed} gave {sorted(vs)}")
            # setup_s is short and is held to its bound by its median alone.
            if bound is not None and name != "setup_s":
                if spread > bound:
                    failures.append(f"{w}/{name}: spread {spread:.3f} exceeds bound {bound}")
                elif spread > bound / 3:
                    flag = " >bound/3"
            out.setdefault(w, {})[name] = {
                "median": med, "unit": d["unit"], "q1": q1, "q3": q3, "n": len(values),
                "spread": spread, "bound": bound,
            }
            print(f"{w:<15} {name:<36} {med:>16.6f} {d['unit']:<6} "
                  f"{'' if bound is None else bound:>5} {len(values):>3} {q1:>14.6f} {q3:>14.6f} "
                  f"{spread:>7.3f}{flag}")
    json.dump(out, open(out_path, "w"), indent=1, sort_keys=True)
    print(f"\nwrote {out_path} ({len(runs)} run(s))")
    for f in failures:
        print(f"FAILED: {f}")
    return 1 if failures else 0


def compare(a_path, b_path):
    a, b = json.load(open(a_path)), json.load(open(b_path))
    offenders = []
    for w, metrics in a.items():
        for name, ma in metrics.items():
            if ma["bound"] is None:
                continue
            va, vb = ma["median"], b[w][name]["median"]
            # Same code on both sides: neither is the baseline, so the
            # difference is taken against the larger of the two.
            apart = abs(vb - va) / max(abs(va), abs(vb)) if va != vb else 0.0
            allowed = 0.0 if name in EXACT else ma["bound"]
            verdict = "ok" if apart <= allowed else "APART"
            print(f"{w:<15} {name:<22} A {va:>16.6f}  B {vb:>16.6f}  "
                  f"apart by {apart:.3f} (allowed {allowed}) {verdict}")
            if apart > allowed:
                offenders.append(f"{w}/{name}: {va} vs {vb}, apart by {apart:.3f} > {allowed}")
    for o in offenders:
        print(f"A/A FAILED: {o}")
    if not offenders:
        print("A/A OK: every end-to-end metric within its bound, counts equal")
    return 1 if offenders else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "summary":
        sys.exit(summary(sys.argv[2], sys.argv[3]))
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)
