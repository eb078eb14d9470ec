#!/usr/bin/env python3
"""Compare bench/e2e runs of a parent commit and a change.

  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR
  python3 bench/e2e/compare.py --spread DIR [DIR]
  python3 bench/e2e/compare.py --self-test

Each directory holds the results files run.py writes (one per run).  Only
untraced runs are compared, pairing the i-th parent run of a workload with
its i-th change run in start order; at least 10 pairs are required, and
the pairs should alternate which side ran first (a warning says when they
do not).  One row per (end-to-end metric, workload):

  gain         the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range
  REGRESSION   the change median is worse than the parent's by more than
               the metric's bound, whatever the spread
  unresolved   not a regression, but either side's spread (IQR / median)
               exceeds the bound, and not every change run beats every
               parent run
  same         none of the above: no worse than the bound

Exit status: 1 when any row is a regression, 2 on too few pairs.
--spread prints each (metric, workload)'s median and spread over the runs
of one directory, and with two directories how far the second median
lies from the first, as a share of the first.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import E2E_METRICS  # noqa: E402

MIN_PAIRS = 10


def load_runs(directory):
    """{workload: [record, ...]} of untraced runs, in start order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["header"]["trace"]:
            continue
        runs.setdefault(record["header"]["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["header"]["started_at"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(parent, change, better, bound):
    """Apply the comparison rule to one (metric, workload) pair."""
    sign = 1.0 if better == "lower" else -1.0  # sign·(p − c) > 0: c better
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse_by = sign * (mc - mp) / mp
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if worse_by > bound:
        return "REGRESSION", wins, worse_by
    if max(spread(parent), spread(change)) > bound:
        return "gain" if every_run_better else "unresolved", wins, worse_by
    if (wins >= 0.9 * len(parent) and sign * (mp - mc) > 0 and
            abs(mc - mp) > q3 - q1):
        return "gain", wins, worse_by
    return "same", wins, worse_by


def alternates(parent, change):
    """True when the side that ran first flips from one pair to the next."""
    firsts = [p["header"]["started_at"] < c["header"]["started_at"]
              for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent_runs, change_runs, out=print):
    """Print one row per (metric, workload); return the worst exit status."""
    status = 0
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        n = min(len(p_runs), len(c_runs))
        if n < MIN_PAIRS:
            out(f"{workload}: only {n} pairs of runs; need {MIN_PAIRS}")
            status = max(status, 2)
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        if not alternates(p_runs, c_runs):
            out(f"warning: {workload} runs do not alternate which side "
                "ran first")
        for name, unit, better, bound in E2E_METRICS:
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v, wins, worse_by = verdict(p, c, better, bound)
            pq, cq = quartiles(p), quartiles(c)
            out(f"{name:17} {workload:15} parent {statistics.median(p):.4g} "
                f"[{pq[0]:.4g}, {pq[1]:.4g}] change {statistics.median(c):.4g} "
                f"[{cq[0]:.4g}, {cq[1]:.4g}] {unit}  worse by {worse_by:+.1%} "
                f"(bound {bound:.0%})  wins {wins}/{n}  spread "
                f"{spread(p):.1%}/{spread(c):.1%}  {v}")
            if v == "REGRESSION":
                status = max(status, 1)
    return status


def spread_table(directories):
    sets = [load_runs(d) for d in directories]
    for workload in sorted(sets[0]):
        for name, unit, better, bound in E2E_METRICS:
            cols = []
            medians = []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs.get(workload, [])]
                if not vals:
                    cols.append("(no runs)")
                    continue
                medians.append(statistics.median(vals))
                cols.append(f"n={len(vals)} median {medians[-1]:.4g} {unit} "
                            f"spread {spread(vals):.1%}")
            line = f"{name:17} {workload:15} " + " | ".join(cols)
            if len(medians) == 2:
                sign = 1.0 if better == "lower" else -1.0
                line += (f" | second worse by "
                         f"{sign * (medians[1] - medians[0]) / medians[0]:+.1%}"
                         f" (bound {bound:.0%})")
            print(line)


def self_test():
    """Identical inputs pass; a 1.5x slowdown of one pair trips, also when
    the runs spread wider than the bound."""
    def runs(first, slow_pair=None, step=0.01):
        """Synthetic runs whose values step up by `step` of the median from
        one run to the next (spread about 2·step); the side with first = 0
        starts first on even pairs, the other on odd ones."""
        out = {}
        for w, workload in enumerate(["a", "b"]):
            records = []
            for i in range(MIN_PAIRS):
                metrics = {}
                for m, (name, unit, better, _) in enumerate(E2E_METRICS):
                    value = (1.0 + m + w) * (1.0 + step * ((i * 7) % 5))
                    if slow_pair == (name, workload):
                        value *= 1.5 if better == "lower" else 1 / 1.5
                    metrics[name] = {"value": value, "unit": unit}
                records.append({"header": {"trace": 0, "workload": workload,
                                           "started_at": 2 * i + (i + first) % 2},
                                "metrics": metrics})
            out[workload] = records
        return out

    def run_case(parent, change):
        rows = []
        return compare(parent, change, out=rows.append), rows

    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what)
        ok &= cond

    status, rows = run_case(runs(0), runs(1))
    expect(status == 0 and all(r.endswith("same") for r in rows),
           "identical runs compare as the same")
    wide = 0.2  # spread of about 0.4, wider than every bound
    status, rows = run_case(runs(0, step=wide), runs(1, step=wide))
    expect(status == 0 and all(r.endswith("unresolved") for r in rows),
           "identical runs wider than the bound compare as unresolved")
    for pair in (("latency_p50_s", "a"), ("throughput_per_s", "b")):
        for step in (0.01, wide):
            status, rows = run_case(runs(0, step=step),
                                    runs(1, slow_pair=pair, step=step))
            flagged = [r for r in rows if r.endswith("REGRESSION")]
            expect(status == 1 and len(flagged) == 1 and
                   flagged[0].startswith(f"{pair[0]:17} {pair[1]:15}"),
                   f"a 1.5x slowdown of {pair[0]} on {pair[1]} trips, with "
                   f"runs spread {'wider than' if step == wide else 'within'} "
                   "the bound")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", nargs="*", type=Path)
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if args.spread and 1 <= len(args.dirs) <= 2:
        spread_table(args.dirs)
        return
    if len(args.dirs) != 2:
        ap.error("give PARENT_DIR and CHANGE_DIR")
    sys.exit(compare(load_runs(args.dirs[0]), load_runs(args.dirs[1])))


if __name__ == "__main__":
    main()
