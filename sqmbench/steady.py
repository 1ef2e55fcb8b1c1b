#!/usr/bin/env python3
"""Steadiness report for the SQM benchmark.

Runs one workload k times with seeds seed0, seed0+1, ... and prints, for
every metric, the median, the quartiles and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. A spread should stay below
a third of its bound; setup_s is exempt from the spread rule but not from
the median rule.

    python3 sqmbench/steady.py --workload pca_paper --runs 10 --save parent.json
    python3 sqmbench/steady.py --workload pca_paper --runs 10 --against parent.json

With --against, the new runs are compared with a saved set (the parent's)
by the rule later changes face: a metric moved if at least 9 of 10 paired
runs moved the same way and the medians differ by more than the saved
set's interquartile range; a change is rejected if a median got worse by
more than the metric's bound. The exact counters (wire_bytes, and with
--trace 1 mpc.rounds, net.messages, net.bytes, mpc.elems) must repeat in
every run; the script exits non-zero when they do not, when a run fails,
or when a run reports correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = {"wire_bytes", "mpc.rounds", "net.messages", "net.bytes", "mpc.elems"}


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"seed {seed}: exit code {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["stderr"] = out.stderr
    return res


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def worse(better, new, old):
    return new > old if better == "lower" else new < old


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="write the runs to this JSON file")
    ap.add_argument("--against", help="compare with runs saved by --save")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs = []
    bad = []
    for i in range(args.runs):
        seed = args.seed0 + i
        res = run_once(spec, args.workload, seed, seconds, args.trace)
        if not res["correct"] or res["failed"]:
            bad.append(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        runs.append({k: v["value"] for k, v in res["metrics"].items()})
        steal = [l for l in res["stderr"].splitlines() if "host steal" in l]
        print(f"run {i + 1}/{args.runs} seed {seed}: attempted {res['attempted']}; "
              + (steal[-1].split(": ", 1)[-1] if steal else ""), file=sys.stderr)

    print(f"{args.workload} ({args.runs} runs, {seconds} s each, trace {args.trace})")
    print(f"{'metric':<26}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for m in metrics:
        vals = [r[m["name"]] for r in runs]
        med, q1, q3, sp = spread(vals)
        bound = m.get("bound")
        if m["name"] in EXACT and len(set(vals)) > 1:
            bad.append(f"{m['name']} is an exact counter but varied: {sorted(set(vals))}")
        if bound is None:
            verdict = ""
        elif m["name"] == "setup_s":
            verdict = "(spread exempt)"
        elif sp <= bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO WIDE"
        print(f"{m['name']:<26}{m['unit']:>7}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{sp:>9.4f}{'' if bound is None else bound:>7}  {verdict}")

    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "runs": runs}, indent=1))
    if args.against:
        old = json.loads(Path(args.against).read_text())
        if old["workload"] != args.workload or old["trace"] != args.trace:
            raise SystemExit("--against holds runs of another workload or trace mode")
        print("\ncomparison with", args.against)
        for m in metrics:
            name, better = m["name"], m["better"]
            new_v = [r[name] for r in runs]
            old_v = [r[name] for r in old["runs"]]
            pairs = list(zip(old_v, new_v))
            lost = sum(worse(better, n, o) for o, n in pairs)
            won = sum(worse(better, o, n) for o, n in pairs)
            old_med, oq1, oq3, _ = spread(old_v)
            new_med = statistics.median(new_v)
            apart = abs(new_med - old_med) > (oq3 - oq1)
            need = 0.9 * len(pairs)
            if won >= need and apart:
                verdict = "improved"
            elif lost >= need and apart:
                verdict = "regressed"
            else:
                verdict = "no change"
            bound = m.get("bound")
            if bound is not None and old_med and worse(better, new_med, old_med) \
                    and abs(new_med - old_med) / abs(old_med) > bound:
                verdict += f"; REJECT (worse by more than {bound:.0%})"
            print(f"{name:<26} {old_med:>14.6g} -> {new_med:<14.6g} "
                  f"won {won}/{len(pairs)} lost {lost}/{len(pairs)}  {verdict}")

    if bad:
        print("\n".join(["FAILED:"] + bad), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
