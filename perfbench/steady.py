"""Steadiness report: run one workload k times and show each end-to-end
metric's median, quartiles and spread against its BENCHMARK.json bound.

    python3 perfbench/steady.py --workload offline-plan --runs 10
    python3 perfbench/steady.py --workload served-mix --runs 5 --save a.json
    python3 perfbench/steady.py --workload served-mix --load b.json --against a.json

Run ``i`` uses seed ``first_seed + i``, like the acceptance check.  Spread
is ``(Q3 - Q1) / median`` with Python's ``statistics.quantiles(n=4)``; a
metric is steady when its spread is below a third of its bound (``setup_s``
is exempt from the spread rule).  ``--against`` compares the medians of
two saved sets the way a regression check does: worse by more than the
bound is flagged.  Digests are listed per seed, so two sets of the same
code can be seen to have done identical work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_bounds() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    report = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("perfbench-report ")), {})
    return {"seed": seed, "result": result, "digest": report.get("digest"),
            "raw": {k: report.get("extras", {}).get(k)
                    for k in ("raw_latency_p50_ms", "raw_throughput_per_s",
                              "cal_scale")},
            "setup_parts": report.get("extras", {}).get("setup_parts")}


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def report(runs: list[dict], bounds: dict) -> bool:
    steady = True
    print(f"{'metric':<18} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, meta in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3, s = spread(values)
        exempt = name == "setup_s"
        ok = exempt or s < meta["bound"] / 3
        steady &= ok
        verdict = "exempt" if exempt else ("steady" if ok else "NOISY")
        print(f"{name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{s:>8.4f} {meta['bound']:>6.2f}  {verdict}")
    for r in runs:
        raw = r["raw"]
        print(f"  seed {r['seed']:>4}  digest {str(r['digest'])[:16]}  "
              f"raw p50 {raw['raw_latency_p50_ms']:.2f} ms  "
              f"raw thr {raw['raw_throughput_per_s']:.3f}/s  "
              f"cal scale {raw['cal_scale']:.3f}")
    return steady


def compare(new: list[dict], old: list[dict], bounds: dict) -> bool:
    ok = True
    old_digests = {r["seed"]: r["digest"] for r in old}
    same = [r["seed"] for r in new if old_digests.get(r["seed"]) == r["digest"]]
    print(f"digests identical on {len(same)} of {len(new)} seeds")
    for name, meta in bounds.items():
        a = statistics.median(r["result"]["metrics"][name]["value"] for r in old)
        b = statistics.median(r["result"]["metrics"][name]["value"] for r in new)
        worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
        flag = "WORSE" if worse > meta["bound"] else "ok"
        ok &= flag == "ok"
        print(f"{name:<18} {a:>12.4f} -> {b:>12.4f}  worse by {worse:+.4f} "
              f"(bound {meta['bound']:.2f})  {flag}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--save", help="write the runs to this JSON file")
    p.add_argument("--load", help="report on saved runs instead of running")
    p.add_argument("--against", help="saved runs to compare medians with")
    args = p.parse_args(argv)
    bounds, run_seconds = load_bounds()
    if args.load:
        runs = json.loads(Path(args.load).read_text())
    else:
        seconds = args.seconds or run_seconds
        runs = []
        for i in range(args.runs):
            runs.append(run_once(args.workload, args.first_seed + i, seconds))
            print(f"run {i + 1}/{args.runs} done", file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs))
    ok = report(runs, bounds)
    if args.against:
        ok &= compare(runs, json.loads(Path(args.against).read_text()), bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
