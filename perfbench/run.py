"""perfbench: the HASTE benchmark, end to end (``--trace 0``) or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline-plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a ``perfbench-report`` JSON line with the run
stamp, the output digest and report-only figures.  See README.md in this
directory for what each workload and metric means.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up clock: first line of the process

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import sysconfig  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("offline-plan", "online-replan", "batch-sweep", "served-mix")

#: end-to-end metric → unit (the BENCHMARK.json ``end_to_end`` list)
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "arrival_ms": "ms",
    "utility_mean": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metric → unit (the BENCHMARK.json ``per_layer`` list)
LAYER_UNITS = {
    "prepare.network_ms": "ms",
    "prepare.objective_ms": "ms",
    "prepare.hit_share": "ratio",
    "offline.schedule_ms": "ms",
    "offline.scans": "count",
    "offline.pruned": "count",
    "offline.smooth_ms": "ms",
    "sim.execute_ms": "ms",
    "online.arrivals": "count",
    "online.messages": "count",
    "online.rounds": "count",
    "online.bank_ms": "ms",
    "online.negotiate_ms": "ms",
    "online.score_ms": "ms",
    "online.smooth_ms": "ms",
    "batch.schedule_ms": "ms",
    "batch.execute_ms": "ms",
    "serve.parse_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.roundtrip_ms": "ms",
    "serve.engine_ms": "ms",
    "serve.solve_ms": "ms",
    "serve.result_hit_share": "ratio",
    "serve.coalesced_share": "ratio",
    "serve.dedup": "count",
    "serve.degraded": "count",
    "serve.errors": "count",
    "serve.rejected": "count",
    "residue_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Set-up repetitions whose median is reported: input generation and
#: prepare, daemon boots, and imports (in this process plus fresh probes).
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: quick-scale inputs for the benchmark's own tests")
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(2)


def build() -> float:
    """Byte-compile ``src`` and build the C kernel if stale; returns the
    seconds spent (excluded from ``setup_s``: it happens once per checkout)."""
    t0 = time.perf_counter()
    compileall.compile_dir(str(SRC), quiet=2)
    if not os.environ.get("REPRO_DISABLE_CKERNEL"):
        c_src = SRC / "repro" / "online" / "_fastpath.c"
        tag = sysconfig.get_config_var("SOABI") or "generic"
        so = c_src.with_name(f"_fastpath.{tag}.so")
        if c_src.exists() and (
            not so.exists() or so.stat().st_mtime < c_src.stat().st_mtime
        ):
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.path.insert(0, 'src'); "
                 "from repro.online import _ckernel; _ckernel.load()"],
                cwd=ROOT, timeout=600, check=False,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
    return time.perf_counter() - t0


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import what a run imports and
    load the kernel (the in-process figure is one sample of several)."""
    code = (
        "import time; t = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "import harness, layers, workloads; "
        "from repro.traffic.harness import kernel_mode; kernel_mode(); "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_workload(args, build_s: float) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import harness
    import workloads
    from layers import surviving_wrappers

    from repro.traffic.harness import kernel_mode

    mode = kernel_mode()
    import_s = statistics.median(
        [time.perf_counter() - T_START - build_s]
        + [import_probe() for _ in range(SETUP_REPEATS - 1)]
    )

    cls = {
        "offline-plan": workloads.OfflinePlan,
        "online-replan": workloads.OnlineReplan,
        "batch-sweep": workloads.BatchSweep,
        "served-mix": workloads.ServedMix,
    }[args.workload]
    wl = cls(args.seed, args.size)
    served = args.workload == "served-mix"
    try:
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.build_inputs()
            reps.append(time.perf_counter() - t0)
        boots = [wl.boot() for _ in range(SETUP_REPEATS)] if served else [0.0]
        t0 = time.perf_counter()
        if served:
            wl.warm_daemon()
        else:
            wl.warm()
        warm_s = time.perf_counter() - t0
        setup_raw = import_s + statistics.median(reps) + statistics.median(boots) + warm_s
        setup_cal = harness.Calibrator()
        setup_cal.sample(9)
        setup_s = setup_raw * setup_cal.scale

        seconds = args.seconds / 2 if args.trace else args.seconds
        cal = harness.Calibrator()
        summary = harness.Summary()
        expected: dict = {}
        wl.measure(seconds, cal, summary, expected)
        daemon_rss = wl.daemon_rss_mb() if served else 0.0

        layer_values = None
        traced_digest = None
        if args.trace:
            if served:
                layer_values, traced_digest = traced_served(
                    wl, seconds, summary, expected)
            else:
                layer_values, traced_digest = traced_single(
                    wl, seconds, summary, expected)
            left = surviving_wrappers()
            if left:
                summary.fail("timing wrappers survived the traced run: " + ", ".join(left))
            if traced_digest != summary.digest:
                summary.fail("traced run's output digest differs from the untraced run's")

        rss = harness.peak_rss_mb() + daemon_rss
    finally:
        wl.close()

    e2e = summary.metrics()
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = rss
    extras = summary.extras()
    extras.update({
        "setup_raw_s": setup_raw,
        "setup_parts": {
            "import_s": import_s,
            "inputs_s": statistics.median(reps),
            "daemon_boot_s": statistics.median(boots),
            "warm_s": warm_s,
            "build_s_excluded": build_s,
            **wl.setup_parts,
        },
        "units": "instances" if args.workload == "batch-sweep" else (
            "requests" if served else "ops"),
    })
    report = {
        "workload": args.workload,
        "stamp": harness.run_stamp(args.seed, mode),
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": summary.digest,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "errors": summary.errors,
        "end_to_end": e2e,
        "extras": extras,
    }
    if layer_values is not None:
        report["per_layer"] = layer_values
        report["traced_digest"] = traced_digest
    print_report(report)
    print("perfbench-report " + json.dumps(report, sort_keys=True), flush=True)
    correct = summary.failed == 0 and summary.attempted > 0
    metrics = (metric_block(layer_values, LAYER_UNITS) if args.trace
               else metric_block(e2e, E2E_UNITS))
    print(json.dumps({
        "correct": correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": metrics,
    }), flush=True)
    if not correct:
        for err in summary.errors:
            print(f"perfbench: output check failed: {err}", file=sys.stderr)
        return 1
    return 0


def _ms(seconds: float, count: float, scale: float) -> float:
    return seconds * scale * 1e3 / count if count else 0.0


def zero_layers() -> dict:
    return {name: 0.0 for name in LAYER_UNITS}


def traced_single(wl, seconds, untraced, expected):
    """Second half of a traced run: the same cycles under timing wrappers."""
    import harness
    from layers import LayerTrace

    from repro.solvers.prepared import prepared_cache_info

    cal = harness.Calibrator()
    traced = harness.Summary()
    before = prepared_cache_info()
    with LayerTrace() as trace:
        wl.measure(seconds, cal, traced, expected)
    after = prepared_cache_info()
    scale = traced.scale
    ops = len(traced.latencies)
    s = trace.seconds
    v = zero_layers()
    arrivals = traced.arrivals if wl.name == "online-replan" else 0
    if wl.name == "batch-sweep":
        v["prepare.network_ms"] = _ms(s["prepare.network"], traced.units, scale)
        v["prepare.objective_ms"] = _ms(s["prepare.objective"], traced.units, scale)
    else:
        v["prepare.network_ms"] = wl.setup_parts["prepare.network_ms"] * scale
        v["prepare.objective_ms"] = wl.setup_parts["prepare.objective_ms"] * scale
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    v["prepare.hit_share"] = (after["hits"] - before["hits"]) / lookups if lookups else 0.0
    v["offline.schedule_ms"] = _ms(s["offline.schedule"], ops, scale)
    v["offline.scans"] = trace.offline_counts["fresh_scans"] / ops if ops else 0.0
    v["offline.pruned"] = trace.offline_counts["pruned_skips"] / ops if ops else 0.0
    v["offline.smooth_ms"] = _ms(s["offline.smooth"], ops, scale)
    v["sim.execute_ms"] = _ms(s["sim.execute"], ops, scale)
    for key in ("online.arrivals", "online.messages", "online.rounds"):
        v[key] = traced.counts.get(key, 0) / ops if ops else 0.0
    for key in ("online.bank", "online.negotiate", "online.score", "online.smooth"):
        v[key + "_ms"] = _ms(s[key], arrivals, scale)
    v["batch.schedule_ms"] = _ms(s["batch.schedule"], ops, scale)
    v["batch.execute_ms"] = _ms(s["batch.execute"], ops, scale)
    v["residue_ms"] = _ms(traced.timed_s - sum(s.values()), ops, scale)
    per_op_u = untraced.scaled_timed_s / max(len(untraced.latencies), 1)
    per_op_t = traced.scaled_timed_s / max(ops, 1)
    v["trace.overhead_pct"] = (per_op_t / per_op_u - 1.0) * 100.0 if per_op_u else 0.0
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.errors += traced.errors
    return v, traced.digest


def traced_served(wl, seconds, untraced, expected):
    """Served-mix traced pass: the same request sequence timed at the wire
    (a fresh daemon), at an in-process engine and at ``solve_prepared``."""
    import threading

    import harness
    import numpy as np

    from repro.serve import ScheduleEngine
    from repro.serve.protocol import parse_solve_request, solve_response
    from repro.solvers import get_solver
    from repro.solvers.prepared import PreparedCache

    v = zero_layers()
    # (a) round trip against a fresh daemon, warmed exactly as in set-up.
    wl.boot()
    wl.warm_daemon()
    cal = harness.Calibrator()
    traced = harness.Summary()
    before = wl.stats()
    wl.measure(seconds, cal, traced, expected)
    after = wl.stats()
    requests = len(traced.latencies)
    v["serve.roundtrip_ms"] = _ms(sum(traced.scaled), requests, 1.0)

    def delta(key, sub=None):
        a = after[key] if sub is None else after[key][sub]
        b = before[key] if sub is None else before[key][sub]
        return a - b

    lookups = delta("prepared_cache", "hits") + delta("prepared_cache", "misses")
    v["prepare.hit_share"] = delta("prepared_cache", "hits") / lookups if lookups else 0.0
    results = delta("result_cache", "hits") + delta("result_cache", "misses")
    v["serve.result_hit_share"] = delta("result_cache", "hits") / results if results else 0.0
    n_req = delta("requests")
    v["serve.coalesced_share"] = delta("coalesced_requests") / n_req if n_req else 0.0
    v["serve.dedup"] = delta("inflight_dedup")
    v["serve.degraded"] = delta("degraded")
    v["serve.errors"] = delta("errors")
    v["serve.rejected"] = delta("rejected")
    wl.stop_daemon()

    # (b) the same first cycles through an in-process engine, one request
    # at a time: parse, engine and encode timed separately on the run's own
    # bodies.  (Two callers in one process would mostly measure their own
    # contention for the interpreter lock.)
    cycles = min(2, untraced.cycles)
    acc = {"parse": 0.0, "engine": 0.0, "encode": 0.0}
    lock = threading.Lock()
    engine = ScheduleEngine(workers=2)
    try:
        for spec, body, seed in wl.warm_requests():
            engine.solve(spec, parse_solve_request(
                {"instance": body}, default_spec=spec).instance, seed=seed)

        def engine_call(_c, req):
            raw = json.dumps({"spec": req.spec, "seed": req.seed,
                              "instance": wl.body(req)})
            t0 = time.perf_counter()
            sreq = parse_solve_request(json.loads(raw), default_spec=wl.specs[0])
            t1 = time.perf_counter()
            result = engine.solve(sreq.spec, sreq.instance, seed=sreq.seed)
            t2 = time.perf_counter()
            body = solve_response(result)
            json.dumps(body)
            t3 = time.perf_counter()
            with lock:
                acc["parse"] += t1 - t0
                acc["engine"] += t2 - t1
                acc["encode"] += t3 - t2
            return 200, body

        cal_b = harness.Calibrator()
        inproc = harness.Summary()
        wl.measure(0.0, cal_b, inproc, expected, call=engine_call,
                   max_cycles=cycles, clients=1)
    finally:
        engine.close()
    n_b = len(inproc.latencies)
    scale_b = inproc.scale
    v["serve.parse_ms"] = _ms(acc["parse"], n_b, scale_b)
    v["serve.engine_ms"] = _ms(acc["engine"], n_b, scale_b)
    v["serve.encode_ms"] = _ms(acc["encode"], n_b, scale_b)

    # (c) the solves those requests need, straight at solve_prepared: a
    # result-cache repeat costs no solve, a new instance a cold prepare.
    cache = PreparedCache(capacity=8)
    seen = set()
    solve_s = network_s = 0.0
    cold_builds = 0
    cal_c = harness.Calibrator()
    cal_c.sample(3)
    for index in range(cycles * wl.cycle_len):
        req = wl.request(index)
        key = (req.body_ref, req.spec, req.seed)
        if key in seen or req.kind == "repeat":
            continue
        seen.add(key)
        prepared, hit = cache.get_or_prepare(req.instance)
        t0 = time.perf_counter()
        prepared.network
        t1 = time.perf_counter()
        artifact = get_solver(req.spec).solve_prepared(
            prepared, np.random.default_rng(req.seed))
        t2 = time.perf_counter()
        if not hit:
            network_s += t1 - t0
            cold_builds += 1
        solve_s += t2 - t1
        if expected.get(key, artifact.content_hash()) != artifact.content_hash():
            traced.fail(f"solve_prepared disagrees with the daemon on request {index}")
    cal_c.sample(3)
    v["serve.solve_ms"] = _ms(solve_s, cycles * wl.cycle_len, cal_c.scale)
    v["prepare.network_ms"] = _ms(network_s, cold_builds, cal_c.scale)

    v["residue_ms"] = v["serve.roundtrip_ms"] - (
        v["serve.parse_ms"] + v["serve.engine_ms"] + v["serve.encode_ms"])
    per_u = sum(untraced.scaled) / max(len(untraced.latencies), 1)
    per_t = sum(traced.scaled) / max(requests, 1)
    v["trace.overhead_pct"] = (per_t / per_u - 1.0) * 100.0 if per_u else 0.0
    for extra in (traced, inproc):
        untraced.attempted += extra.attempted
        untraced.failed += extra.failed
        untraced.errors += extra.errors
    if inproc.digest != untraced.digest:
        untraced.fail("in-process engine digest differs from the daemon's")
    return v, traced.digest


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def print_report(report: dict) -> None:
    stamp = report["stamp"]
    print(f"perfbench {report['workload']}  seed={stamp['seed']}  "
          f"kernel={stamp['kernel_mode']}  cpus={stamp['cpus']}  "
          f"python={stamp['python']}  numpy={stamp['numpy']}  "
          f"blas_threads={stamp['blas_threads']}")
    print(f"  ops attempted={report['attempted']} failed={report['failed']}  "
          f"digest={report['digest']}")
    ex = report["extras"]
    for name, value in report["end_to_end"].items():
        print(f"  {name:<18} {value:>14.4f} {E2E_UNITS[name]}")
    if "latency_p90_ms" in ex:
        print(f"  {'latency_p90_ms':<18} {ex['latency_p90_ms']:>14.4f} ms  "
              f"(report only; {ex['ops']} samples)")
    else:
        print(f"  latency_p90_ms     not reported: {ex['ops']} samples < 100")
    print(f"  {'failed_share':<18} {ex['failed_share']:>14.4f} ratio  (report only)")
    if "per_layer" in report:
        print(f"  per layer (traced pass; digest "
              f"{'matches' if report['traced_digest'] == report['digest'] else 'DIFFERS'})")
        for name, value in report["per_layer"].items():
            print(f"    {name:<24} {value:>14.4f} {LAYER_UNITS[name]}")


# ----------------------------------------------------------------------
# All workloads, one subprocess each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("perfbench-report "):
                print(line)
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(combined), flush=True)
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").exists():
        fail(f"no repro sources under {SRC}; run from the root of a checkout")
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if args.workload == "all":
        return run_all(args)
    build_s = build()
    return run_workload(args, build_s)


if __name__ == "__main__":
    sys.exit(main())
