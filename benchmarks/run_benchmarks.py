"""Non-interactive before/after benchmark runner → ``BENCH_kernels.json``.

Measures the fast-path scheduling kernels against the repository's seed
implementation and writes a machine-readable report.  Two measurement
modes are combined:

* **seed-git** — end-to-end runs (centralized C=4 sweep, online
  per-arrival replanning).  The "before" is the repository's actual root
  commit, extracted with ``git archive`` into a temp directory and run in
  a subprocess with its own ``PYTHONPATH``; "after" is the working tree,
  driven through the solver registry (``repro.solvers``).  Each side
  gets its own worker script: the *direct* worker calls
  ``schedule_offline``/``run_online_haste`` straight (the only API the
  pre-registry trees have, and a call path every later tree still
  exposes), while the *registry* worker resolves a spec string and
  reports the artifact's scheduling-phase ``plan_s`` — which wraps
  exactly what the direct worker's ``perf_counter`` wraps, so the two
  sides stay comparable.
  Before/after repeats are interleaved in time so slow drift of the host
  (thermal, co-tenants) hits both sides equally, and the median repeat is
  reported.
* **flags-reference** — in-process micro-kernels where the dense
  reference is still available behind a flag (``use_sparse=False``) or a
  constructor (per-arrival objectives).  Both sides run in this
  interpreter, interleaved, and medians are reported.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # paper scale
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # CI-sized
    PYTHONPATH=src python benchmarks/run_benchmarks.py --obs      # BENCH_obs.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --shard    # BENCH_shard.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --traffic  # BENCH_traffic.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --serve    # BENCH_serve.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --resilience  # BENCH_resilience.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --batch    # BENCH_batch.json

The default output path is ``BENCH_kernels.json`` next to the repo root;
``--skip-seed`` falls back to flags-reference for the end-to-end rows
(e.g. when the git history is unavailable).

``--obs`` measures the observability layer instead (→ ``BENCH_obs.json``):
the **disabled** instrumentation path against the pre-instrumentation
tree (``--obs-baseline``, default the commit the observability layer
landed on top of) on the PR 1 kernel benchmarks — the acceptance bar is
<2 % overhead — plus the in-process cost of *enabled* tracing and the
per-call price of a no-op span.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Each measured side runs its own worker script — no runtime probing of
# what the extracted tree supports.  The *direct* workers speak the seed
# API (``schedule_offline`` / ``run_online_haste``), which every tree in
# the history exposes; the *registry* workers speak spec strings and read
# the artifact's ``plan_s``, which wraps exactly the region the direct
# workers time with ``perf_counter``.

WORKER_CENTRALIZED_DIRECT = """
import json, sys, time
import numpy as np
from repro.sim.config import SimulationConfig
from repro.sim.workload import sample_network
from repro.offline.centralized import schedule_offline

scale, net_seed, run_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cfg = getattr(SimulationConfig, scale)() if scale != "default" else SimulationConfig()
net = sample_network(cfg, np.random.default_rng(net_seed))
rng = np.random.default_rng(run_seed)
t0 = time.perf_counter()
res = schedule_offline(net, cfg.num_colors, num_samples=cfg.num_samples, rng=rng)
dt, value = time.perf_counter() - t0, res.objective_value
print(json.dumps({"seconds": dt, "value": value,
                  "n": net.n, "m": net.m, "K": net.num_slots,
                  "C": cfg.num_colors, "S": cfg.num_samples}))
"""

WORKER_CENTRALIZED_REGISTRY = """
import json, sys
import numpy as np
from repro.sim.config import SimulationConfig
from repro.sim.workload import sample_network
from repro.solvers import get_solver

scale, net_seed, run_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cfg = getattr(SimulationConfig, scale)() if scale != "default" else SimulationConfig()
net = sample_network(cfg, np.random.default_rng(net_seed))
rng = np.random.default_rng(run_seed)
# plan_s times the scheduling phase only, matching the region the direct
# worker wraps in perf_counter.
art = get_solver("haste-offline:smooth=0").solve(net, rng, cfg)
dt, value = art.meta["plan_s"], art.objective_value
print(json.dumps({"seconds": dt, "value": value,
                  "n": net.n, "m": net.m, "K": net.num_slots,
                  "C": cfg.num_colors, "S": cfg.num_samples}))
"""

WORKER_ONLINE_DIRECT = """
import json, sys, time
import numpy as np
from repro.sim.config import SimulationConfig
from repro.sim.workload import sample_network
from repro.online.runtime import run_online_haste

scale, net_seed, run_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cfg = getattr(SimulationConfig, scale)() if scale != "default" else SimulationConfig()
net = sample_network(cfg, np.random.default_rng(net_seed))
rng = np.random.default_rng(run_seed)
t0 = time.perf_counter()
run = run_online_haste(net, num_colors=cfg.num_colors, num_samples=cfg.num_samples,
                       tau=cfg.tau, rho=cfg.rho, rng=rng)
dt, events, utility = time.perf_counter() - t0, run.events, run.total_utility
print(json.dumps({"seconds": dt, "events": events,
                  "per_event": dt / max(events, 1),
                  "utility": utility,
                  "n": net.n, "m": net.m, "K": net.num_slots,
                  "C": cfg.num_colors, "S": cfg.num_samples}))
"""

WORKER_ONLINE_REGISTRY = """
import json, sys
import numpy as np
from repro.sim.config import SimulationConfig
from repro.sim.workload import sample_network
from repro.solvers import get_solver

scale, net_seed, run_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cfg = getattr(SimulationConfig, scale)() if scale != "default" else SimulationConfig()
net = sample_network(cfg, np.random.default_rng(net_seed))
rng = np.random.default_rng(run_seed)
# plan_s wraps run_online_haste exactly as the direct worker's
# perf_counter does.
art = get_solver("online-haste").solve(net, rng, cfg)
dt, events, utility = art.meta["plan_s"], art.events, art.total_utility
print(json.dumps({"seconds": dt, "events": events,
                  "per_event": dt / max(events, 1),
                  "utility": utility,
                  "n": net.n, "m": net.m, "K": net.num_slots,
                  "C": cfg.num_colors, "S": cfg.num_samples}))
"""


def extract_tree(dest: Path, rev: str) -> Path:
    """Extract ``src/`` of commit ``rev`` into ``dest`` (``"root"`` → the
    repository's root commit)."""
    if rev == "root":
        rev = subprocess.run(
            ["git", "rev-list", "--max-parents=0", "HEAD"],
            cwd=REPO_ROOT, check=True, capture_output=True, text=True,
        ).stdout.split()[0]
    archive = subprocess.run(
        ["git", "archive", rev, "src"],
        cwd=REPO_ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x"], cwd=dest, input=archive, check=True)
    return dest / "src"


def extract_seed_tree(dest: Path) -> Path:
    """Extract ``src/`` of the repo's root commit into ``dest``."""
    return extract_tree(dest, "root")


def run_worker(worker: str, pythonpath: Path, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    out = subprocess.run(
        [sys.executable, "-c", worker, *args],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def interleaved_subprocess_op(
    *, op: str, before_worker: str, after_worker: str, metric: str,
    scale: str, repeats: int, before_path: Path, after_path: Path,
    net_seed: int = 7, run_seed: int = 11,
) -> dict:
    """Alternate before/after subprocess runs; report per-side medians.

    Each side gets its own worker script — the extracted "before" tree
    is driven through the API it actually has rather than a runtime
    ImportError probe."""
    before, after, instance = [], [], {}
    for r in range(repeats):
        for side, worker, path, sink in (
                ("before", before_worker, before_path, before),
                ("after", after_worker, after_path, after)):
            res = run_worker(worker, path, [scale, str(net_seed), str(run_seed)])
            sink.append(res)
            instance = {k: res[k] for k in ("n", "m", "K", "C", "S")}
            print(f"  {op} [{side} {r + 1}/{repeats}] "
                  f"{res[metric]:.4f}s", flush=True)
    b = statistics.median(r[metric] for r in before)
    a = statistics.median(r[metric] for r in after)
    # Agreement of the optimized value with the seed's is part of the
    # report — the fast path must not buy speed with a different answer.
    check_key = "value" if "value" in before[0] else "utility"
    agree = max(abs(x[check_key] - y[check_key])
                for x, y in zip(before, after))
    return {
        "op": op, "metric": metric, "mode": "seed-git", "scale": scale,
        "instance": instance, "repeats": repeats,
        "before_median_s": b, "after_median_s": a,
        "speedup": b / a if a > 0 else float("inf"),
        "max_abs_value_diff": agree,
    }


def interleaved_inprocess_op(
    *, op: str, before_fn, after_fn, instance: dict, repeats: int = 7,
    inner: int = 1, metric: str = "seconds",
) -> dict:
    """Alternate before/after callables in-process; report medians."""
    before, after = [], []
    for _ in range(repeats):
        for fn, sink in ((before_fn, before), (after_fn, after)):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            sink.append((time.perf_counter() - t0) / inner)
    b, a = statistics.median(before), statistics.median(after)
    return {
        "op": op, "metric": metric, "mode": "flags-reference",
        "instance": instance, "repeats": repeats,
        "before_median_s": b, "after_median_s": a,
        "speedup": b / a if a > 0 else float("inf"),
    }


def micro_benchmarks(scale: str) -> list[dict]:
    """In-process micro-kernels: dense reference vs fast path."""
    import numpy as np
    from repro.objective import HasteObjective
    from repro.offline import schedule_offline
    from repro.sim import SimulationConfig, sample_network

    cfg = (getattr(SimulationConfig, scale)() if scale != "default"
           else SimulationConfig())
    net = sample_network(cfg, np.random.default_rng(7))
    instance = {"n": net.n, "m": net.m, "K": net.num_slots,
                "C": cfg.num_colors, "S": cfg.num_samples}
    S = cfg.num_samples
    dense = HasteObjective(net, use_sparse=False)
    sparse = HasteObjective(net, use_sparse=True)
    i = next(i for i in range(net.n) if net.policy_count(i) > 1)
    k = int(net.relevant_slots(i)[0])
    rows = np.arange(0, S, 3)
    e_dense = dense.zero_energy((S,))
    e_sparse = sparse.zero_energy((S,))
    results = [
        interleaved_inprocess_op(
            op="gain_kernel",
            before_fn=lambda: dense.partition_gains_rows(e_dense, rows, i, k),
            after_fn=lambda: sparse.partition_gains_rows(e_sparse, rows, i, k),
            instance=instance, inner=50,
        )
    ]

    sched = schedule_offline(net, 1, rng=np.random.default_rng(3)).schedule
    results.append(
        interleaved_inprocess_op(
            op="energies_of_schedule",
            before_fn=lambda: dense.energies_of_schedule(sched),
            after_fn=lambda: sparse.energies_of_schedule(sched),
            instance=instance, inner=5,
        )
    )

    known = net.release_slots <= int(np.median(net.release_slots))
    base = HasteObjective(net)
    results.append(
        interleaved_inprocess_op(
            op="per_arrival_objective",
            before_fn=lambda: HasteObjective(net, task_mask=known),
            after_fn=lambda: base.masked_view(known),
            instance=instance, inner=5,
        )
    )
    return results


def obs_enabled_micro(scale: str) -> list[dict]:
    """In-process: tracing disabled vs enabled on the PR 1 kernel ops.

    The registry runs sink-less while enabled (aggregation only), which
    is what ``repro-haste profile`` costs minus the final formatting.
    """
    import numpy as np
    from repro import obs
    from repro.offline import CentralizedScheduler
    from repro.online.runtime import run_online_haste
    from repro.sim import SimulationConfig, sample_network

    cfg = (getattr(SimulationConfig, scale)() if scale != "default"
           else SimulationConfig())
    net = sample_network(cfg, np.random.default_rng(7))
    instance = {"n": net.n, "m": net.m, "K": net.num_slots,
                "C": cfg.num_colors, "S": cfg.num_samples}
    reg = obs.get_registry()

    def gated(fn, enabled):
        def run():
            reg.enabled = enabled
            try:
                fn()
            finally:
                reg.enabled = False
        return run

    scheduler = CentralizedScheduler(net)
    sweep = lambda: scheduler.run(
        cfg.num_colors, num_samples=cfg.num_samples,
        rng=np.random.default_rng(5))
    online = lambda: run_online_haste(
        net, num_colors=1, tau=cfg.tau, rho=cfg.rho,
        rng=np.random.default_rng(6))
    results = []
    for op, fn, repeats in (
        ("sweep_traced_vs_untraced", sweep, 3 if scale == "paper" else 5),
        ("online_traced_vs_untraced", online, 3),
    ):
        row = interleaved_inprocess_op(
            op=op, before_fn=gated(fn, False), after_fn=gated(fn, True),
            instance=instance, repeats=repeats,
        )
        row["mode"] = "obs-enabled"
        row["overhead_pct"] = (row["after_median_s"] / row["before_median_s"]
                               - 1.0) * 100.0
        results.append(row)
        reg.reset()

    # The raw price of one disabled call site: a flag check + no-op span.
    calls = 1_000_000
    span = obs.span
    t0 = time.perf_counter()
    for _ in range(calls):
        with span("noop"):
            pass
    per_call = (time.perf_counter() - t0) / calls
    results.append({
        "op": "noop_span_call", "metric": "seconds_per_call",
        "mode": "obs-disabled", "instance": {"calls": calls},
        "seconds_per_call": per_call,
    })
    return results


def obs_overhead_report(scale: str, baseline_rev: str, rep_c: int,
                        rep_o: int, skip_online: bool) -> list[dict]:
    """BENCH_obs.json rows: disabled-path overhead vs the
    pre-instrumentation tree, then the enabled-tracing micro rows."""
    results: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract_tree(Path(tmp), baseline_rev)
        after_src = REPO_ROOT / "src"
        print(f"obs-disabled overhead, centralized C=4 ({scale}, "
              f"{rep_c} repeats/side, baseline {baseline_rev})")
        row = interleaved_subprocess_op(
            op="offline_centralized_c4",
            before_worker=WORKER_CENTRALIZED_DIRECT,
            after_worker=WORKER_CENTRALIZED_REGISTRY,
            metric="seconds", scale=scale, repeats=rep_c,
            before_path=base_src, after_path=after_src,
        )
        rows = [row]
        if not skip_online:
            print(f"obs-disabled overhead, online replanning ({scale}, "
                  f"{rep_o} repeats/side)")
            rows.append(interleaved_subprocess_op(
                op="online_per_arrival",
                before_worker=WORKER_ONLINE_DIRECT,
                after_worker=WORKER_ONLINE_REGISTRY,
                metric="per_event", scale=scale, repeats=rep_o,
                before_path=base_src, after_path=after_src,
            ))
        for row in rows:
            row["mode"] = "obs-disabled-vs-baseline"
            row["baseline_rev"] = baseline_rev
            row["overhead_pct"] = (
                row["after_median_s"] / row["before_median_s"] - 1.0
            ) * 100.0
            results.append(row)
    print(f"obs-enabled micro rows ({scale})")
    results.extend(obs_enabled_micro(scale))
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized instances instead of paper scale")
    parser.add_argument("--output", default=None)
    parser.add_argument("--repeats-centralized", type=int, default=None)
    parser.add_argument("--repeats-online", type=int, default=None)
    parser.add_argument("--skip-seed", action="store_true",
                        help="skip git-seed end-to-end rows")
    parser.add_argument("--skip-online", action="store_true")
    parser.add_argument("--obs", action="store_true",
                        help="measure the observability layer instead "
                             "(writes BENCH_obs.json)")
    parser.add_argument("--shard", action="store_true",
                        help="measure the sharded solver instead "
                             "(delegates to bench_shard.py → "
                             "BENCH_shard.json)")
    parser.add_argument("--traffic", action="store_true",
                        help="measure the traffic generator instead "
                             "(delegates to bench_traffic.py → "
                             "BENCH_traffic.json)")
    parser.add_argument("--serve", action="store_true",
                        help="measure the serving engine instead "
                             "(delegates to bench_serve.py → "
                             "BENCH_serve.json)")
    parser.add_argument("--resilience", action="store_true",
                        help="measure the serve-resilience layer instead "
                             "(delegates to bench_resilience.py → "
                             "BENCH_resilience.json)")
    parser.add_argument("--batch", action="store_true",
                        help="measure the batched solve path instead "
                             "(delegates to bench_batch.py → "
                             "BENCH_batch.json)")
    parser.add_argument("--obs-baseline", default="HEAD",
                        help="git rev of the pre-instrumentation tree the "
                             "--obs disabled-path rows compare against")
    args = parser.parse_args()

    if args.shard or args.traffic or args.serve or args.resilience or args.batch:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        module = __import__(
            "bench_batch" if args.batch
            else "bench_resilience" if args.resilience
            else "bench_serve" if args.serve
            else "bench_traffic" if args.traffic
            else "bench_shard"
        )

        argv = [sys.argv[0]]
        if args.quick:
            argv.append("--quick")
        if args.output:
            argv.extend(["--output", args.output])
        sys.argv = argv
        module.main()
        return

    scale = "quick" if args.quick else "paper"
    rep_c = args.repeats_centralized or (3 if args.quick else 5)
    rep_o = args.repeats_online or 3

    if args.obs:
        results = obs_overhead_report(
            scale, args.obs_baseline, rep_c, rep_o, args.skip_online
        )
        report = {
            "description": "Observability layer cost: obs-disabled rows run "
                           "the pre-instrumentation tree (baseline_rev) as "
                           "'before' and the instrumented working tree with "
                           "tracing off as 'after' (acceptance: <2% "
                           "overhead); obs-enabled rows toggle the registry "
                           "in-process.",
            "scale": scale,
            "python": sys.version.split()[0],
            "results": results,
        }
        out = args.output or str(REPO_ROOT / "BENCH_obs.json")
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {out}")
        for r in results:
            if "overhead_pct" in r:
                print(f"  {r['op']:28s} {r['before_median_s']:.4f}s → "
                      f"{r['after_median_s']:.4f}s  "
                      f"({r['overhead_pct']:+.2f}%)")
            else:
                print(f"  {r['op']:28s} "
                      f"{r['seconds_per_call'] * 1e9:.0f}ns/call")
        return

    results: list[dict] = []
    if not args.skip_seed:
        with tempfile.TemporaryDirectory() as tmp:
            seed_src = extract_seed_tree(Path(tmp))
            after_src = REPO_ROOT / "src"
            print(f"centralized C=4 sweep ({scale}, {rep_c} repeats/side)")
            results.append(interleaved_subprocess_op(
                op="offline_centralized_c4",
                before_worker=WORKER_CENTRALIZED_DIRECT,
                after_worker=WORKER_CENTRALIZED_REGISTRY,
                metric="seconds", scale=scale, repeats=rep_c,
                before_path=seed_src, after_path=after_src,
            ))
            if not args.skip_online:
                print(f"online replanning ({scale}, {rep_o} repeats/side)")
                results.append(interleaved_subprocess_op(
                    op="online_per_arrival",
                    before_worker=WORKER_ONLINE_DIRECT,
                    after_worker=WORKER_ONLINE_REGISTRY,
                    metric="per_event", scale=scale, repeats=rep_o,
                    before_path=seed_src, after_path=after_src,
                ))

    print(f"micro-kernels ({scale})")
    results.extend(micro_benchmarks(scale))

    report = {
        "description": "Fast-path scheduling kernels: before/after medians "
                       "(interleaved repeats; seed-git rows run the repo's "
                       "root commit as the 'before' side)",
        "scale": scale,
        "python": sys.version.split()[0],
        "results": results,
    }
    out = args.output or str(REPO_ROOT / "BENCH_kernels.json")
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    for r in results:
        print(f"  {r['op']:28s} {r['before_median_s']:.4f}s → "
              f"{r['after_median_s']:.4f}s  ({r['speedup']:.2f}x)")


if __name__ == "__main__":
    main()
