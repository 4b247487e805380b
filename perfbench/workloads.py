"""The four perfbench workloads.

Each workload is a closed loop over a fixed *cycle* of ops that ``--seed``
determines completely: the same seed gives the same instances, the same
per-op rng seeds and so the same output digest.  A run executes whole
cycles, so every run sees the same mix of op costs.

Why these four: ``offline-plan`` is Alg. 2 on warm prepared state (colour
sweeps, smoothing, execution); ``online-replan`` is Alg. 3 (negotiation,
banking, final-draw scoring, per-arrival smoothing); ``batch-sweep`` is the
only cold path (geometry, Alg. 1 and power matrices built inside every op)
plus the stacked greedy kernels; ``served-mix`` adds the daemon's parse,
queue, caches and wire on top of the greedy solvers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from harness import Summary, check_artifact, digest, local_scale, peak_rss_mb

from repro.serve import ServeClient
from repro.sim.config import SimulationConfig
from repro.solvers import get_solver
from repro.solvers.artifact import RunArtifact
from repro.solvers.instance import Instance
from repro.solvers.prepared import prepare

#: ``full`` is what the benchmark measures; any other size (``tiny``) keeps
#: the same structure at quick scale so the benchmark's own tests run fast.
FULL = "full"

_DEFAULT = SimulationConfig()
#: Online horizon: long enough that banking from slot 0 and full-horizon
#: scoring show, short enough that the 16-instance cycle fits one run.
_ONLINE = SimulationConfig().replace(horizon_slots=30, duration_slots_max=30)
_QUICK = SimulationConfig.quick()


#: Seed of the fixed instance sets of ``offline-plan`` and ``online-replan``.
#: Plan cost differs by instance, so those sets never change between runs;
#: ``--seed`` drives their per-op rng streams (Alg. 2's colour draws, Alg.
#: 3's negotiation), which change every output but not the cost profile.
#: ``batch-sweep`` and ``served-mix`` draw hundreds of instances from
#: ``--seed`` itself, enough that the mean cost barely moves with it.
INSTANCE_SET_SEED = 2018


def derived_seeds(seed: int, tag: str, count: int) -> list[int]:
    """``count`` reproducible 31-bit seeds for one purpose of one run."""
    key = int.from_bytes(tag.encode(), "little") % (2**32)
    rng = np.random.default_rng([int(seed), key])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


#: A run keeps starting cycles while the next one, judged by the last one,
#: would end within this multiple of ``--seconds`` (and runs at least one).
OVERRUN = 1.2


def another_cycle(start: float, cycle_start: float, seconds: float) -> bool:
    now = time.perf_counter()
    return (now - start) + (now - cycle_start) <= OVERRUN * seconds


def _weight_sum(instance: Instance) -> float:
    return float(np.sum(instance.weights))


def _horizon(instance: Instance) -> int:
    """K as the network derives it: the last slot any task is active in."""
    return int(instance.end_slots.max()) if instance.m else 0


class OpOutput:
    """What one timed op returns to the loop."""

    __slots__ = ("hash", "utilities", "units", "arrivals", "errors", "stats")

    def __init__(self, hash_, utilities, units, arrivals, errors, stats=None):
        self.hash = hash_
        self.utilities = utilities
        self.units = units
        self.arrivals = arrivals
        self.errors = errors
        self.stats = stats


# ----------------------------------------------------------------------
# Single-caller workloads
# ----------------------------------------------------------------------
class SingleCaller:
    """One caller, one op at a time; subclasses define inputs and ops."""

    name = ""

    def __init__(self, seed: int, size: str = FULL) -> None:
        self.seed = int(seed)
        self.size = size
        self.setup_parts: dict[str, float] = {}

    def build_inputs(self) -> None:
        """One set-up repetition: generate and prepare every input."""
        raise NotImplementedError

    def warm(self) -> None:
        """Process-level warm-up (once, after the last repetition)."""

    def cycle(self) -> list:
        raise NotImplementedError

    def run_op(self, op):
        """The timed call; returns whatever ``finish_op`` needs."""
        raise NotImplementedError

    def finish_op(self, op, result) -> OpOutput:
        """Untimed: hash and check the op's output."""
        raise NotImplementedError

    def measure(self, seconds: float, cal, summary: Summary, expected: dict) -> None:
        """Run whole cycles for about ``seconds`` of loop time.

        ``expected`` maps op keys to content hashes seen earlier in the run
        (or in the untraced pass); a repeat that differs is a failure.
        """
        start = time.perf_counter()
        ops = self.cycle()
        after = cal.sample(3)
        while True:
            cycle_start = time.perf_counter()
            for index, op in enumerate(ops):
                before = after
                summary.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = self.run_op(op)
                except Exception as exc:  # an op that raises is a failed op
                    elapsed = time.perf_counter() - t0
                    after = cal.sample(3)
                    summary.timed(elapsed, local_scale(before, after))
                    summary.fail(f"{self.name} op {index}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                after = cal.sample(3)
                scale = local_scale(before, after)
                summary.timed(elapsed, scale)
                out = self.finish_op(op, result)
                summary.op(elapsed, scale)
                summary.units += out.units
                summary.arrivals += out.arrivals
                summary.utilities.extend(out.utilities)
                if out.stats:
                    for key, value in out.stats.items():
                        summary.counts[key] = summary.counts.get(key, 0) + value
                key = self.op_key(op)
                if summary.cycles == 0:
                    summary.first_cycle.append(out.hash)
                known = expected.setdefault(key, out.hash)
                if known != out.hash:
                    out.errors.append(f"output hash changed on repeat of op {index}")
                if out.errors:
                    summary.fail(f"{self.name} op {index}: " + "; ".join(out.errors))
            summary.cycles += 1
            if not another_cycle(start, cycle_start, seconds):
                break

    def op_key(self, op):
        return op

    def close(self) -> None:
        pass


class OfflinePlan(SingleCaller):
    """``haste-offline:c=4`` via ``solve_prepared`` on warm default-scale
    instances (25 chargers, 100 tasks, K=60)."""

    name = "offline-plan"
    spec = "haste-offline:c=4"
    tag = "offline"
    full_count, full_config = 48, _DEFAULT

    def __init__(self, seed, size=FULL):
        super().__init__(seed, size)
        self.count = self.full_count if size == FULL else 2
        self.config = self.full_config if size == FULL else _QUICK
        self.solver = get_solver(self.spec)

    def build_inputs(self):
        seeds = derived_seeds(INSTANCE_SET_SEED, f"{self.tag}.instances", self.count)
        t0 = time.perf_counter()
        self.instances = [Instance.sample(self.config, s) for s in seeds]
        t1 = time.perf_counter()
        self.prepared = [prepare(inst, cached=False) for inst in self.instances]
        network_s = objective_s = 0.0
        for p in self.prepared:
            a = time.perf_counter()
            p.network
            b = time.perf_counter()
            p.objective()
            network_s += b - a
            objective_s += time.perf_counter() - b
            self.prime(p)
        self.setup_parts = {
            "generate_s": t1 - t0,
            "prepare.network_ms": network_s * 1e3 / self.count,
            "prepare.objective_ms": objective_s * 1e3 / self.count,
        }
        self.policy_counts = [
            [p.network.policy_count(i) for i in range(p.network.n)]
            for p in self.prepared
        ]
        self.op_seeds = derived_seeds(self.seed, f"{self.tag}.rng", self.count)

    def prime(self, prepared):
        """Build the rest of the warm state an op reuses."""
        prepared.scheduler()

    def warm(self):
        self.run_op(0)

    def cycle(self):
        return list(range(self.count))

    def run_op(self, op):
        return self.solver.solve_prepared(
            self.prepared[op], np.random.default_rng(self.op_seeds[op])
        )

    def finish_op(self, op, artifact):
        inst = self.instances[op]
        errors = check_artifact(
            artifact, n=inst.n, m=inst.m, horizon=_horizon(inst),
            weight_sum=_weight_sum(inst), policy_counts=self.policy_counts[op],
        )
        return OpOutput(artifact.content_hash(), [artifact.total_utility], 1, 1, errors)


class OnlineReplan(OfflinePlan):
    """``online-haste`` (C=4, τ=1) over a warm instance set with K=30."""

    name = "online-replan"
    spec = "online-haste"
    tag = "online"
    full_count, full_config = 16, _ONLINE

    def prime(self, prepared):
        pass  # the online run derives its views from the shared objective

    def warm(self):
        # A quick-scale run loads the negotiation kernel and its code paths
        # without touching the measured instances.
        small = prepare(Instance.sample(_QUICK, 1), cached=False)
        self.solver.solve_prepared(small, np.random.default_rng(0))

    def finish_op(self, op, artifact):
        out = super().finish_op(op, artifact)
        out.arrivals = int(artifact.events)
        if out.arrivals < 1:
            out.errors.append("online run replanned no arrival")
        stats = artifact.message_stats or {}
        out.stats = {
            "online.arrivals": int(artifact.events),
            "online.messages": int(stats.get("messages", 0)),
            "online.rounds": int(stats.get("rounds", 0)),
        }
        return out


class BatchSweep(SingleCaller):
    """``solve_batch`` of ``greedy-utility`` / ``greedy-cover`` over
    default-scale instances that are cold in every op."""

    name = "batch-sweep"
    specs = ("greedy-utility", "greedy-cover")

    def __init__(self, seed, size=FULL):
        super().__init__(seed, size)
        # The pool is far larger than the prepared cache (8 entries), so
        # every op prepares its instances from scratch even when a long
        # run passes over the pool more than once.
        self.batches = 48 if size == FULL else 6
        self.batch_size = 8 if size == FULL else 2
        self.config = _DEFAULT if size == FULL else _QUICK
        self.solvers = [get_solver(spec) for spec in self.specs]

    def build_inputs(self):
        seeds = derived_seeds(
            self.seed, "batch.instances", self.batches * self.batch_size
        )
        t0 = time.perf_counter()
        pool = [Instance.sample(self.config, s) for s in seeds]
        self.pool = [
            pool[b * self.batch_size:(b + 1) * self.batch_size]
            for b in range(self.batches)
        ]
        self.setup_parts = {"generate_s": time.perf_counter() - t0}

    def warm(self):
        extra = [Instance.sample(self.config, s)
                 for s in derived_seeds(self.seed, "batch.warm", 2)]
        for solver in self.solvers:
            solver.solve_batch(extra)

    def cycle(self):
        return list(range(self.batches))

    def run_op(self, op):
        return self.solvers[op % 2].solve_batch(self.pool[op])

    def finish_op(self, op, artifacts):
        errors = []
        for inst, artifact in zip(self.pool[op], artifacts):
            errors += check_artifact(
                artifact, n=inst.n, m=inst.m, horizon=_horizon(inst),
                weight_sum=_weight_sum(inst),
            )
        if len(artifacts) != len(self.pool[op]):
            errors.append("batch returned the wrong number of artifacts")
        hashes = [a.content_hash() for a in artifacts]
        return OpOutput(
            digest(hashes), [a.total_utility for a in artifacts],
            len(artifacts), len(artifacts), errors,
        )


# ----------------------------------------------------------------------
# Served mix
# ----------------------------------------------------------------------
class Request:
    """One /solve request of the served mix."""

    __slots__ = ("index", "kind", "spec", "seed", "body_ref", "instance")

    def __init__(self, index, kind, spec, seed, body_ref, instance):
        self.index = index
        self.kind = kind
        self.spec = spec
        self.seed = seed
        self.body_ref = body_ref
        self.instance = instance


class ServedMix:
    """Two connections drive a ``repro.cli serve`` daemon subprocess.

    Each cycle of 40 requests holds three kinds in fixed counts: 10 exact
    seeded repeats of 8 warmed (instance, spec, seed) triples, answered by
    the result cache; 6 fresh seeds on 3 hot instances that stay in the
    prepared cache; and 24 instances the daemon has never seen.  Solves
    are two thirds ``greedy-cover`` and one third ``greedy-utility``, the
    slower of the two.  Ordered by cost the requests form three modes —
    repeats (0-25%), cover solves (25-75%), utility solves (75-100%) — so
    p50 and p90 each sit 15 or more points inside one mode, and both are
    taken over solves of many distinct instances.
    """

    name = "served-mix"
    specs = ("greedy-utility", "greedy-cover")
    clients = 2

    def __init__(self, seed, size=FULL):
        self.seed = int(seed)
        self.size = size
        self.config = _DEFAULT if size == FULL else _QUICK
        self.cycle_len = 40 if size == FULL else 8
        self.hot_count = 3
        self.repeat_count = 8 if size == FULL else 2
        self.cold_pool = 256 if size == FULL else 8
        self.setup_parts: dict[str, float] = {}
        self.daemon = None
        self.port = None

    # -- inputs -----------------------------------------------------------
    def build_inputs(self):
        t0 = time.perf_counter()
        hot_seeds = derived_seeds(self.seed, "served.hot", self.hot_count)
        rep_seeds = derived_seeds(self.seed, "served.repeat", self.repeat_count)
        cold_seeds = derived_seeds(self.seed, "served.cold", self.cold_pool)
        self.hot = [Instance.sample(self.config, s) for s in hot_seeds]
        self.rep = [Instance.sample(self.config, s) for s in rep_seeds]
        self.cold = [Instance.sample(self.config, s) for s in cold_seeds]
        self.bodies = {
            "hot": [inst.to_dict() for inst in self.hot],
            "rep": [inst.to_dict() for inst in self.rep],
            "cold": [inst.to_dict() for inst in self.cold],
        }
        self.setup_parts = {"generate_s": time.perf_counter() - t0}
        # Exact repeats: fixed (instance, spec, seed) triples.
        self.repeats = [
            (j, self.specs[j % 2], s) for j, s in enumerate(rep_seeds)
        ]

    def request(self, index: int) -> Request:
        """The ``index``-th request of the run's infinite sequence."""
        cycle, pos = divmod(index, self.cycle_len)
        plan = self._cycle_plan(cycle)
        kind, spec = plan[pos]
        rng = np.random.default_rng([self.seed, 7, index])
        if kind == "repeat":
            j, spec, seed = self.repeats[int(rng.integers(self.repeat_count))]
            return Request(index, kind, spec, seed, ("rep", j), self.rep[j])
        seed = int(rng.integers(0, 2**31 - 1))
        if kind == "hot":
            h = int(rng.integers(self.hot_count))
            return Request(index, kind, spec, seed, ("hot", h), self.hot[h])
        per_cycle = sum(1 for k, _ in plan if k == "cold")
        rank = sum(1 for k, _ in plan[:pos] if k == "cold")
        c = (cycle * per_cycle + rank) % self.cold_pool
        return Request(index, kind, spec, seed, ("cold", c), self.cold[c])

    def _cycle_plan(self, cycle: int) -> list[tuple[str, str]]:
        """(kind, spec) per position of one cycle, in exact counts."""
        n = self.cycle_len
        repeats, cold = round(0.25 * n), round(0.60 * n)
        hot = n - repeats - cold
        utility, cover = self.specs
        plan = [("repeat", None)] * repeats
        for kind, count in (("hot", hot), ("cold", cold)):
            third = count // 3
            plan += [(kind, utility)] * third + [(kind, cover)] * (count - third)
        order = np.random.default_rng([self.seed, 11, cycle]).permutation(n)
        return [plan[i] for i in order]

    def body(self, req: Request) -> dict:
        where, i = req.body_ref
        return self.bodies[where][i]

    # -- daemon -----------------------------------------------------------
    def boot(self) -> float:
        """Start a fresh daemon; returns seconds until ``/healthz`` answers."""
        self.stop_daemon()
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        line = self.daemon.stdout.readline()
        if "listening on http://" not in line:
            self.stop_daemon()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.client_pool = [ServeClient("127.0.0.1", self.port, timeout=60.0)
                            for _ in range(self.clients)]
        self.client_pool[0].wait_ready(timeout=60.0)
        return time.perf_counter() - t0

    def stop_daemon(self) -> None:
        proc = self.daemon
        self.daemon = None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)
        if proc.stdout is not None:
            proc.stdout.close()

    def warm_daemon(self) -> None:
        """Prepare the hot set and put the repeat triples in the cache."""
        client = self.client_pool[0]
        for spec, body, seed in self.warm_requests():
            status, _ = client.solve(spec=spec, instance=body, seed=seed)
            if status != 200:
                raise RuntimeError(f"warm-up request failed with {status}")

    def warm_requests(self):
        """(spec, body, seed) of the warm-up: each hot instance once, then
        every repeat triple, so repeats hit the result cache from the start."""
        for h, body in enumerate(self.bodies["hot"]):
            yield self.specs[h % 2], body, h
        for j, spec, seed in self.repeats:
            yield spec, self.bodies["rep"][j], seed

    def daemon_rss_mb(self) -> float:
        return peak_rss_mb(self.daemon.pid)

    def stats(self) -> dict:
        return self.client_pool[0].stats()

    # -- measurement ------------------------------------------------------
    def _check_reply(self, req: Request, status: int, payload) -> tuple[str, float, list]:
        if status != 200:
            return "", 0.0, [f"status {status}: {str(payload)[:200]}"]
        artifact = RunArtifact.from_dict(payload["artifact"])
        inst = req.instance
        errors = check_artifact(
            artifact, n=inst.n, m=inst.m, horizon=_horizon(inst),
            weight_sum=_weight_sum(inst),
        )
        h = artifact.content_hash()
        if h != payload.get("artifact_hash"):
            errors.append("artifact_hash does not match the artifact")
        return h, float(artifact.total_utility), errors

    def measure(self, seconds: float, cal, summary: Summary, expected: dict,
                call=None, max_cycles: int | None = None,
                clients: int | None = None) -> None:
        """Whole cycles over the daemon (or ``call``) for about ``seconds``,
        or exactly ``max_cycles`` cycles when given.

        With ``clients`` callers (default two), client ``c`` sends the
        cycle's requests ``c, c + clients, ...`` in order;
        calibration runs between cycles, while the daemon is idle, and each
        cycle's times are scaled by the samples on either side of it.
        """
        call = call or self._call_daemon
        clients = clients or self.clients
        start = time.perf_counter()
        cycle = 0
        after = cal.sample(5)
        with ThreadPoolExecutor(clients) as pool:
            while True:
                before = after
                reqs = [self.request(cycle * self.cycle_len + i)
                        for i in range(self.cycle_len)]
                results: list = [None] * len(reqs)

                def drive(c):
                    for pos in range(c, len(reqs), clients):
                        t0 = time.perf_counter()
                        try:
                            reply = call(c, reqs[pos])
                        except Exception as exc:  # counted, not fatal
                            reply = exc
                        results[pos] = (time.perf_counter() - t0, reply)

                t0 = time.perf_counter()
                futures = [pool.submit(drive, c) for c in range(clients)]
                for fut in futures:
                    fut.result()
                wall = time.perf_counter() - t0
                after = cal.sample(5)
                scale = local_scale(before, after)
                summary.timed(wall, scale)
                for pos, (elapsed, reply) in enumerate(results):
                    req = reqs[pos]
                    summary.attempted += 1
                    if isinstance(reply, Exception):
                        summary.fail(f"request {req.index}: {type(reply).__name__}: {reply}")
                        continue
                    h, utility, errors = self._check_reply(req, *reply)
                    summary.op(elapsed, scale)
                    summary.units += 1
                    summary.arrivals += 1
                    summary.utilities.append(utility)
                    if cycle == 0:
                        summary.first_cycle.append(h)
                    key = (req.body_ref, req.spec, req.seed)
                    if expected.setdefault(key, h) != h:
                        errors.append("output hash changed on repeat")
                    if errors:
                        summary.fail(f"request {req.index}: " + "; ".join(errors))
                summary.cycles += 1
                cycle += 1
                if max_cycles is not None:
                    if cycle >= max_cycles:
                        break
                elif not another_cycle(start, t0, seconds):
                    break

    def _call_daemon(self, c: int, req: Request):
        return self.client_pool[c].solve(
            spec=req.spec, instance=self.body(req), seed=req.seed
        )

    def close(self) -> None:
        self.stop_daemon()
