"""Tests for the serving subsystem: engine, daemon, protocol, client.

The acceptance bar: every registered spec served through the daemon
returns an artifact **bit-identical** to a direct ``solve_instance``
call on the same instance and seed — the HTTP hop, the worker pool, and
the warm prepared state must all be invisible in the results.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.serve import (
    EngineBusy,
    EngineClosed,
    ProtocolError,
    ScheduleEngine,
    ServeClient,
    parse_solve_request,
    start_in_thread,
)
from repro.sim.config import SimulationConfig
from repro.solvers import Instance, RunArtifact, solve_instance, solver_names

QUICK = SimulationConfig.quick()
SEEDS = (0, 1, 2)

#: Parameterized variants that must be servable beyond the bare names:
#: a non-default utility, a sharded solve, and a fault-injected one.
EXTRA_SPECS = (
    "haste-offline:c=2,utility=log",
    "online-haste:c=1,shards=2",
    "online-haste:fault_seed=5,loss=0.2",
)


@pytest.fixture(scope="module")
def served():
    """One daemon (own event-loop thread) shared by the module's tests."""
    engine = ScheduleEngine(workers=2, queue_limit=32)
    handle = start_in_thread(engine)
    client = ServeClient(port=handle.port)
    client.wait_ready()
    yield engine, client
    handle.stop()
    engine.close()


def _raw_request(client: ServeClient, method: str, path: str, body=None):
    """An HTTP round trip bypassing the client's JSON encoding."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


class TestDaemonBitIdentity:
    @pytest.mark.parametrize("spec", sorted(solver_names()) + list(EXTRA_SPECS))
    def test_served_artifact_matches_direct_solve(self, served, spec):
        _engine, client = served
        for seed in SEEDS:
            inst = Instance.sample(QUICK, 400 + seed)
            direct = solve_instance(spec, inst, seed=seed)
            status, reply = client.solve(spec=spec, instance=inst, seed=seed)
            assert status == 200, reply
            assert reply["artifact_hash"] == direct.content_hash()
            assert reply["spec"] == direct.solver
            assert reply["seed"] == seed
            assert reply["instance_hash"] == inst.content_hash()
            # The shipped artifact decodes back to the same content.
            decoded = RunArtifact.from_dict(reply["artifact"])
            assert decoded.content_hash() == direct.content_hash()

    def test_sample_form_matches_local_sample(self, served):
        _engine, client = served
        inst = Instance.sample(QUICK, 7)
        direct = solve_instance("greedy-utility", inst, seed=3)
        status, reply = client.solve(
            spec="greedy-utility", sample={"scale": "quick", "seed": 7}, seed=3
        )
        assert status == 200, reply
        assert reply["artifact_hash"] == direct.content_hash()

    def test_fault_meta_survives_the_wire(self, served):
        _engine, client = served
        status, reply = client.solve(
            spec="online-haste:fault_seed=5,loss=0.2",
            sample={"scale": "quick", "seed": 7},
            seed=1,
        )
        assert status == 200, reply
        art = RunArtifact.from_dict(reply["artifact"])
        assert art.meta.get("faults"), "fault telemetry missing from meta"

    def test_repeat_request_is_result_cache_hit(self, served):
        _engine, client = served
        payload = dict(
            spec="haste-offline:c=2", sample={"scale": "quick", "seed": 9},
            seed=5,
        )
        status, first = client.solve(**payload)
        status2, second = client.solve(**payload)
        assert status == status2 == 200
        assert second["cached"] and second["warm"]
        assert second["artifact_hash"] == first["artifact_hash"]
        assert second["solve_s"] == 0.0


class TestDaemonRoutesAndErrors:
    def test_healthz_and_solvers(self, served):
        _engine, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["kernel"] in ("compiled", "numpy")
        solvers = client.solvers()
        assert set(solvers) == set(solver_names())
        assert "summary" in solvers["haste-offline"]

    def test_stats_shape(self, served):
        _engine, client = served
        stats = client.stats()
        for key in ("requests", "completed", "errors", "rejected",
                    "queue_depth", "queue_limit", "workers",
                    "result_cache", "prepared_cache", "latency"):
            assert key in stats, key
        assert stats["result_cache"]["capacity"] > 0
        assert stats["prepared_cache"]["capacity"] > 0

    def test_unknown_route_404(self, served):
        _engine, client = served
        assert client.get("/nope")[0] == 404
        assert client.post("/nope", {})[0] == 404

    def test_wrong_method_405(self, served):
        _engine, client = served
        status, _ = _raw_request(client, "PUT", "/healthz")
        assert status == 405

    def test_invalid_json_body_400(self, served):
        _engine, client = served
        status, payload = _raw_request(client, "POST", "/solve", b"{not json")
        assert status == 400
        assert "invalid JSON" in payload["error"]

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
    def test_malformed_content_length_400(self, served, value):
        """A bad Content-Length must answer 400, not drop the connection
        with an unhandled ValueError."""
        _engine, client = served
        with socket.create_connection(
            (client.host, client.port), timeout=30
        ) as conn:
            conn.sendall(
                f"POST /solve HTTP/1.1\r\n"
                f"Content-Length: {value}\r\n\r\n".encode()
            )
            data = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert data.split(b"\r\n", 1)[0].split()[1] == b"400"
        assert b"invalid Content-Length" in data

    @pytest.mark.parametrize(
        "body",
        [
            {},  # neither instance nor sample
            {"sample": {"scale": "quick"}, "instance": {}},  # both
            {"sample": {"scale": "galactic"}},  # unknown scale
            {"sample": {"scale": "quick", "seed": "x"}},  # bad seed type
            {"spec": 7, "sample": {"scale": "quick"}},  # bad spec type
            {"instance": {"format": "nope"}},  # malformed instance
        ],
    )
    def test_protocol_errors_400(self, served, body):
        _engine, client = served
        status, payload = client.post("/solve", body)
        assert status == 400, payload
        assert "error" in payload

    def test_non_finite_instance_400(self, served):
        engine, client = served
        solves = engine.stats()["solves"]
        status, payload = client.solve(
            spec="greedy-utility", instance=_non_finite_instance(), seed=1
        )
        assert status == 400, payload
        assert "task_xy" in payload["error"] and "weights" in payload["error"]
        assert engine.stats()["solves"] == solves  # refused before the queue

    def test_unknown_solver_400(self, served):
        _engine, client = served
        status, payload = client.solve(
            spec="bogus-solver", sample={"scale": "quick", "seed": 1}
        )
        assert status == 400
        assert "bogus-solver" in payload["error"]

    def test_queue_full_503(self):
        engine = ScheduleEngine(workers=1, queue_limit=1)
        try:
            with start_in_thread(engine) as handle:
                client = ServeClient(port=handle.port)
                client.wait_ready()
                engine.submit = _raise_busy  # saturate deterministically
                status, payload = client.solve(
                    sample={"scale": "quick", "seed": 1}
                )
                assert status == 503
                assert "full" in payload["error"]
        finally:
            engine.close()


def _non_finite_instance() -> Instance:
    """A quick instance with a NaN task position and an infinite weight."""
    inst = Instance.sample(QUICK, 31)
    inst.task_xy = inst.task_xy.copy()
    inst.task_xy[2, 0] = float("nan")
    inst.weights = inst.weights.copy()
    inst.weights[1] = float("inf")
    return inst


def _raise_busy(*args, **kwargs):
    raise EngineBusy("request queue is full (1 pending)")


class _BlockingInstance:
    """Delegates to a real instance but stalls ``content_hash`` on a gate
    (pins a worker so queue backpressure can be tested deterministically)."""

    def __init__(self, inner, gate):
        self._inner = inner
        self._gate = gate

    def content_hash(self):
        self._gate.wait(timeout=30)
        return self._inner.content_hash()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestEngine:
    def test_backpressure_raises_engine_busy(self):
        inst = Instance.sample(QUICK, 13)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=1)
        try:
            stalled = engine.submit(
                "greedy-utility", _BlockingInstance(inst, gate), seed=1
            )
            # Wait for the single worker to pick the stalled job up.
            deadline = threading.Event()
            for _ in range(200):
                if engine._queue.qsize() == 0:
                    break
                deadline.wait(0.01)
            queued = engine.submit("greedy-utility", inst, seed=2)
            with pytest.raises(EngineBusy):
                engine.submit("greedy-utility", inst, seed=3)
            assert engine.rejected == 1
            gate.set()
            assert stalled.result(timeout=30).artifact is not None
            assert queued.result(timeout=30).artifact is not None
        finally:
            gate.set()
            engine.close()

    def test_closed_engine_rejects(self):
        engine = ScheduleEngine(workers=1)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit("greedy-utility", Instance.sample(QUICK, 1))

    def test_result_cache_keyed_by_hash_spec_seed(self):
        inst = Instance.sample(QUICK, 19)
        with ScheduleEngine(workers=1) as engine:
            a = engine.solve("greedy-utility", inst, seed=1)
            b = engine.solve("greedy-utility", inst, seed=1)
            assert not a.cached and b.cached
            assert b.artifact.content_hash() == a.artifact.content_hash()
            c = engine.solve("greedy-utility", inst, seed=2)
            assert not c.cached  # different seed, different key
            d = engine.solve("greedy-cover", inst, seed=1)
            assert not d.cached  # different spec, different key
            stats = engine.stats()
            assert stats["result_cache"]["hits"] == 1
            assert stats["result_cache"]["misses"] == 3

    def test_seedless_solves_never_cached(self):
        inst = Instance.from_network(Instance.sample(QUICK, 19).network(), config=QUICK)
        assert inst.seed is None
        with ScheduleEngine(workers=1) as engine:
            a = engine.solve("greedy-utility", inst)
            b = engine.solve("greedy-utility", inst)
            assert a.seed is None and not a.cached and not b.cached

    def test_use_result_cache_false_always_solves(self):
        inst = Instance.sample(QUICK, 19)
        with ScheduleEngine(workers=1) as engine:
            a = engine.solve("greedy-utility", inst, seed=1,
                             use_result_cache=False)
            b = engine.solve("greedy-utility", inst, seed=1,
                             use_result_cache=False)
            assert not a.cached and not b.cached
            assert b.artifact.content_hash() == a.artifact.content_hash()
            assert b.warm  # prepared state still shared


class TestProtocol:
    def test_default_spec_applied(self):
        req = parse_solve_request(
            {"sample": {"scale": "quick", "seed": 2}},
            default_spec="haste-offline",
        )
        assert req.spec == "haste-offline"
        assert req.seed is None

    def test_seed_bool_rejected(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_solve_request(
                {"seed": True, "sample": {"scale": "quick"}},
                default_spec="haste-offline",
            )

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_solve_request([1, 2], default_spec="haste-offline")

    def test_non_finite_instance_lists_every_violation(self):
        import math

        payload = _non_finite_instance().to_dict()
        payload["alpha"] = math.inf
        with pytest.raises(ProtocolError) as err:
            parse_solve_request({"instance": payload}, default_spec="static")
        message = str(err.value)
        assert "3 invalid instance field(s)" in message
        for field in ("task_xy", "weights", "alpha"):
            assert field in message


class TestTrafficEnginePath:
    def test_drive_stream_through_engine_bit_identical(self):
        from repro.traffic import TrafficModel, drive_stream

        model = TrafficModel(process="poisson", rate=1.5, seed=3)
        stream = model.stream(QUICK)
        direct = drive_stream(stream, "online-haste", telemetry=False)
        with ScheduleEngine(workers=1) as engine:
            served = drive_stream(
                stream, "online-haste", telemetry=False, engine=engine
            )
            again = drive_stream(
                stream, "online-haste", telemetry=False, engine=engine
            )
            stats = engine.stats()
        assert (served.artifact.content_hash()
                == direct.artifact.content_hash())
        assert (again.artifact.content_hash()
                == direct.artifact.content_hash())
        # The drive bypasses the result cache (it measures the solve)…
        assert stats["result_cache"]["hits"] == 0
        # …but the prepared state is shared across drives.
        assert stats["completed"] == 2

    def test_run_traffic_report_matches_engine_path(self):
        from repro.traffic import TrafficModel, run_traffic

        model = TrafficModel(process="poisson", rate=1.5, seed=5)
        direct = run_traffic(model, QUICK, loads=(1.0,), telemetry=False)
        with ScheduleEngine(workers=1) as engine:
            served = run_traffic(
                model, QUICK, loads=(1.0,), telemetry=False, engine=engine
            )
        for key in ("utility", "events", "digest", "arrivals"):
            assert served.points[0][key] == direct.points[0][key], key


class TestCoalescing:
    """Micro-batch coalescing (PR 10): invisible in the artifacts.

    The single-worker engine makes the scenario deterministic: a gated
    ``static`` request pins the worker while same-spec requests pile up
    in the queue; releasing the gate lets the worker dequeue the first
    one as leader and drain the rest into one batched solve.
    """

    @staticmethod
    def _pile_up(engine, gate, blocker, submit):
        """Pin the single worker, queue followers, release, collect."""
        stall = engine.submit(
            "static", _BlockingInstance(blocker, gate), seed=1
        )
        for _ in range(200):  # wait for the worker to pick the stall up
            if engine._queue.qsize() == 0:
                break
            threading.Event().wait(0.01)
        futs = submit()
        gate.set()
        return stall, [f.result(timeout=60) for f in futs]

    def test_coalesced_bit_identical_to_direct_solve(self):
        instances = [Instance.sample(QUICK, 900 + j) for j in range(4)]
        direct = [
            solve_instance("greedy-utility", inst, seed=5).content_hash()
            for inst in instances
        ]
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        try:
            stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 890),
                lambda: [
                    engine.submit("greedy-utility", inst, seed=5)
                    for inst in instances
                ],
            )
            assert stall.result(timeout=60).artifact is not None
        finally:
            gate.set()
            engine.close()
        assert [r.artifact.content_hash() for r in results] == direct
        assert sum(r.coalesced for r in results) >= 2
        assert all(not r.cached and not r.degraded for r in results)
        stats = engine.stats()
        assert stats["coalesced_batches"] >= 1
        assert stats["coalesced_requests"] >= 2
        assert stats["errors"] == 0

    def test_coalesce_max_zero_disables(self):
        instances = [Instance.sample(QUICK, 910 + j) for j in range(3)]
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=0)
        try:
            _stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 891),
                lambda: [
                    engine.submit("greedy-utility", inst, seed=5)
                    for inst in instances
                ],
            )
        finally:
            gate.set()
            engine.close()
        assert all(not r.coalesced for r in results)
        assert engine.stats()["coalesced_batches"] == 0

    def test_single_flight_dedup_preserved_in_batch(self):
        inst = Instance.sample(QUICK, 920)
        other = Instance.sample(QUICK, 921)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        try:
            _stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 892),
                lambda: [
                    engine.submit("greedy-utility", inst, seed=7),
                    engine.submit("greedy-utility", inst, seed=7),
                    engine.submit("greedy-utility", other, seed=7),
                ],
            )
        finally:
            gate.set()
            engine.close()
        first, dup, distinct = results
        assert dup.deduped and dup.artifact.content_hash() == \
            first.artifact.content_hash()
        assert not first.deduped and not distinct.deduped
        stats = engine.stats()
        assert stats["inflight_dedup"] == 1
        # The duplicate never solved: one batch covered the two keys.
        assert stats["coalesced_requests"] == 2

    def test_degraded_resubmission_never_coalesces(self):
        instances = [Instance.sample(QUICK, 930 + j) for j in range(2)]
        resub = Instance.sample(QUICK, 935)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        try:
            _stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 893),
                lambda: [
                    engine.submit("greedy-utility", instances[0], seed=3),
                    engine.submit(
                        "haste-offline", resub, seed=3, skip_primary=True,
                        degrade_reason="watchdog",
                    ),
                    engine.submit("greedy-utility", instances[1], seed=3),
                ],
            )
        finally:
            gate.set()
            engine.close()
        leader, resubbed, follower = results
        # The resubmission degraded on its own path, never batched…
        assert resubbed.degraded and not resubbed.coalesced
        assert resubbed.degrade_reason == "watchdog"
        assert resubbed.degraded_from == "haste-offline"
        assert resubbed.spec == "greedy-utility"
        # …while the requests around it coalesced normally.
        assert leader.coalesced and follower.coalesced
        assert not leader.degraded and not follower.degraded

    def test_float32_results_never_answer_float64_requests(self):
        import numpy as np

        inst = Instance.sample(QUICK, 940)
        with ScheduleEngine(workers=1) as engine:
            f32 = engine.solve(
                "greedy-utility", inst, seed=1, dtype=np.float32
            )
            f64 = engine.solve("greedy-utility", inst, seed=1)
            assert not f32.cached and not f64.cached  # no cross-dtype hit
            f64_again = engine.solve("greedy-utility", inst, seed=1)
            f32_again = engine.solve(
                "greedy-utility", inst, seed=1, dtype="float32"
            )
            assert f64_again.cached and f32_again.cached
            assert f32.artifact.meta.get("dtype") == "float32"
            assert f64.artifact.meta.get("dtype") is None
            assert f64.artifact.total_utility == pytest.approx(
                f32.artifact.total_utility, rel=1e-6
            )

    def test_float32_rejected_on_unbatched_solver(self):
        import numpy as np

        inst = Instance.sample(QUICK, 941)
        with ScheduleEngine(workers=1, degradation=False) as engine:
            with pytest.raises(Exception, match="float32"):
                engine.solve("static", inst, seed=1, dtype=np.float32)

    def test_solo_batchable_request_runs_the_batch_kernel(self):
        inst = Instance.sample(QUICK, 950)
        with ScheduleEngine(workers=1, coalesce_max=0) as engine:
            for spec in ("greedy-utility", "greedy-cover"):
                served = engine.solve(spec, inst, seed=4)
                direct = solve_instance(spec, inst, seed=4)
                assert served.artifact.meta.get("batched") is True
                assert not served.coalesced
                assert served.artifact.content_hash() == direct.content_hash()
            static = engine.solve("static", inst, seed=4)
            assert "batched" not in static.artifact.meta

    def test_batch_failure_falls_back_to_solo_solves(self):
        from repro.solvers import builtin
        from repro.solvers.registry import REGISTRY, register

        name = "test-batch-fails-above-one"
        sizes = []

        def batch_fn(prepareds, rngs, configs, params, dtype):
            sizes.append(len(prepareds))
            if len(prepareds) > 1:
                raise RuntimeError("batched kernel refuses B > 1")
            return builtin._batch_greedy_utility(
                prepareds, rngs, configs, params, dtype
            )

        entry = REGISTRY.entry("greedy-utility")
        register(name, entry.fn, entry.capabilities, entry.defaults, batch_fn)
        try:
            instances = [Instance.sample(QUICK, 960 + j) for j in range(3)]
            direct = [
                solve_instance(name, inst, seed=2).content_hash()
                for inst in instances
            ]
            gate = threading.Event()
            engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
            try:
                _stall, results = self._pile_up(
                    engine, gate, Instance.sample(QUICK, 894),
                    lambda: [
                        engine.submit(name, inst, seed=2) for inst in instances
                    ],
                )
            finally:
                gate.set()
                engine.close()
        finally:
            REGISTRY._entries.pop(name, None)
        assert name not in solver_names()
        assert sizes == [3, 1, 1, 1]  # one failed batch, then each alone
        assert [r.artifact.content_hash() for r in results] == direct
        assert all(not r.coalesced and not r.degraded for r in results)
        stats = engine.stats()
        assert stats["errors"] == 0
        assert stats["coalesced_batches"] == 0

    def test_duplicate_of_a_failed_member_gets_its_own_attempt(self):
        """An in-group duplicate never inherits its member's error: the
        member's config breaks its solve, the duplicate's does not."""
        inst = Instance.sample(QUICK, 975)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        try:
            stall = engine.submit(
                "static", _BlockingInstance(Instance.sample(QUICK, 896), gate),
                seed=1,
            )
            for _ in range(200):  # wait for the worker to pick the stall up
                if engine._queue.qsize() == 0:
                    break
                threading.Event().wait(0.01)
            broken = engine.submit(
                "greedy-cover", inst, seed=3, config=object()
            )
            dup = engine.submit("greedy-cover", inst, seed=3)
            gate.set()
            stall.result(timeout=60)
            with pytest.raises(AttributeError):
                broken.result(timeout=60)
            res = dup.result(timeout=60)
        finally:
            gate.set()
            engine.close()
        assert not res.deduped and not res.degraded
        assert res.artifact.content_hash() == solve_instance(
            "greedy-cover", inst, seed=3
        ).content_hash()
        stats = engine.stats()
        assert stats["inflight_dedup"] == 1  # it did attach to the member
        assert stats["errors"] == 1  # the broken member only

    def test_duplicate_of_a_deadline_degraded_member_solves_primary(self):
        """A member that degrades on its own deadline does not hand its
        degraded answer to a duplicate whose budget is fine."""
        inst = Instance.sample(QUICK, 976)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)

        def submit():
            futs = [
                # a solvable opener, so the worker drains the other two
                engine.submit("greedy-cover", Instance.sample(QUICK, 977), seed=3),
                engine.submit("greedy-cover", inst, seed=3, deadline_s=0.05),
                engine.submit("greedy-cover", inst, seed=3),
            ]
            threading.Event().wait(0.2)  # the second deadline runs out queued
            return futs

        try:
            _stall, (_opener, expired, dup) = self._pile_up(
                engine, gate, Instance.sample(QUICK, 897), submit
            )
        finally:
            gate.set()
            engine.close()
        assert expired.degraded and expired.degrade_reason == "deadline"
        assert not dup.degraded and not dup.deduped
        assert dup.spec == expired.degraded_from
        assert dup.artifact.content_hash() == solve_instance(
            "greedy-cover", inst, seed=3
        ).content_hash()
        stats = engine.stats()
        assert stats["inflight_dedup"] == 1 and stats["errors"] == 0

    def test_error_counters_match_obs_for_coalesced_refusals(self):
        from repro import obs

        leader_inst = Instance.sample(QUICK, 970)
        expiring = [Instance.sample(QUICK, 971 + j) for j in range(2)]
        owns = not obs.enabled()
        if owns:
            obs.configure()
        try:
            before = obs.get_registry().snapshot()["counters"].get(
                "serve.errors", 0
            )
            gate = threading.Event()
            engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
            try:

                def submit():
                    futs = [engine.submit("greedy-utility", leader_inst, seed=1)]
                    futs += [
                        engine.submit(
                            "greedy-utility", inst, seed=1, deadline_s=0.05,
                            degrade=False,
                        )
                        for inst in expiring
                    ]
                    threading.Event().wait(0.2)  # the deadlines run out queued
                    return futs

                stall = engine.submit(
                    "static", _BlockingInstance(Instance.sample(QUICK, 895), gate),
                    seed=1,
                )
                for _ in range(200):
                    if engine._queue.qsize() == 0:
                        break
                    threading.Event().wait(0.01)
                leader, *refused = submit()
                gate.set()
                stall.result(timeout=60)
                assert not leader.result(timeout=60).degraded
                for fut in refused:
                    with pytest.raises(Exception, match="deadline"):
                        fut.result(timeout=60)
            finally:
                gate.set()
                engine.close()
            after = obs.get_registry().snapshot()["counters"].get(
                "serve.errors", 0
            )
        finally:
            if owns:
                obs.shutdown()
        assert engine.stats()["errors"] == len(expiring)
        assert after - before == engine.stats()["errors"]
