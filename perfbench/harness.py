"""Measurement plumbing shared by every perfbench workload.

Nothing here imports ``repro``: the workloads do, after ``run.py`` has put
the checkout's ``src/`` on ``sys.path`` and started the set-up clock.

Host speed on small shared machines drifts by tens of percent within
seconds.  Every run therefore takes a few short calibration samples between
ops (never during one) and scales each op's time by ``CAL_REF_S`` over the
mean of the sample medians just before and just after it: times are
reported in seconds of a host on which the calibration kernel takes
``CAL_REF_S``.  The kernel uses no ``repro`` code, so a change to the
program cannot move it.  The raw times are printed beside the scaled ones
in the report.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time

import numpy as np

#: Calibration kernel time on the reference host (seconds).  Only scales the
#: reported numbers; changing it would break comparison with older results.
CAL_REF_S = 0.003

CAL_PASSES = 22

#: Preallocated buffers: the kernel allocates nothing, so it measures the
#: CPU and caches rather than the state of the memory allocator.
_CAL_A = np.linspace(0.0, 1.0, 1 << 16)
_CAL_B = np.empty_like(_CAL_A)


def calibration_sample() -> float:
    """Seconds taken by one fixed in-place NumPy kernel on 512 KiB (~3 ms)."""
    start = time.perf_counter()
    b = _CAL_B
    np.copyto(b, _CAL_A)
    for _ in range(CAL_PASSES):
        np.multiply(b, b, out=b)
        b += 1.0
        np.sqrt(b, out=b)
        b -= 0.5
    if not np.isfinite(b[0]):  # keep the result live
        raise RuntimeError("calibration kernel misbehaved")
    return time.perf_counter() - start


class Calibrator:
    """Collects calibration samples; ``scale`` turns raw seconds into
    reference-host seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, k: int = 1) -> float:
        """Take ``k`` samples; returns their median."""
        taken = [calibration_sample() for _ in range(k)]
        self.samples += taken
        return statistics.median(taken)

    @property
    def scale(self) -> float:
        if not self.samples:
            self.sample(5)
        return CAL_REF_S / statistics.median(self.samples)


def local_scale(before: float, after: float) -> float:
    """Reference-host factor for an op bracketed by two calibration medians."""
    return 2.0 * CAL_REF_S / (before + after)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of this process, or of ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(hashes) -> str:
    """sha256 over op content hashes, in op order."""
    h = hashlib.sha256()
    for item in hashes:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()


def check_artifact(artifact, *, n: int, m: int, horizon: int, weight_sum: float,
                   policy_counts=None) -> list[str]:
    """Invariants every op's output must meet; returns the violations.

    Utility is finite and within ``[0, Σw]``; the selection matrix holds
    exactly one policy per charger per slot (an ``(n, K)`` integer matrix
    of valid policy indices); energies are finite and non-negative.
    """
    errors = []
    u = float(artifact.total_utility)
    if not math.isfinite(u) or u < -1e-12 or u > weight_sum * (1 + 1e-9) + 1e-12:
        errors.append(f"utility {u!r} outside [0, {weight_sum!r}]")
    sel = np.asarray(artifact.schedule_sel)
    if sel.shape != (n, horizon):
        errors.append(f"selection shape {sel.shape} != ({n}, {horizon})")
    elif sel.size:
        if not np.issubdtype(sel.dtype, np.integer):
            errors.append(f"selection dtype {sel.dtype} is not integral")
        elif sel.min() < 0:
            errors.append("selection holds a negative policy index")
        elif policy_counts is not None:
            limit = np.asarray(policy_counts).reshape(n, 1)
            if np.any(sel >= limit):
                errors.append("selection holds a policy a charger does not have")
    energies = np.asarray(artifact.energies)
    if energies.shape != (m,) or not np.all(np.isfinite(energies)) or (
        energies.size and energies.min() < 0
    ):
        errors.append("energies are not a finite non-negative (m,) vector")
    return errors


def blas_threads() -> str:
    """The BLAS thread count NumPy will use, as far as it can be told."""
    try:
        from threadpoolctl import threadpool_info

        counts = [str(p["num_threads"]) for p in threadpool_info()
                  if p.get("user_api") == "blas"]
        if counts:
            return ",".join(counts)
    except Exception:  # threadpoolctl is optional; fall back to the env
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    return f"default (up to {os.cpu_count()})"


def run_stamp(seed: int, kernel_mode: str) -> dict:
    """Host and build facts every result carries."""
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_mode": kernel_mode,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "seed": seed,
        "cal_ref_s": CAL_REF_S,
    }


class Summary:
    """What one measurement pass produced (end-to-end view)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # raw seconds per op
        self.scaled: list[float] = []     # the same, reference-host seconds
        self.timed_s = 0.0                # raw timed wall seconds
        self.scaled_timed_s = 0.0
        self.units = 0                    # throughput units (instances/ops)
        self.arrivals = 0
        self.utilities: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_cycle: list[str] = []
        self.cycles = 0
        self.counts: dict[str, int] = {}  # per-op counters summed over ops

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def timed(self, raw: float, scale: float) -> None:
        """Add ``raw`` seconds of timed wall time at reference factor ``scale``."""
        self.timed_s += raw
        self.scaled_timed_s += raw * scale

    def op(self, raw: float, scale: float) -> None:
        """Record one completed op's latency."""
        self.latencies.append(raw)
        self.scaled.append(raw * scale)

    @property
    def digest(self) -> str:
        return digest(self.first_cycle)

    @property
    def scale(self) -> float:
        """The pass's mean reference-host factor."""
        return self.scaled_timed_s / self.timed_s if self.timed_s else 1.0

    def metrics(self) -> dict:
        """End-to-end figures, times in reference-host units."""
        lat = self.scaled
        return {
            "throughput_per_s": self.units / self.scaled_timed_s
            if self.scaled_timed_s > 0 else 0.0,
            "latency_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
            "arrival_ms": sum(lat) * 1e3 / self.arrivals if self.arrivals else 0.0,
            "utility_mean": statistics.fmean(self.utilities)
            if self.utilities else 0.0,
        }

    def extras(self) -> dict:
        """Report-only figures: p90 where the sample allows it, raw times."""
        lat = self.latencies
        out = {
            "ops": len(lat),
            "cycles": self.cycles,
            "failed_share": self.failed / self.attempted if self.attempted else 0.0,
            "raw_latency_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
            "raw_throughput_per_s": self.units / self.timed_s if self.timed_s else 0.0,
            "cal_scale": self.scale,
        }
        if len(lat) >= 100:
            out["latency_p90_ms"] = quantile(self.scaled, 0.9) * 1e3
        return out

