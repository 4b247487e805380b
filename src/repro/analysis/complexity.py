"""Empirical complexity accounting for the schedulers.

Theorem 5.1 states the centralized algorithm costs ``O(C(nmK)²)``; rather
than fragile wall-clock fits, this module counts the algorithm's
*deterministic work units*:

* **partition scans** — the number of greedy argmax sweeps (exactly
  ``C · (#partitions with a match)``), each a vectorized ``(P_i × m × S)``
  numpy expression;
* **candidate evaluations** — scans weighted by the partition's policy
  count, the per-candidate bookkeeping inside a scan.

Counting instead of timing makes the scaling measurement exact and
CI-stable; the ``ablation-complexity`` experiment checks the measured
growth against the theory's predictions (scans linear in each of C, n, K;
candidates additionally growing with task density through |Γ|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.network import ChargerNetwork
from ..offline.centralized import CentralizedScheduler

__all__ = ["WorkCounts", "count_offline_work"]


@dataclass(frozen=True)
class WorkCounts:
    """Deterministic work accounting of one centralized run.

    ``scans`` counts partition visits with matching samples (the eager
    algorithm's work unit, what Thm 5.1 bounds).
    """

    partitions: int
    scans: int
    candidates: int
    colors: int

    @property
    def scans_per_color(self) -> float:
        return self.scans / max(self.colors, 1)


def count_offline_work(
    network: ChargerNetwork,
    num_colors: int,
    *,
    num_samples: int = 8,
    seed: int = 0,
) -> WorkCounts:
    """Run Algorithm 2 and report its work counts.

    ``candidates`` weights each scanned partition by its policy count
    (idle excluded) — the arithmetic footprint of the argmax sweep.
    """
    scheduler = CentralizedScheduler(network)
    result = scheduler.run(
        num_colors, num_samples=num_samples, rng=np.random.default_rng(seed)
    )
    policy_counts = {
        (i, k): network.policy_count(i) - 1 for (i, k) in scheduler.partitions
    }
    # The scheduler reports scans (partition sweeps that had matching
    # samples).  Candidates: every scan touches all of its partition's
    # non-idle policies; approximate the per-scan partition mix by the
    # average policy count (exact for C=1 where every partition scans once
    # per color).
    avg_policies = (
        float(np.mean(list(policy_counts.values()))) if policy_counts else 0.0
    )
    return WorkCounts(
        partitions=result.partitions,
        scans=result.candidate_scans,
        candidates=int(round(result.candidate_scans * avg_policies)),
        colors=num_colors,
    )
