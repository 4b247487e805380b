"""Solver registry, serializable instances, and structured run artifacts.

The uniform algorithm layer (see DESIGN.md §"Solver registry & artifact
pipeline"): every scheduler in the repo is addressable by a spec string —

>>> from repro.solvers import get_solver
>>> solver = get_solver("haste-offline:c=4,smooth=0")
>>> artifact = solver.solve(network, rng, config)   # -> RunArtifact

Problem instances (:class:`Instance`) and results (:class:`RunArtifact`)
serialize to JSON/NPZ and round-trip exactly, so scenarios can be saved,
hashed, shipped to worker processes, and replayed:

>>> from repro.solvers import Instance, solve_instance
>>> inst = Instance.sample(SimulationConfig.quick(), seed=7)
>>> inst.save("scenario.npz")
>>> solve_instance("greedy-utility", Instance.load("scenario.npz"))

Importing this package registers the built-in solvers
(:mod:`repro.solvers.builtin`).
"""

from . import builtin as _builtin  # noqa: F401  (registers the built-in solvers)
from .artifact import (
    RunArtifact,
    artifact_from_execution,
    artifact_from_online_run,
)
from .instance import Instance, clear_network_cache, network_cache_info
from .prepared import (
    PREPARED_CACHE,
    PreparedCache,
    PreparedNetwork,
    clear_prepared_cache,
    prepare,
    prepare_network,
    prepared_cache_info,
)
from .batch import InstanceBatch, pack_padded, pad_mask, unpack_padded
from .registry import (
    REGISTRY,
    BoundSolver,
    SolverCapabilities,
    SolverEntry,
    SolverError,
    SolverLookupError,
    SolverRegistry,
    get_solver,
    register,
    solve_batch,
    solve_instance,
    solver_names,
)
from .spec import SolverSpec, SpecError, parse_spec

__all__ = [
    "RunArtifact",
    "artifact_from_execution",
    "artifact_from_online_run",
    "Instance",
    "clear_network_cache",
    "network_cache_info",
    "PREPARED_CACHE",
    "PreparedCache",
    "PreparedNetwork",
    "clear_prepared_cache",
    "prepare",
    "prepare_network",
    "prepared_cache_info",
    "REGISTRY",
    "BoundSolver",
    "SolverCapabilities",
    "SolverEntry",
    "SolverError",
    "SolverLookupError",
    "SolverRegistry",
    "get_solver",
    "register",
    "solve_batch",
    "solve_instance",
    "solver_names",
    "InstanceBatch",
    "pack_padded",
    "unpack_padded",
    "pad_mask",
    "SolverSpec",
    "SpecError",
    "parse_spec",
]
