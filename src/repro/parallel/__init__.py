"""Deterministic parallel execution: the eval walker, data-parallel training.

The package-wide contract (see :mod:`repro.parallel.plan`): the math is
defined by the shard plan, never by the execution — worker counts
change wall-clock time, not one bit of any metric, loss, optimizer
moment or model fingerprint.
"""

from repro.parallel.eval import (
    DEFAULT_SHARD_TIMEOUT,
    ShardedEvalError,
    evaluate_extrapolation_sharded,
)
from repro.parallel.plan import (
    derive_rng_states,
    reseed_generators,
    shard_bounds,
    shard_sequence,
    tree_reduce,
    tree_reduce_arrays,
)
from repro.parallel.train import GradShardExecutor, ShardedLoss

__all__ = [
    "DEFAULT_SHARD_TIMEOUT",
    "GradShardExecutor",
    "ShardedEvalError",
    "ShardedLoss",
    "derive_rng_states",
    "evaluate_extrapolation_sharded",
    "reseed_generators",
    "shard_bounds",
    "shard_sequence",
    "tree_reduce",
    "tree_reduce_arrays",
]
