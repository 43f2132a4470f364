"""Sharded multi-process execution with halo exchange and temporal
blocking.

The grid is partitioned into contiguous slabs along the outermost axis
(one per shard); each shard sweeps its slab privately — on the reference
tap order or the compiled codegen/interp pipeline — and ghost rows
are exchanged at every synchronization point.  Temporal blocking widens
the exchanged halo to ``radius * s`` so ``s`` sweeps run per exchange,
amortizing synchronization the way the temporal-vectorization literature
amortizes data movement, at the cost of redundant ghost-row
recomputation the runner meters.

Entry points: ``run_parallel(..., shards=N, temporal_block=s)``,
:meth:`repro.core.kernel.CompiledKernel.run_sharded`,
``repro run --shards N --temporal-block s``, and the
:class:`ShardRunner` class for repeated runs over a warm pool.
"""

from .plan import ShardPlan, make_shard_plan
from .runner import ShardRunner, run_sharded
from .worker import KernelRecipe, ShardJob

__all__ = [
    "KernelRecipe",
    "ShardJob",
    "ShardPlan",
    "ShardRunner",
    "make_shard_plan",
    "run_sharded",
]
