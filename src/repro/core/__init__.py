"""GPApriori: the paper's primary contribution.

* :mod:`~repro.core.itemset` — result value types shared by every miner.
* :mod:`~repro.core.config` — kernel/algorithm tuning knobs (block size,
  candidate preloading, loop unrolling — the paper's Section IV.3
  optimizations — plus the intersection plan and execution engine).
* :mod:`~repro.core.plans` — complete-intersection versus
  equivalence-class support-counting plans (Section IV.2 trade-off).
* :mod:`~repro.core.kernels` — the CUDA-style support-counting kernel
  executed by the :mod:`repro.gpusim` simulator.
* :mod:`~repro.core.support` — the interchangeable counting engines:
  ``vectorized`` (NumPy, fast), ``parallel`` (the vectorized engine
  with its tiles counted on threads over the shared bitset table) and
  ``simulated`` (kernel-faithful, for validation).
* :mod:`~repro.core.sharding` — out-of-core tid-range sharding: a
  :class:`~repro.core.sharding.ShardPlan` sized from a device-memory
  budget and the :class:`~repro.core.sharding.ShardedEngine` that
  streams shards through any of the three engines.
* :mod:`~repro.core.gpapriori` — the host-side mining driver.
* :mod:`~repro.core.api` — the ``mine()`` facade and algorithm registry.
"""

from .itemset import Itemset, MiningResult, RunMetrics
from .config import GPAprioriConfig
from .plans import CompleteIntersectionPlan, EquivalenceClassPlan, make_plan
from .support import SimulatedEngine, VectorizedEngine, make_engine
from .sharding import Shard, ShardPlan, ShardedEngine, slice_matrix
from .fleet import FleetEngine, FleetPlan
from .gpapriori import gpapriori_mine
from .hybrid import ModelBalancer, StaticBalancer, hybrid_mine
from .multigpu import MultiGpuResult, multigpu_mine, scaling_efficiency
from .gpu_eclat import gpu_eclat_mine
from .api import ALGORITHMS, mine

__all__ = [
    "Itemset",
    "MiningResult",
    "RunMetrics",
    "GPAprioriConfig",
    "CompleteIntersectionPlan",
    "EquivalenceClassPlan",
    "make_plan",
    "VectorizedEngine",
    "SimulatedEngine",
    "Shard",
    "ShardPlan",
    "ShardedEngine",
    "slice_matrix",
    "FleetEngine",
    "FleetPlan",
    "make_engine",
    "gpapriori_mine",
    "StaticBalancer",
    "ModelBalancer",
    "hybrid_mine",
    "MultiGpuResult",
    "multigpu_mine",
    "scaling_efficiency",
    "gpu_eclat_mine",
    "ALGORITHMS",
    "mine",
]
