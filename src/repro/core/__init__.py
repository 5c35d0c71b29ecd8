"""The paper's contribution: the two-stage IUAD pipeline + incremental mode."""

from .balance import SplitResult, split_prolific_vertices
from .candidates import (
    candidate_pairs_of_name,
    iter_candidate_pairs,
    sample_training_pairs,
)
from .config import IUADConfig
from .incremental import IncrementalDisambiguator
from .iuad import (
    IUAD,
    FitReport,
    MergeRoundsOutcome,
    disambiguate,
    run_merge_rounds,
)
from .sharding import (
    Shard,
    ShardIndex,
    ShardPlan,
    ShardStats,
    ShardedIUAD,
    plan_shards,
)
from .streaming import (
    Assignment,
    BatchStats,
    IncrementalReport,
    StreamingIngestor,
)

__all__ = [
    "Assignment",
    "BatchStats",
    "FitReport",
    "IUAD",
    "IUADConfig",
    "IncrementalDisambiguator",
    "IncrementalReport",
    "MergeRoundsOutcome",
    "Shard",
    "ShardIndex",
    "ShardPlan",
    "ShardStats",
    "ShardedIUAD",
    "SplitResult",
    "StreamingIngestor",
    "candidate_pairs_of_name",
    "disambiguate",
    "iter_candidate_pairs",
    "plan_shards",
    "run_merge_rounds",
    "sample_training_pairs",
    "split_prolific_vertices",
]
