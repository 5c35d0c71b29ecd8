"""The six similarity functions of Stage 2, their scalar test oracle, and
the batched engine that evaluates all of them over whole pair lists."""

from .batch import BatchSimilarityEngine, FeatureInterner, VertexArrays
from .community import (
    representative_community_similarity,
    research_community_similarity,
)
from .interests import interest_cosine, min_year_difference, time_consistency
from .profile import (
    N_SIMILARITIES,
    SIMILARITY_NAMES,
    SimilarityComputer,
    VertexProfile,
)
from .structural import clique_coincidence

__all__ = [
    "BatchSimilarityEngine",
    "FeatureInterner",
    "N_SIMILARITIES",
    "SIMILARITY_NAMES",
    "SimilarityComputer",
    "VertexArrays",
    "VertexProfile",
    "clique_coincidence",
    "interest_cosine",
    "min_year_difference",
    "representative_community_similarity",
    "research_community_similarity",
    "time_consistency",
]
