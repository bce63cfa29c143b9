"""S5 — Community detection over the term-similarity graph (§4.2).

Implements the paper's modularity arithmetic (Eq. 1–9), its parallel
SQL-expressible merge algorithm (Figures 3–4), the classic sequential
baselines (Newman's greedy CNM), and the "other paradigms" that §8 names
as future work (Louvain, label propagation) for the ablation bench.

Two implementations of the paper's algorithm exist and are cross-checked
in tests: a pure-Python fast path (:mod:`repro.community.parallel`) and a
literal SQL run of Figure 4 on the relational engine
(:mod:`repro.community.sql_runner` — import it by that path; it is not
re-exported here so the serving import path never loads the SQL engine).
"""

from repro.community.partition import Partition, singleton_partition
from repro.community.modularity import (
    CommunityStats,
    community_modularity,
    delta_modularity,
    delta_modularity_direct,
    total_modularity,
)
from repro.community.parallel import (
    IterationTrace,
    ParallelCommunityDetector,
    ParallelConfig,
)
from repro.community.incremental import (
    IncrementalClusterer,
    IncrementalClusteringConfig,
    IncrementalOutcome,
)
from repro.community.newman import NewmanGreedyDetector
from repro.community.louvain import LouvainDetector
from repro.community.labelprop import LabelPropagationDetector
from repro.community.sizes import SizeBucket, size_distribution
from repro.community.neighbours import closest_communities
from repro.community.quality import normalized_mutual_information, purity

__all__ = [
    "CommunityStats",
    "IncrementalClusterer",
    "IncrementalClusteringConfig",
    "IncrementalOutcome",
    "IterationTrace",
    "LabelPropagationDetector",
    "LouvainDetector",
    "NewmanGreedyDetector",
    "ParallelCommunityDetector",
    "ParallelConfig",
    "Partition",
    "SizeBucket",
    "closest_communities",
    "community_modularity",
    "delta_modularity",
    "delta_modularity_direct",
    "normalized_mutual_information",
    "purity",
    "singleton_partition",
    "size_distribution",
    "total_modularity",
]
