"""Neural machine unranking: remove queries or documents from a trained ranker.

The package covers the full desk-scale workflow: deterministic corpus
generation or ingestion, forget/entangled/disjoint partitioning of the
training samples under a removal request, pairwise training of a small
dual-embedding scorer, six unlearning strategies with a shared
rank-targeted stopping rule, and ranking metrics with reports.
"""

from .corpus import (CorpusSplit, Dataset, StatsRecord, SyntheticConfig, dataset_stats,
                     generate_synthetic, load_dataset, save_dataset)
from .errors import ConfigError, DataError, DivergedError, NumurError
from .evaluation import (MrrResult, ScoreDistribution, mrr_forget, mrr_set,
                         normalized_forget_score, score_distribution, timing_metrics)
from .partition import (ForgetSpec, Partition, RemovalKind, entangled_partners,
                        load_forget_spec, partition, save_forget_spec)
from .ranker import (Pooled, ScoreModel, Sgd, TrainConfig, TrainResult, clone_model,
                     init_model, load_model, pool, pool_split, retrain, save_model, train)
from .unlearn_engine import (Destinations, EpochRecord, Method, UnlearnConfig, UnlearnRun,
                             compute_destinations, unlearn)
from .unlearn_losses import build_min_cache, consistent_loss, contrastive_loss, delta_min

__version__ = "0.1.0"
