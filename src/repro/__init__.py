"""repro — full reproduction of CLAPF (Collaborative List-and-Pairwise
Filtering from Implicit Feedback, Yu et al., TKDE 2020 / ICDE 2023).

Quickstart
----------
>>> from repro import make_profile_dataset, train_test_split, clapf_map, evaluate_model
>>> dataset = make_profile_dataset("ML100K", seed=0)
>>> split = train_test_split(dataset, seed=0)
>>> model = clapf_map(tradeoff=0.4, seed=0).fit(split.train)
>>> result = evaluate_model(model, split, ks=(5,))
>>> 0.0 <= result["ndcg@5"] <= 1.0
True

Subpackages
-----------
``repro.core``
    CLAPF-MAP / CLAPF-MRR, the smoothed MAP/MRR math, CLAPF-NDCG.
``repro.models``
    Baselines: PopRank, RandomWalk, WMF, BPR, MPR, CLiMF.
``repro.neural``
    Autograd substrate and the NeuMF / NeuPR / DeepICF baselines.
``repro.sampling``
    Uniform, DNS, AoBPR and the paper's DSS samplers.
``repro.data``
    Interaction matrices, splits, loaders, synthetic dataset profiles.
``repro.metrics``
    Top-k and rank-biased metrics plus the full-ranking evaluator.
``repro.experiments``
    Harness regenerating every table and figure of the paper.
``repro.serving``
    Deadline-bounded fallback-cascade serving with hot reload.
``repro.edge``
    The asyncio HTTP front end (versioned v1 JSON API) and the
    Zipf/burst load generator.
"""

from repro.core import CLAPF, CLAPFNDCG, clapf_map, clapf_mrr, clapf_plus_map, clapf_plus_mrr
from repro.data import (
    DatasetSplit,
    ImplicitDataset,
    InteractionMatrix,
    generate_synthetic,
    make_profile_dataset,
    repeated_splits,
    train_test_split,
)
from repro.metrics import EvaluationResult, Evaluator, evaluate_model
from repro.models import BPR, GBPR, MPR, WMF, CLiMF, ItemKNN, PopRank, RandomWalk
from repro.neural import GMF, DeepICF, MLPRec, NeuMF, NeuPR
from repro.sampling import (
    AdaptiveOversampler,
    AlphaBetaSampler,
    DoubleSampler,
    DynamicNegativeSampler,
    UniformSampler,
    make_sampler,
    sampler_names,
)
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    ServedResponse,
)

__version__ = "1.0.0"

__all__ = [
    "CLAPF",
    "CLAPFNDCG",
    "clapf_map",
    "clapf_mrr",
    "clapf_plus_map",
    "clapf_plus_mrr",
    "DatasetSplit",
    "ImplicitDataset",
    "InteractionMatrix",
    "generate_synthetic",
    "make_profile_dataset",
    "repeated_splits",
    "train_test_split",
    "EvaluationResult",
    "Evaluator",
    "evaluate_model",
    "BPR",
    "GBPR",
    "MPR",
    "WMF",
    "CLiMF",
    "ItemKNN",
    "PopRank",
    "RandomWalk",
    "DeepICF",
    "GMF",
    "MLPRec",
    "NeuMF",
    "NeuPR",
    "AdaptiveOversampler",
    "AlphaBetaSampler",
    "DoubleSampler",
    "DynamicNegativeSampler",
    "UniformSampler",
    "make_sampler",
    "sampler_names",
    "RecommendationRequest",
    "RecommendationService",
    "ServedResponse",
    "__version__",
]
