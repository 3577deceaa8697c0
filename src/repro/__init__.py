"""repro — reproduction of "Incentivizing the Workers for Truth
Discovery in Crowdsourcing with Copiers" (Jiang et al., ICDCS 2019).

The package implements the paper's two-stage IMC2 mechanism end to end:

- **DATE** truth discovery with Bayesian copier detection
  (:mod:`repro.core`);
- the **SOAC** reverse auction with critical-value payments
  (:mod:`repro.auction`);
- the five evaluation baselines MV / NC / ED / GA / GB
  (:mod:`repro.baselines`);
- seeded synthetic datasets standing in for the paper's external data
  (:mod:`repro.datasets`);
- a simulation + reporting harness and one runner per paper
  table/figure (:mod:`repro.simulation`, :mod:`repro.experiments`);
- a streaming ingestion + online truth-discovery service — claim
  batches, incremental re-estimation, multi-campaign store, HTTP API
  (:mod:`repro.streaming`, ``repro serve``);
- an adversarial scenario lab — composable worker-strategy transforms
  (chain copiers, collusion rings, sybils, spammers, bid shading) with
  ground-truth labels, a declarative scenario registry, and a seeded
  parallel runner (:mod:`repro.scenarios`, ``repro scenario run``).

Quickstart::

    from repro import DATE, IMC2, generate_qatar_living_like

    dataset = generate_qatar_living_like(seed=7)
    result = DATE().run(dataset)
    print("precision:", result.precision())

    outcome = IMC2().run(dataset)
    print("winners:", len(outcome.winners))
"""

from .auction import (
    AuctionOutcome,
    ReverseAuction,
    SOACInstance,
    solve_optimal,
)
from .baselines import (
    EnumerateDependence,
    GreedyAccuracy,
    GreedyBid,
    MajorityVote,
    NoCopier,
)
from .core import (
    DATE,
    DateConfig,
    DatasetIndex,
    EmpiricalFalseValues,
    TruthDiscoveryResult,
    UniformFalseValues,
    ZipfFalseValues,
    discover_truth,
)
from .datasets import (
    PalmM515LikeSampler,
    WorldConfig,
    generate_qatar_living_like,
    generate_world,
    inject_copiers,
    load_dataset,
    save_dataset,
)
from .errors import (
    ConfigurationError,
    ConvergenceWarning,
    DataFormatError,
    InfeasibleCoverageError,
    MetricMismatchError,
    ReproError,
)
from .mechanism import IMC2, IMC2Outcome
from .simulation import ExperimentConfig, ExperimentResult
from .streaming import (
    CampaignStore,
    ClaimBatch,
    OnlineDATE,
    OnlineUpdate,
    replay_batches,
)
from .types import Bid, Dataset, Task, WorkerProfile

__version__ = "1.0.0"

__all__ = [
    "AuctionOutcome",
    "Bid",
    "CampaignStore",
    "ClaimBatch",
    "ConfigurationError",
    "ConvergenceWarning",
    "DATE",
    "DataFormatError",
    "Dataset",
    "DatasetIndex",
    "DateConfig",
    "EmpiricalFalseValues",
    "EnumerateDependence",
    "ExperimentConfig",
    "ExperimentResult",
    "GreedyAccuracy",
    "GreedyBid",
    "IMC2",
    "IMC2Outcome",
    "InfeasibleCoverageError",
    "MajorityVote",
    "MetricMismatchError",
    "NoCopier",
    "OnlineDATE",
    "OnlineUpdate",
    "PalmM515LikeSampler",
    "ReproError",
    "ReverseAuction",
    "SOACInstance",
    "Task",
    "TruthDiscoveryResult",
    "UniformFalseValues",
    "WorkerProfile",
    "WorldConfig",
    "ZipfFalseValues",
    "discover_truth",
    "generate_qatar_living_like",
    "generate_world",
    "inject_copiers",
    "load_dataset",
    "replay_batches",
    "save_dataset",
    "solve_optimal",
    "__version__",
]
