"""Run scenarios: seeded instances, detection scoring, parallel fan-out.

:func:`run_scenario` materializes every instance of a
:class:`~repro.scenarios.registry.Scenario`, runs DATE (plus the MV
baseline, plus the auction when the scenario asks for it), and scores
the result against the strategy stack's ground-truth adversary labels.
The per-instance work function is a module-level function of
``(scenario, k)`` — picklable by construction — so ``parallel=N``
distributes instances over the shared spawn pool
(:mod:`repro.simulation.executor`) with results bit-identical to the
serial path: every instance derives its seeds from the scenario alone,
never from scheduling.

:func:`sweep_scenario` turns a scenario family into a plot-ready
:class:`~repro.simulation.sweep.ExperimentResult` by evolving the base
scenario along an x-grid.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

from ..artifacts import RunKey, RunLedger
from ..baselines import MajorityVote
from ..core.date import TruthDiscoveryResult
from ..core.indexing import DatasetIndex
from ..discovery import make_discoverer
from ..mechanism.imc2 import IMC2
from ..simulation.metrics import precision
from ..simulation.runner import InstanceTable, run_instances
from ..simulation.stats import SummaryStats
from ..simulation.sweep import ExperimentResult, sweep_series
from .registry import Scenario
from .strategies import ScenarioWorld

__all__ = [
    "DetectionReport",
    "ScenarioRunResult",
    "detection_report",
    "run_scenario",
    "scenario_run_key",
    "sweep_scenario",
]


@dataclass(frozen=True)
class DetectionReport:
    """Set-level adversary detection quality against ground truth.

    A worker is *flagged* when it appears in at least one worker pair
    whose total dependence posterior reaches the threshold; the target
    set is every member of a planted copy structure — chain copiers
    *and their roots*, colluders, sybil clones *and their origins*
    (flagging a true (copier, source) pair necessarily flags both
    endpoints, so sources belong in the target set) — while spammers
    and bid shaders leave no copy signature and stay out of the
    denominator.  Empty sets follow the usual conventions: no flags ⇒
    precision 1, no targets ⇒ recall 1; for target-free scenarios the
    F1 therefore scores false-flagging (1 = correctly flagged nobody).
    """

    flagged: frozenset[str]
    targets: frozenset[str]

    @property
    def true_positives(self) -> int:
        return len(self.flagged & self.targets)

    @property
    def precision(self) -> float:
        return self.true_positives / len(self.flagged) if self.flagged else 1.0

    @property
    def recall(self) -> float:
        return self.true_positives / len(self.targets) if self.targets else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0


def detection_report(
    result: TruthDiscoveryResult, world: ScenarioWorld, threshold: float
) -> DetectionReport:
    """Score the dependence posteriors against the adversary labels."""
    flagged: set[str] = set()
    for (a, b), posterior in result.dependence.items():
        if posterior.p_dependent >= threshold:
            flagged.add(a)
            flagged.add(b)
    return DetectionReport(
        flagged=frozenset(flagged), targets=world.copy_adversary_ids
    )


def instance_metrics(scenario: Scenario, k: int) -> dict[str, float]:
    """All metrics of one scenario instance (module-level: picklable).

    Always reported: DATE and MV precision, detection
    precision/recall/F1 at the scenario threshold, and the adversary
    head-counts.  With ``scenario.auction`` enabled the IMC2 auction
    additionally runs once truthfully and then once per shader with
    *only that shader* deviating to its declared bid — the unilateral
    deviation that dominant-strategy truthfulness (Theorem 1) actually
    bounds (a joint all-shaders deviation could show spurious gains a
    DSIC mechanism never promises to prevent).  A genuine truthfulness
    violation would surface as ``shading_gain > 0`` (the best
    unilateral gain across shaders).
    """
    world = scenario.world_for(k)
    dataset = world.dataset
    index = DatasetIndex(dataset)
    discoverer = make_discoverer(scenario.algorithm, date_config=scenario.date)
    result = discoverer.run(dataset, index=index)
    mv = MajorityVote().run(dataset, index=index)
    report = detection_report(result, world, scenario.detection_threshold)
    metrics: dict[str, float] = {
        "date_precision": precision(result, dataset),
        "mv_precision": precision(mv, dataset),
        "detection_precision": report.precision,
        "detection_recall": report.recall,
        "detection_f1": report.f1,
        "n_adversaries": float(len(world.adversary_ids)),
        "n_flagged": float(len(report.flagged)),
    }
    if scenario.auction:
        shaded_prices = world.bid_prices()
        # Stage 1 does not depend on the bids, so every auction run
        # reuses the DATE result computed above instead of re-estimating.
        mechanism = IMC2(requirement_cap=scenario.requirement_cap)
        truthful = mechanism.run(dataset, truth=result)
        shaders = sorted(shaded_prices)
        truthful_utility = sum(
            truthful.worker_utilities.get(w, 0.0) for w in shaders
        )
        # One unilateral deviation per shader: only worker ``w`` shades,
        # everyone else bids truthfully.
        unilateral = 0.0
        best_gain = 0.0 if not shaders else float("-inf")
        for worker_id in shaders:
            solo = mechanism.run(
                dataset,
                truth=result,
                bids=dataset.bids(
                    prices={worker_id: shaded_prices[worker_id]}
                ),
            )
            utility = solo.worker_utilities.get(worker_id, 0.0)
            unilateral += utility
            best_gain = max(
                best_gain,
                utility - truthful.worker_utilities.get(worker_id, 0.0),
            )
        metrics.update(
            {
                "social_cost": truthful.auction.social_cost,
                "total_payment": truthful.auction.total_payment,
                "shader_utility_truthful": truthful_utility,
                "shader_utility_shaded": unilateral,
                "shading_gain": best_gain,
            }
        )
    return metrics


@dataclass(frozen=True)
class ScenarioRunResult:
    """Per-instance metric rows plus the scenario they came from."""

    scenario: Scenario
    table: InstanceTable

    def summary(self) -> dict[str, SummaryStats]:
        """Mean/CI of every metric across the instances."""
        return self.table.summary()

    def mean(self, metric: str) -> float:
        return self.table.mean(metric)


def scenario_run_key(scenario: Scenario) -> RunKey:
    """The per-instance ledger key of a scenario run.

    The whole frozen scenario value object *is* the declaration — the
    world shape, the ordered strategy stack, the DATE config, the
    detection threshold, and the auction toggle all live in its fields
    and are canonically encoded.  Only the instance count is
    normalized out (instance seeds are count-independent), so growing
    ``--instances`` reuses banked rows.
    """
    return RunKey(
        experiment_id=f"scenario/{scenario.name}",
        payload={"scenario": scenario.evolve(instances=1)},
    )


def run_scenario(
    scenario: Scenario,
    *,
    parallel: int | None = 1,
    ledger: RunLedger | None = None,
) -> ScenarioRunResult:
    """Run every seeded instance of ``scenario`` (optionally in parallel).

    With a ``ledger`` each instance row is banked under the scenario's
    content fingerprint (:func:`scenario_run_key`), so repeated and
    resumed runs recompute only the missing instances.
    """
    table = run_instances(
        scenario.instances,
        partial(instance_metrics, scenario),
        parallel=parallel,
        ledger=ledger,
        key=scenario_run_key(scenario) if ledger is not None else None,
    )
    return ScenarioRunResult(scenario=scenario, table=table)


def sweep_scenario(
    base: Scenario,
    x_values: Sequence[float],
    configure: Callable[[Scenario, float], Scenario],
    *,
    experiment_id: str = "scenario-sweep",
    title: str | None = None,
    x_label: str = "x",
    metrics: Sequence[str] = ("date_precision", "detection_f1"),
    parallel: int | None = 1,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Sweep a scenario family along an x-grid into plot-ready series.

    ``configure(base, x)`` evolves the base scenario for each grid
    point; each point averages the requested metrics over the
    scenario's instances.  Parallelism fans out at the *instance* level
    (the configure callable runs only in the parent process, so it may
    be any local function), which keeps the sweep bit-identical to the
    serial path for every ``parallel``.  A ``ledger`` banks the
    instance rows of every evolved scenario, so the sweep resumes at
    instance granularity.
    """

    def point(x: float) -> dict[str, float]:
        result = run_scenario(configure(base, x), parallel=parallel, ledger=ledger)
        return {metric: result.mean(metric) for metric in metrics}

    return sweep_series(
        experiment_id,
        title or f"Scenario sweep of {base.name!r}",
        x_label,
        ", ".join(metrics),
        x_values,
        point,
        meta={
            "scenario": base.name,
            "instances": base.instances,
            "base_seed": base.base_seed,
            "strategies": [s.name for s in base.strategies],
        },
    )
