"""Composable worker-strategy transforms with ground-truth labels.

The paper evaluates DATE against one adversary shape — independent
copiers, each replaying a single source (``inject_copiers``).  Related
work studies far richer strategic behavior: strategic revelation
without verification (arXiv:2104.03487) and Theseus-style effort
withholding / spam (arXiv:1705.04387).  This module turns those
behaviors into *composable dataset transforms*:

- :class:`ChainCopiers` — transitive copying: A copies B copies C, so
  errors propagate along a path rather than a star;
- :class:`CollusionRing` — a ring of workers copies a shared **hidden
  leader** answer sheet that never appears in the claim graph, the
  hardest case for pairwise dependence detection;
- :class:`SybilAmplification` — one worker profile cloned under ``k``
  fresh identities, each replaying the original's claims verbatim;
- :class:`LazyWorkers` — effort withholding: answers replaced by
  uniform-random draws over each task's domain (spam);
- :class:`BidShading` — auction-side strategists that misreport their
  private cost (the data is untouched; the declared bids move).

Every transform is a **pure function of** ``(dataset, seed)``: applying
the same transform with the same seed to the same dataset yields an
identical dataset, which is what makes the parallel scenario runner
bit-reproducible.  Each transform also emits
:class:`AdversaryLabel` ground truth so detection precision/recall is
measurable — including for behaviors (hidden leaders) that cannot be
recorded on :class:`~repro.types.WorkerProfile` without leaking into
the claim graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, ensure_generator, spawn
from ..types import Dataset, Task, WorkerProfile

__all__ = [
    "AdversaryLabel",
    "BidShading",
    "ChainCopiers",
    "CollusionRing",
    "LazyWorkers",
    "ScenarioWorld",
    "Strategy",
    "SybilAmplification",
    "apply_strategies",
]

#: Roles that are part of a *copy structure* the dependence posteriors
#: can in principle detect (the denominator of recall).  Copy sources
#: (chain roots, sybil origins) are included: a detector flagging a
#: true (copier, source) pair necessarily flags both endpoints, so
#: leaving sources out would structurally cap precision below 1 for a
#: perfect detector.
COPY_LIKE_ROLES = frozenset(
    {"copier", "chain-root", "colluder", "sybil", "sybil-origin"}
)


@dataclass(frozen=True)
class AdversaryLabel:
    """Ground truth about one adversarial identity.

    ``worker_id`` names a worker in the transformed dataset — except
    for virtual identities (``virtual=True``), such as the hidden
    leader of a collusion ring, which exist only in the generative
    story and deliberately never in the claim graph.
    """

    worker_id: str
    strategy: str
    role: str
    virtual: bool = False
    detail: dict[str, object] = field(default_factory=dict)

    @property
    def copy_like(self) -> bool:
        """Whether a dependence detector should be able to flag this."""
        return self.role in COPY_LIKE_ROLES


@dataclass(frozen=True)
class ScenarioWorld:
    """A transformed dataset plus the full adversary ground truth."""

    dataset: Dataset
    labels: tuple[AdversaryLabel, ...] = ()

    def labels_for(self, role: str) -> tuple[AdversaryLabel, ...]:
        return tuple(lab for lab in self.labels if lab.role == role)

    @property
    def adversary_ids(self) -> frozenset[str]:
        """Non-virtual labeled workers (every strategy's footprint)."""
        return frozenset(
            lab.worker_id for lab in self.labels if not lab.virtual
        )

    @property
    def copy_adversary_ids(self) -> frozenset[str]:
        """Workers a dependence detector is *supposed* to flag."""
        return frozenset(
            lab.worker_id
            for lab in self.labels
            if not lab.virtual and lab.copy_like
        )

    def bid_prices(self) -> dict[str, float]:
        """Declared-bid overrides from bid-shading labels (empty if none)."""
        return {
            lab.worker_id: float(lab.detail["declared_bid"])
            for lab in self.labels
            if lab.role == "bid-shader"
        }


class Strategy:
    """Base class: one adversarial behavior applied to a dataset.

    Subclasses implement :meth:`apply`; they must draw randomness only
    from the generator they are handed and never mutate the input
    dataset, so a strategy is a pure function of ``(dataset, rng
    state)``.
    """

    #: Short machine name, recorded on every label the strategy emits.
    name: str = "strategy"

    def apply(
        self,
        dataset: Dataset,
        rng: np.random.Generator,
        exclude: frozenset[str] = frozenset(),
    ) -> tuple[Dataset, tuple[AdversaryLabel, ...]]:
        """Transform ``dataset``; never recruit workers in ``exclude``.

        ``exclude`` names workers whose claims earlier strategies in a
        stack depend on (colluders, sybil origins, ...); recruiting
        them would silently corrupt the earlier ground truth.
        """
        raise NotImplementedError


def _eligible_ids(dataset: Dataset, exclude: frozenset[str] = frozenset()) -> list[str]:
    """Workers that are still plain independents (stable id order).

    Copiers *and the workers they copy from* are ineligible: rewriting
    a copy source's claims after the copy was taken would silently
    destroy the very dependence signal an earlier transform planted
    (and that detection is scored against).  ``exclude`` carries the
    footprints only the labels know about — e.g. ring colluders, whose
    profiles deliberately stay clean.
    """
    sources = {s for w in dataset.workers for s in w.sources}
    return [
        w.worker_id
        for w in dataset.workers
        if not w.is_copier
        and w.worker_id not in sources
        and w.worker_id not in exclude
    ]


def _pick(rng: np.random.Generator, ids: list[str], count: int) -> list[str]:
    """Draw ``count`` distinct ids, deterministic in ``(ids, rng)``."""
    if count > len(ids):
        raise ConfigurationError(
            f"cannot pick {count} workers from {len(ids)} eligible candidates"
        )
    picks = rng.choice(len(ids), size=count, replace=False)
    return [ids[int(i)] for i in picks]


def _draw_value(
    task: Task, reliability: float, rng: np.random.Generator
) -> str | None:
    """One independent answer: truth w.p. ``reliability``, else a
    uniform false value from *this task's* domain.

    It takes any domain (e.g. CSV campaigns whose domains were inferred
    from observed values), including a truth missing from it.  Returns
    ``None`` when no independent draw is possible (open domain, or no
    known truth to be right about) — callers keep/skip the claim instead.
    """
    truth = task.truth if task.truth in task.domain else None
    false_values = [v for v in task.domain if v != truth]
    if truth is not None and rng.random() < reliability:
        return truth
    if not false_values:
        return truth
    return false_values[int(rng.integers(len(false_values)))]


@dataclass(frozen=True)
class ChainCopiers(Strategy):
    """Transitive copy chains: ``w_0 <- w_1 <- ... <- w_{L-1}``.

    Each chain picks ``chain_length`` distinct independent workers; the
    root keeps its own answers, every later member re-derives its
    claims from its *predecessor's final claims* (so copied errors
    propagate transitively).  Claims regenerate with the classic copier
    mixture: answer a task the predecessor answered with probability
    ``follow_prob``; copy verbatim with probability ``copy_prob``, else
    draw independently from the member's own reliability.

    Chains are disjoint and edges always point from a later chain
    position to an earlier one, so the dependence graph is a forest —
    no loop can arise, satisfying the paper's no-loop assumption
    (Sec. II-B) by construction.
    """

    n_chains: int = 2
    chain_length: int = 3
    copy_prob: float = 0.9
    follow_prob: float = 0.95
    extra_prob: float = 0.0
    name: str = "chain_copiers"

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise ConfigurationError("n_chains must be >= 1")
        if self.chain_length < 2:
            raise ConfigurationError("chain_length must be >= 2 (root + copier)")
        for attr in ("copy_prob", "follow_prob", "extra_prob"):
            if not 0.0 <= getattr(self, attr) <= 1.0:
                raise ConfigurationError(f"{attr} must be in [0, 1]")

    def apply(self, dataset, rng, exclude=frozenset()):
        members = _pick(
            rng, _eligible_ids(dataset, exclude), self.n_chains * self.chain_length
        )
        claims = dict(dataset.claims)
        profiles = {w.worker_id: w for w in dataset.workers}
        labels: list[AdversaryLabel] = []
        for c in range(self.n_chains):
            chain = members[c * self.chain_length : (c + 1) * self.chain_length]
            # The root keeps its own answers but is part of the planted
            # copy structure (mirror of the sybil origin): any detector
            # that finds the (copier, root) pair flags the root too.
            labels.append(
                AdversaryLabel(
                    worker_id=chain[0],
                    strategy=self.name,
                    role="chain-root",
                    detail={"chain": c, "depth": 0},
                )
            )
            for depth in range(1, len(chain)):
                copier, source = chain[depth], chain[depth - 1]
                worker = profiles[copier]
                # Drop the copier's own answers, then re-derive from the
                # predecessor's *current* claims (already rewritten for
                # depth-1, which is what makes the chain transitive).
                for task in dataset.tasks:
                    claims.pop((copier, task.task_id), None)
                for task in dataset.tasks:
                    value = claims.get((source, task.task_id))
                    if value is not None:
                        if rng.random() >= self.follow_prob:
                            continue
                        if rng.random() >= self.copy_prob:
                            own = _draw_value(task, worker.reliability, rng)
                            if own is not None:
                                value = own
                        claims[(copier, task.task_id)] = value
                    elif self.extra_prob > 0.0 and rng.random() < self.extra_prob:
                        extra = _draw_value(task, worker.reliability, rng)
                        if extra is not None:
                            claims[(copier, task.task_id)] = extra
                profiles[copier] = replace(
                    worker,
                    is_copier=True,
                    sources=(source,),
                    copy_prob=self.copy_prob,
                )
                labels.append(
                    AdversaryLabel(
                        worker_id=copier,
                        strategy=self.name,
                        role="copier",
                        detail={"chain": c, "depth": depth, "source": source},
                    )
                )
        workers = tuple(profiles[w.worker_id] for w in dataset.workers)
        return (
            Dataset(tasks=dataset.tasks, workers=workers, claims=claims),
            tuple(labels),
        )


@dataclass(frozen=True)
class CollusionRing(Strategy):
    """A ring copying a shared *hidden* leader answer sheet.

    The leader is virtual: a low-reliability answer sheet drawn once
    per ring, never registered as a worker, so no claim-graph edge or
    profile field betrays it — ring members look like independents who
    happen to agree.  Each member keeps its original answered-task set
    but rewrites each value to the leader's answer with probability
    ``copy_prob`` (own independent draw otherwise).
    """

    ring_size: int = 4
    copy_prob: float = 0.9
    leader_reliability: float = 0.35
    name: str = "collusion_ring"

    def __post_init__(self) -> None:
        if self.ring_size < 2:
            raise ConfigurationError("ring_size must be >= 2")
        if not 0.0 <= self.copy_prob <= 1.0:
            raise ConfigurationError("copy_prob must be in [0, 1]")
        if not 0.0 < self.leader_reliability <= 1.0:
            raise ConfigurationError("leader_reliability must be in (0, 1]")

    def apply(self, dataset, rng, exclude=frozenset()):
        members = _pick(rng, _eligible_ids(dataset, exclude), self.ring_size)
        # The hidden leader's sheet covers every drawable task; members
        # only ever read the entries for tasks they answer, and keep
        # their original claim where no independent draw exists.
        sheet: dict[str, str] = {}
        for task in dataset.tasks:
            value = _draw_value(task, self.leader_reliability, rng)
            if value is not None:
                sheet[task.task_id] = value
        claims = dict(dataset.claims)
        member_set = set(members)
        for worker in dataset.workers:
            if worker.worker_id not in member_set:
                continue
            for task in dataset.tasks:
                key = (worker.worker_id, task.task_id)
                if key not in claims or task.task_id not in sheet:
                    continue
                if rng.random() < self.copy_prob:
                    claims[key] = sheet[task.task_id]
                else:
                    claims[key] = _draw_value(task, worker.reliability, rng)
        leader_id = f"__{self.name}_leader_{members[0]}__"
        labels = [
            AdversaryLabel(
                worker_id=leader_id,
                strategy=self.name,
                role="leader",
                virtual=True,
                detail={"members": tuple(sorted(members))},
            )
        ]
        labels += [
            AdversaryLabel(
                worker_id=member,
                strategy=self.name,
                role="colluder",
                detail={"leader": leader_id},
            )
            for member in members
        ]
        return (
            Dataset(tasks=dataset.tasks, workers=dataset.workers, claims=claims),
            tuple(labels),
        )


@dataclass(frozen=True)
class SybilAmplification(Strategy):
    """Clone worker profiles under fresh identities (sybil attack).

    Each chosen origin profile gains ``clones_per_profile`` new
    identities that replay the origin's claims verbatim — the cheapest
    way to amplify one voice in vote-based truth discovery.  Clones
    preserve the origin's per-identity claim count exactly, and their
    profiles record the generative truth (``is_copier``, ``sources``)
    that evaluation reads and estimation never does.
    """

    n_profiles: int = 2
    clones_per_profile: int = 3
    name: str = "sybil_amplification"

    def __post_init__(self) -> None:
        if self.n_profiles < 1:
            raise ConfigurationError("n_profiles must be >= 1")
        if self.clones_per_profile < 1:
            raise ConfigurationError("clones_per_profile must be >= 1")

    def apply(self, dataset, rng, exclude=frozenset()):
        origins = _pick(rng, _eligible_ids(dataset, exclude), self.n_profiles)
        claims = dict(dataset.claims)
        workers = list(dataset.workers)
        existing = {w.worker_id for w in dataset.workers}
        labels: list[AdversaryLabel] = []
        for origin in origins:
            profile = dataset.worker_by_id[origin]
            origin_claims = dataset.claims_by_worker[origin]
            labels.append(
                AdversaryLabel(
                    worker_id=origin,
                    strategy=self.name,
                    role="sybil-origin",
                    detail={"clones": self.clones_per_profile},
                )
            )
            for j in range(self.clones_per_profile):
                clone_id = f"{origin}_syb{j}"
                if clone_id in existing:
                    raise ConfigurationError(
                        f"sybil identity {clone_id!r} already exists"
                    )
                existing.add(clone_id)
                workers.append(
                    WorkerProfile(
                        worker_id=clone_id,
                        cost=profile.cost,
                        reliability=profile.reliability,
                        is_copier=True,
                        sources=(origin,),
                        copy_prob=1.0,
                    )
                )
                for task_id, value in origin_claims.items():
                    claims[(clone_id, task_id)] = value
                labels.append(
                    AdversaryLabel(
                        worker_id=clone_id,
                        strategy=self.name,
                        role="sybil",
                        detail={"origin": origin},
                    )
                )
        return (
            Dataset(tasks=dataset.tasks, workers=tuple(workers), claims=claims),
            tuple(labels),
        )


@dataclass(frozen=True)
class LazyWorkers(Strategy):
    """Effort withholding: answers become uniform draws over the domain.

    The chosen workers keep their answered-task sets (participation is
    observable; effort is not) but every value is replaced by a uniform
    draw over the task's full domain — the spammer model of
    Theseus-style effort withholding.  Profiles record the new
    generative reliability (the mean chance level over answered tasks).
    """

    n_workers: int = 5
    name: str = "lazy_workers"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")

    def apply(self, dataset, rng, exclude=frozenset()):
        lazy = _pick(rng, _eligible_ids(dataset, exclude), self.n_workers)
        claims = dict(dataset.claims)
        profiles = {w.worker_id: w for w in dataset.workers}
        labels = []
        for worker_id in lazy:
            answered = dataset.claims_by_worker[worker_id]
            chance_levels = []
            for task in dataset.tasks:
                if task.task_id not in answered or not task.domain:
                    continue
                domain = task.domain
                value = domain[int(rng.integers(len(domain)))]
                claims[(worker_id, task.task_id)] = value
                chance_levels.append(1.0 / len(domain))
            if chance_levels:
                profiles[worker_id] = replace(
                    profiles[worker_id],
                    reliability=float(np.mean(chance_levels)),
                )
            labels.append(
                AdversaryLabel(
                    worker_id=worker_id,
                    strategy=self.name,
                    role="spammer",
                    detail={"answers": len(answered)},
                )
            )
        workers = tuple(profiles[w.worker_id] for w in dataset.workers)
        return (
            Dataset(tasks=dataset.tasks, workers=workers, claims=claims),
            tuple(labels),
        )


@dataclass(frozen=True)
class BidShading(Strategy):
    """Auction-side strategists declaring ``shade_factor × cost``.

    The data is untouched; the strategy only labels which workers
    misreport and what they declare, and
    :meth:`ScenarioWorld.bid_prices` turns those labels into the price
    overrides for :meth:`repro.types.Dataset.bids`.  The truthfulness
    experiments then measure what shading costs the shaders (Theorem 1
    says: it never pays).
    """

    n_workers: int = 5
    shade_factor: float = 0.6
    name: str = "bid_shading"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.shade_factor < 0.0:
            raise ConfigurationError("shade_factor must be >= 0")

    def apply(self, dataset, rng, exclude=frozenset()):
        # Shading touches only declared bids, never claims, so earlier
        # strategies' footprints are safe targets — ``exclude`` is
        # accepted for signature uniformity and ignored.
        shaders = _pick(
            rng, [w.worker_id for w in dataset.workers], self.n_workers
        )
        labels = tuple(
            AdversaryLabel(
                worker_id=worker_id,
                strategy=self.name,
                role="bid-shader",
                detail={
                    "true_cost": dataset.worker_by_id[worker_id].cost,
                    "declared_bid": dataset.worker_by_id[worker_id].cost
                    * self.shade_factor,
                },
            )
            for worker_id in sorted(shaders)
        )
        return dataset, labels


def apply_strategies(
    dataset: Dataset,
    strategies: tuple[Strategy, ...] | list[Strategy],
    seed: SeedLike = None,
) -> ScenarioWorld:
    """Apply a strategy stack in order; pure in ``(dataset, seed)``.

    Each strategy receives its own child generator spawned from the
    root seed, so inserting or reordering strategies never perturbs the
    randomness of the others beyond their actual data dependencies.
    Later strategies never recruit workers an earlier strategy already
    labeled (or the workers copies were taken from): rewriting those
    claims would silently destroy the planted dependence signal that
    detection is scored against.
    """
    rng = ensure_generator(seed)
    children = spawn(rng, len(tuple(strategies)))
    labels: list[AdversaryLabel] = []
    for strategy, child in zip(strategies, children):
        protected = frozenset(
            label.worker_id for label in labels if not label.virtual
        )
        dataset, new_labels = strategy.apply(dataset, child, protected)
        labels.extend(new_labels)
    return ScenarioWorld(dataset=dataset, labels=tuple(labels))
