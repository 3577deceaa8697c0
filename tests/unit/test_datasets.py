"""Unit tests for the dataset substrate (repro.datasets)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConfigurationError, WorldConfig
from repro.datasets import (
    PalmM515LikeSampler,
    generate_qatar_living_like,
    generate_world,
    inject_copiers,
    load_dataset,
    sample_costs,
    save_dataset,
)
from repro.datasets.qatar_living import QATAR_LIVING_LABELS


class TestWorldConfig:
    def test_defaults_valid(self):
        WorldConfig()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_tasks", 0),
            ("n_workers", 0),
            ("num_false", 0),
            ("participation_decay", 1.0),
            ("reliability_alpha", 0.0),
            ("reliability_clip", (0.0, 0.9)),
            ("false_value_style", "gaussian"),
            ("zipf_exponent", -1.0),
            ("requirement_range", (3.0, 2.0)),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            WorldConfig(**{field: value})

    def test_shared_labels_must_match_num_false(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(num_false=2, shared_labels=("A", "B"))

    def test_evolve(self):
        config = WorldConfig().evolve(n_tasks=10)
        assert config.n_tasks == 10


class TestGenerateWorld:
    def test_shapes(self):
        config = WorldConfig(n_tasks=20, n_workers=10, target_claims=100)
        world = generate_world(config, seed=1)
        assert world.n_tasks == 20
        assert world.n_workers == 10
        assert all(not w.is_copier for w in world.workers)

    def test_deterministic(self):
        config = WorldConfig(n_tasks=15, n_workers=8, target_claims=60)
        a = generate_world(config, seed=9)
        b = generate_world(config, seed=9)
        assert a.claims == b.claims
        assert a.tasks == b.tasks

    def test_seed_changes_data(self):
        config = WorldConfig(n_tasks=15, n_workers=8, target_claims=60)
        a = generate_world(config, seed=1)
        b = generate_world(config, seed=2)
        assert a.claims != b.claims

    def test_claim_budget_roughly_met(self):
        config = WorldConfig(n_tasks=50, n_workers=40, target_claims=1000)
        world = generate_world(config, seed=3)
        assert 700 <= world.n_claims <= 1300

    def test_participation_decays_with_task_index(self):
        config = WorldConfig(
            n_tasks=60, n_workers=50, target_claims=1500, participation_decay=0.8
        )
        world = generate_world(config, seed=4)
        first_third = sum(
            len(world.claims_by_task[t.task_id]) for t in world.tasks[:20]
        )
        last_third = sum(
            len(world.claims_by_task[t.task_id]) for t in world.tasks[-20:]
        )
        assert first_third > last_third

    def test_task_attributes_in_range(self):
        config = WorldConfig(n_tasks=30, n_workers=10, target_claims=100)
        world = generate_world(config, seed=5)
        for task in world.tasks:
            assert 2.0 <= task.requirement <= 4.0
            assert 5.0 <= task.value <= 8.0
            assert task.truth in task.domain

    def test_reliability_drives_correctness(self):
        """Across tasks, high-reliability workers answer correctly more
        often than low-reliability ones."""
        config = WorldConfig(
            n_tasks=80,
            n_workers=30,
            target_claims=1500,
            reliability_clip=(0.2, 0.95),
        )
        world = generate_world(config, seed=6)
        rates = {}
        for worker in world.workers:
            claims = world.claims_by_worker[worker.worker_id]
            if len(claims) < 10:
                continue
            correct = sum(
                1
                for task_id, value in claims.items()
                if value == world.task_by_id[task_id].truth
            )
            rates[worker.worker_id] = (worker.reliability, correct / len(claims))
        reliabilities = np.array([r for r, _ in rates.values()])
        observed = np.array([o for _, o in rates.values()])
        assert np.corrcoef(reliabilities, observed)[0, 1] > 0.5

    def test_shared_labels_used(self):
        config = WorldConfig(
            n_tasks=10,
            n_workers=5,
            target_claims=30,
            num_false=2,
            shared_labels=("Good", "Bad", "Other"),
        )
        world = generate_world(config, seed=7)
        for task in world.tasks:
            assert task.domain == ("Good", "Bad", "Other")


class TestInjectCopiers:
    def make_world(self):
        return generate_world(
            WorldConfig(n_tasks=30, n_workers=16, target_claims=300), seed=8
        )

    def test_copier_count_and_flags(self):
        world = inject_copiers(self.make_world(), 4, seed=1)
        copiers = [w for w in world.workers if w.is_copier]
        assert len(copiers) == 4
        for copier in copiers:
            assert copier.sources
            assert copier.copy_prob > 0

    def test_no_loop_dependence(self):
        world = inject_copiers(self.make_world(), 5, seed=2)
        copier_ids = {w.worker_id for w in world.workers if w.is_copier}
        for worker in world.workers:
            for source in worker.sources:
                assert source not in copier_ids

    def test_copiers_mostly_agree_with_sources(self):
        world = inject_copiers(
            self.make_world(), 4, copy_prob=1.0, follow_prob=1.0, extra_prob=0.0, seed=3
        )
        for worker in world.workers:
            if not worker.is_copier:
                continue
            source_claims = world.claims_by_worker[worker.sources[0]]
            own_claims = world.claims_by_worker[worker.worker_id]
            assert set(own_claims) == set(source_claims)
            assert all(own_claims[t] == source_claims[t] for t in own_claims)

    def test_zero_copiers_is_identity(self):
        world = self.make_world()
        assert inject_copiers(world, 0, seed=1) is world

    def test_explicit_copier_ids(self):
        world = self.make_world()
        ids = [world.workers[0].worker_id, world.workers[3].worker_id]
        injected = inject_copiers(world, 2, copier_ids=ids, seed=4)
        assert {w.worker_id for w in injected.workers if w.is_copier} == set(ids)

    def test_source_pool_clusters_sources(self):
        world = inject_copiers(
            self.make_world(), 6, source_pool_size=2, seed=5
        )
        sources = {
            s for w in world.workers if w.is_copier for s in w.sources
        }
        assert len(sources) <= 2

    def test_too_many_copiers_rejected(self):
        with pytest.raises(ConfigurationError):
            inject_copiers(self.make_world(), 16, seed=1)

    def test_unknown_copier_id_rejected(self):
        with pytest.raises(ConfigurationError):
            inject_copiers(self.make_world(), 1, copier_ids=["ghost"], seed=1)

    def test_parameter_validation(self):
        world = self.make_world()
        with pytest.raises(ConfigurationError):
            inject_copiers(world, 2, copy_prob=1.5, seed=1)
        with pytest.raises(ConfigurationError):
            inject_copiers(world, 2, sources_per_copier=0, seed=1)
        with pytest.raises(ConfigurationError):
            inject_copiers(world, 2, source_pool_size=0, seed=1)
        with pytest.raises(ConfigurationError):
            inject_copiers(world, 2, source_selection="random", seed=1)

    def test_low_reliability_source_selection(self):
        world = self.make_world()
        injected = inject_copiers(
            world, 4, source_selection="low_reliability", seed=6
        )
        reliabilities = sorted(w.reliability for w in world.workers)
        # All chosen sources sit in the bottom-reliability portion.
        cutoff = reliabilities[len(reliabilities) // 2]
        for worker in injected.workers:
            for source in worker.sources:
                assert injected.worker_by_id[source].reliability <= cutoff


class TestQatarLivingPreset:
    def test_shape_matches_paper(self):
        dataset = generate_qatar_living_like(seed=1)
        assert dataset.n_tasks == 300
        assert dataset.n_workers == 120
        assert sum(1 for w in dataset.workers if w.is_copier) == 30
        assert 4500 <= dataset.n_claims <= 7500
        for task in dataset.tasks:
            assert task.domain == QATAR_LIVING_LABELS

    def test_deterministic(self):
        a = generate_qatar_living_like(seed=5, n_tasks=30, n_workers=12, n_copiers=3)
        b = generate_qatar_living_like(seed=5, n_tasks=30, n_workers=12, n_copiers=3)
        assert a.claims == b.claims


class TestAuctionPrices:
    def test_sample_range(self):
        sampler = PalmM515LikeSampler()
        prices = sampler.sample(500, seed=1)
        assert prices.min() >= sampler.floor
        assert prices.max() <= sampler.ceiling

    def test_right_skew(self):
        prices = PalmM515LikeSampler().sample(2000, seed=2)
        assert np.mean(prices) > np.median(prices) * 0.99

    def test_round_heaping(self):
        sampler = PalmM515LikeSampler(round_fraction=1.0, round_to=5.0)
        prices = sampler.sample(200, seed=3)
        assert np.allclose(prices % 5.0, 0.0)

    def test_deterministic(self):
        a = PalmM515LikeSampler().sample(50, seed=4)
        b = PalmM515LikeSampler().sample(50, seed=4)
        assert np.array_equal(a, b)

    def test_sample_costs_range(self):
        costs = sample_costs(300, seed=5, cost_range=(1.0, 10.0))
        assert costs.min() >= 1.0
        assert costs.max() <= 10.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            PalmM515LikeSampler(median=-1.0)
        with pytest.raises(ConfigurationError):
            PalmM515LikeSampler(floor=10.0, ceiling=5.0)
        with pytest.raises(ConfigurationError):
            sample_costs(10, cost_range=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            PalmM515LikeSampler().sample(-1)


class TestDatasetIO:
    def test_round_trip(self, tmp_path, qlf_small):
        save_dataset(qlf_small, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.claims == qlf_small.claims
        assert loaded.tasks == qlf_small.tasks
        assert loaded.workers == qlf_small.workers

    def test_missing_file_rejected(self, tmp_path):
        from repro.errors import DataFormatError

        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "nope")

    def test_reserved_separator_rejected(self, tmp_path):
        from repro import Dataset, Task, WorkerProfile
        from repro.errors import DataFormatError

        bad = Dataset(
            tasks=(Task(task_id="t", domain=("a|b", "c")),),
            workers=(WorkerProfile(worker_id="w"),),
            claims={},
        )
        with pytest.raises(DataFormatError):
            save_dataset(bad, tmp_path / "bad")

    def test_schema_mismatch_rejected(self, tmp_path, qlf_small):
        from repro.errors import DataFormatError

        save_dataset(qlf_small, tmp_path / "ds")
        (tmp_path / "ds" / "tasks.csv").write_text("wrong,columns\n1,2\n")
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "ds")

    def test_duplicate_claim_row_rejected(self, tmp_path, qlf_small):
        # A worker submits at most one value per task; a corrupt archive
        # repeating a (worker, task) row must fail loudly instead of
        # silently keeping the last value (streaming replay depends on
        # deterministic claim sets).
        from repro.errors import DataFormatError, ReproError

        save_dataset(qlf_small, tmp_path / "ds")
        claims_csv = tmp_path / "ds" / "claims.csv"
        lines = claims_csv.read_text().splitlines()
        worker_id, task_id, _ = lines[1].split(",")
        claims_csv.write_text(
            "\n".join(lines + [f"{worker_id},{task_id},another-value"]) + "\n"
        )
        with pytest.raises(DataFormatError, match="duplicate claim") as excinfo:
            load_dataset(tmp_path / "ds")
        assert worker_id in str(excinfo.value)
        assert task_id in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)

    @pytest.mark.parametrize(
        "name, column",
        [
            ("tasks.csv", "requirement"),
            ("tasks.csv", "value"),
            ("workers.csv", "cost"),
            ("workers.csv", "reliability"),
            ("workers.csv", "copy_prob"),
        ],
    )
    def test_non_numeric_cell_rejected(self, tmp_path, qlf_small, name, column):
        from repro.errors import DataFormatError

        save_dataset(qlf_small, tmp_path / "ds")
        path = tmp_path / "ds" / name
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index(column)] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_dataset(tmp_path / "ds")
        assert str(excinfo.value) == (
            f"{name}: line 4: {column!r} cell 'abc' is not a number"
        )

    @pytest.mark.parametrize("name", ["tasks.csv", "workers.csv", "claims.csv"])
    def test_short_row_rejected(self, tmp_path, qlf_small, name):
        from repro.errors import DataFormatError

        save_dataset(qlf_small, tmp_path / "ds")
        path = tmp_path / "ds" / name
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        lines[2] = ",".join(lines[2].split(",")[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_dataset(tmp_path / "ds")
        assert str(excinfo.value) == f"{name}: line 3: missing {header[-1]!r} cell"
