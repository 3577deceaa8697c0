"""Unit tests for the core data model (repro.types)."""

from __future__ import annotations

import pytest

from repro import Bid, ConfigurationError, DataFormatError, Dataset, Task, WorkerProfile


class TestTask:
    def test_basic_construction(self):
        task = Task(task_id="t1", domain=("A", "B"), requirement=2.0, truth="A")
        assert task.task_id == "t1"
        assert task.num_false == 1

    def test_open_domain_has_zero_num_false(self):
        assert Task(task_id="t1").num_false == 0

    def test_empty_id_rejected(self):
        with pytest.raises(DataFormatError):
            Task(task_id="")

    def test_non_string_id_rejected(self):
        with pytest.raises(DataFormatError, match="task_id must be a non-empty string"):
            Task(task_id=7)

    def test_duplicate_domain_values_rejected(self):
        with pytest.raises(DataFormatError):
            Task(task_id="t1", domain=("A", "A"))

    def test_negative_requirement_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(task_id="t1", requirement=-0.5)

    @pytest.mark.parametrize("requirement", [float("nan"), float("inf")])
    def test_non_finite_requirement_rejected(self, requirement):
        with pytest.raises(ConfigurationError):
            Task(task_id="t1", requirement=requirement)

    def test_truth_outside_closed_domain_rejected(self):
        with pytest.raises(DataFormatError):
            Task(task_id="t1", domain=("A", "B"), truth="C")

    def test_truth_allowed_with_open_domain(self):
        assert Task(task_id="t1", truth="anything").truth == "anything"

    def test_with_requirement_returns_copy(self):
        task = Task(task_id="t1", requirement=1.0)
        other = task.with_requirement(3.0)
        assert other.requirement == 3.0
        assert task.requirement == 1.0


class TestWorkerProfile:
    def test_defaults(self):
        worker = WorkerProfile(worker_id="w")
        assert not worker.is_copier
        assert worker.sources == ()

    def test_non_string_id_rejected(self):
        with pytest.raises(DataFormatError, match="worker_id must be a non-empty string"):
            WorkerProfile(worker_id=7)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerProfile(worker_id="w", cost=-1.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ConfigurationError):
            WorkerProfile(worker_id="w", cost=cost)

    @pytest.mark.parametrize("reliability", [-0.1, 1.1])
    def test_reliability_bounds(self, reliability):
        with pytest.raises(ConfigurationError):
            WorkerProfile(worker_id="w", reliability=reliability)

    def test_copier_requires_sources(self):
        with pytest.raises(ConfigurationError):
            WorkerProfile(worker_id="w", is_copier=True)

    def test_self_copy_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerProfile(worker_id="w", is_copier=True, sources=("w",))

    def test_with_cost(self):
        worker = WorkerProfile(worker_id="w", cost=1.0)
        assert worker.with_cost(9.0).cost == 9.0


class TestBid:
    def test_valid(self):
        bid = Bid(worker_id="w", task_ids=frozenset({"t1"}), price=2.0)
        assert bid.price == 2.0

    def test_negative_price_rejected(self):
        with pytest.raises(ConfigurationError):
            Bid(worker_id="w", task_ids=frozenset({"t1"}), price=-1.0)

    @pytest.mark.parametrize("price", [float("nan"), float("inf")])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(ConfigurationError):
            Bid(worker_id="w", task_ids=frozenset({"t1"}), price=price)

    def test_empty_task_set_rejected(self):
        with pytest.raises(ConfigurationError):
            Bid(worker_id="w", task_ids=frozenset(), price=1.0)


class TestDataset:
    def test_views(self, tiny_dataset):
        assert tiny_dataset.n_tasks == 4
        assert tiny_dataset.n_workers == 5
        assert tiny_dataset.n_claims == 18
        assert tiny_dataset.claims_by_task["t0"]["w1"] == "A"
        assert tiny_dataset.claims_by_worker["w5"] == {"t0": "A", "t1": "A"}

    def test_value_groups(self, tiny_dataset):
        groups = tiny_dataset.value_groups("t1")
        assert groups["A"] == frozenset({"w1", "w2", "w5"})
        assert groups["B"] == frozenset({"w3", "w4"})

    def test_truths(self, tiny_dataset):
        assert tiny_dataset.truths == {f"t{j}": "A" for j in range(4)}

    def test_duplicate_task_ids_rejected(self):
        task = Task(task_id="t1")
        with pytest.raises(DataFormatError):
            Dataset(tasks=(task, task), workers=(), claims={})

    def test_duplicate_worker_ids_rejected(self):
        worker = WorkerProfile(worker_id="w")
        with pytest.raises(DataFormatError):
            Dataset(tasks=(), workers=(worker, worker), claims={})

    def test_claim_unknown_worker_rejected(self, tiny_dataset):
        claims = dict(tiny_dataset.claims)
        claims[("ghost", "t0")] = "A"
        with pytest.raises(DataFormatError):
            tiny_dataset.with_claims(claims)

    def test_claim_unknown_task_rejected(self, tiny_dataset):
        claims = dict(tiny_dataset.claims)
        claims[("w1", "ghost")] = "A"
        with pytest.raises(DataFormatError):
            tiny_dataset.with_claims(claims)

    def test_claim_outside_domain_rejected(self, tiny_dataset):
        claims = dict(tiny_dataset.claims)
        claims[("w1", "t0")] = "Z"
        with pytest.raises(DataFormatError):
            tiny_dataset.with_claims(claims)

    def test_empty_claim_value_rejected(self, tiny_dataset):
        claims = dict(tiny_dataset.claims)
        claims[("w1", "t0")] = ""
        with pytest.raises(DataFormatError):
            tiny_dataset.with_claims(claims)

    @pytest.mark.parametrize("key", ["bad", ("w",), ("w", "t", "x"), "wt"])
    def test_malformed_claim_key_rejected(self, key):
        # "wt" would unpack as worker "w" on task "t": a str is no pair.
        with pytest.raises(DataFormatError, match="pair"):
            Dataset(
                tasks=(Task(task_id="t"),),
                workers=(WorkerProfile(worker_id="w"),),
                claims={key: "v"},
            )

    def test_copier_source_must_exist(self):
        worker = WorkerProfile(
            worker_id="w", is_copier=True, sources=("ghost",)
        )
        with pytest.raises(DataFormatError):
            Dataset(tasks=(), workers=(worker,), claims={})

    def test_subset_tasks(self, tiny_dataset):
        sub = tiny_dataset.subset(task_ids=["t0", "t1"])
        assert sub.n_tasks == 2
        assert all(t in ("t0", "t1") for (_, t) in sub.claims)
        assert sub.n_workers == 5

    def test_subset_workers_drops_lost_sources(self, tiny_dataset):
        sub = tiny_dataset.subset(worker_ids=["w1", "w4"])
        w4 = sub.worker_by_id["w4"]
        # w4's source w3 was dropped, so w4 is no longer a copier.
        assert not w4.is_copier
        assert w4.sources == ()

    def test_subset_unknown_ids_rejected(self, tiny_dataset):
        with pytest.raises(DataFormatError):
            tiny_dataset.subset(task_ids=["nope"])
        with pytest.raises(DataFormatError):
            tiny_dataset.subset(worker_ids=["nope"])

    def test_bids_default_to_costs(self, tiny_dataset):
        bids = tiny_dataset.bids()
        by_id = {b.worker_id: b for b in bids}
        assert by_id["w1"].price == 2.0
        assert by_id["w5"].task_ids == frozenset({"t0", "t1"})

    def test_bids_price_override(self, tiny_dataset):
        bids = tiny_dataset.bids(prices={"w1": 9.0})
        by_id = {b.worker_id: b for b in bids}
        assert by_id["w1"].price == 9.0
        assert by_id["w2"].price == 3.0

    def test_workers_without_claims_submit_no_bid(self):
        tasks = (Task(task_id="t0", domain=("A",)),)
        workers = (
            WorkerProfile(worker_id="busy"),
            WorkerProfile(worker_id="idle"),
        )
        dataset = Dataset(
            tasks=tasks, workers=workers, claims={("busy", "t0"): "A"}
        )
        assert [b.worker_id for b in dataset.bids()] == ["busy"]
