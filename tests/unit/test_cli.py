"""Unit tests for the CLI subcommands (repro.__main__)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.datasets import load_dataset


@pytest.fixture
def campaign_dir(tmp_path):
    """A small generated campaign on disk."""
    directory = tmp_path / "campaign"
    code = main(
        [
            "generate",
            str(directory),
            "--tasks", "24",
            "--workers", "14",
            "--copiers", "3",
            "--claims", "200",
            "--seed", "11",
        ]
    )
    assert code == 0
    return directory


class TestGenerate:
    def test_writes_loadable_dataset(self, campaign_dir):
        dataset = load_dataset(campaign_dir)
        assert dataset.n_tasks == 24
        assert dataset.n_workers == 14
        assert sum(1 for w in dataset.workers if w.is_copier) == 3

    def test_seed_reproducible(self, tmp_path):
        for name in ("a", "b"):
            main(
                [
                    "generate",
                    str(tmp_path / name),
                    "--tasks", "10",
                    "--workers", "8",
                    "--copiers", "2",
                    "--claims", "60",
                    "--seed", "3",
                ]
            )
        assert load_dataset(tmp_path / "a").claims == load_dataset(
            tmp_path / "b"
        ).claims

    def test_prints_summary(self, campaign_dir, capsys):
        # fixture already ran; grab its output via a fresh call
        main(["generate", str(campaign_dir), "--tasks", "24", "--workers", "14",
              "--copiers", "3", "--claims", "200", "--seed", "11"])
        out = capsys.readouterr().out
        assert "24 tasks" in out
        assert "3 copiers" in out


class TestTruth:
    @pytest.mark.parametrize("algorithm", ["DATE", "MV", "NC", "ED"])
    def test_all_algorithms(self, campaign_dir, capsys, algorithm):
        code = main(
            ["truth", str(campaign_dir), "--algorithm", algorithm, "--limit", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"algorithm: {algorithm}" in out
        assert "precision:" in out

    def test_hyperparameters_accepted(self, campaign_dir, capsys):
        code = main(
            [
                "truth",
                str(campaign_dir),
                "--r", "0.6",
                "--alpha", "0.3",
                "--epsilon", "0.7",
            ]
        )
        assert code == 0


class TestAuction:
    def test_prints_winners_and_welfare(self, campaign_dir, capsys):
        code = main(["auction", str(campaign_dir), "--cap", "0.7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "winners:" in out
        assert "social cost:" in out
        assert "platform utility:" in out

    def test_cap_defaults_to_raw_requirements(self, campaign_dir):
        from repro.errors import InfeasibleCoverageError

        # The tiny campaign cannot cover raw U[2,4] requirements; the
        # CLI surfaces the library error rather than hiding it.
        with pytest.raises(InfeasibleCoverageError):
            main(["auction", str(campaign_dir)])


class TestIngest:
    def test_local_replay(self, campaign_dir, capsys):
        code = main(["ingest", str(campaign_dir), "--batches", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch" in out
        assert "after 4 batches" in out
        assert "precision:" in out

    def test_replay_against_live_server(self, campaign_dir, capsys):
        import threading

        from repro.streaming import StreamingApp, make_server

        server = make_server(StreamingApp(), port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # An id with a space exercises the URL quoting path.
            code = main(
                [
                    "ingest",
                    str(campaign_dir),
                    "--batches", "3",
                    "--campaign", "cli replay",
                    "--url", f"http://127.0.0.1:{port}",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "cli replay" in out
            assert "after 3 batches" in out
        finally:
            server.shutdown()
            server.server_close()


class TestRecover:
    @pytest.fixture
    def wal(self, campaign_dir, tmp_path):
        """A journal directory holding one campaign with a refresh record."""
        from repro.streaming import CampaignStore, replay_batches

        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal)
        store.create("c1")
        for seq, batch in enumerate(
            replay_batches(load_dataset(campaign_dir), 3), start=1
        ):
            store.ingest("c1", batch, seq=seq)
        store.estimate("c1", refresh=True)
        store.close()
        return wal

    @staticmethod
    def _table(out: str) -> dict[str, list[str]]:
        """The printed table's rows by their first cell, header included."""
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in out.splitlines()
            if "|" in line
        ]
        return {row[0]: row for row in rows}

    def test_table_replays_the_refresh(self, wal, capsys):
        assert main(["recover", "--journal-dir", str(wal)]) == 0
        table = self._table(capsys.readouterr().out)
        assert table["campaign"] == [
            "campaign", "status", "batches", "claims",
            "refreshes", "torn tail", "seconds",
        ]
        assert table["c1"][1:3] == ["recovered", "3"]
        assert table["c1"][4] == "1"

    def test_json_prints_the_reports(self, wal, capsys):
        assert main(["recover", "--journal-dir", str(wal), "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["campaign_id"] == "c1"
        assert report["status"] == "recovered"
        assert (report["batches"], report["refreshes"]) == (3, 1)
        assert "snapshot_hits" not in report

    def test_corrupt_journal_exits_1(self, wal, capsys):
        from repro.streaming.journal import (
            CampaignJournal,
            journal_path,
            refresh_record,
        )

        # A journal that does not open with a create record is corrupt.
        bad = CampaignJournal(journal_path(wal, "bad"))
        bad.append(refresh_record(0))
        bad.close()
        assert main(["recover", "--journal-dir", str(wal)]) == 1
        out = capsys.readouterr().out
        assert "corrupt journal for 'bad'" in out
        table = self._table(out)
        assert table["bad"][1] == "corrupt"
        assert table["c1"][1] == "recovered"


class TestAblationExperiment:
    def test_registered_and_runs(self, capsys):
        from repro.experiments import run_experiment
        from repro.experiments.common import ScalePreset

        tiny = ScalePreset(
            name="tiny",
            n_tasks=20,
            n_workers=12,
            n_copiers=3,
            target_claims=140,
            instances=1,
        )
        result = run_experiment(
            "ablation",
            scale=tiny,
            variants={"default": {}, "literal": {"discounted_posterior": False}},
        )
        assert result.meta["variants"] == ["default", "literal"]
        assert len(result.y("precision")) == 2


class TestRunCache:
    _ARGS = [
        "run", "fig3b",
        "--instances", "1",
        "--no-chart",
    ]

    def test_cached_rerun_bit_identical_and_reports_hits(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        outs = []
        for name in ("cold", "warm"):
            out_dir = tmp_path / name
            code = main(
                [*self._ARGS, "--cache", "--store", store, "--out", str(out_dir)]
            )
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert "0 hits" in outs[0]
        assert "0 misses" in outs[1]
        assert "hit rate 100.0%" in outs[1]
        cold = (tmp_path / "cold" / "fig3b.json").read_text()
        warm = (tmp_path / "warm" / "fig3b.json").read_text()
        assert cold == warm
        assert (tmp_path / "cold" / "fig3b.csv").read_text() == (
            tmp_path / "warm" / "fig3b.csv"
        ).read_text()

    def test_no_cache_prints_no_ledger_line(self, capsys):
        code = main([*self._ARGS])
        assert code == 0
        assert "ledger:" not in capsys.readouterr().out

    def test_timing_experiment_ignores_cache(self, tmp_path, capsys):
        code = main(
            ["run", "fig5a", "--instances", "1", "--no-chart",
             "--cache", "--store", str(tmp_path / "store")]
        )
        assert code == 0
        captured = capsys.readouterr()
        # The diagnostic is a structured JSON log line on stderr now.
        assert "never cached" in captured.err
        assert json.loads(captured.err.splitlines()[0])["logger"] == "repro.cli"
        assert "hit rate" not in captured.out


class TestLedgerCommand:
    def _seed_store(self, tmp_path) -> str:
        store = str(tmp_path / "store")
        assert main(
            ["run", "fig3b", "--instances", "1", "--no-chart",
             "--cache", "--store", store]
        ) == 0
        return store

    def test_list_shows_rows_and_results(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "fig3b" in out
        assert "rows" in out and "results" in out
        assert "instance 0" in out

    def test_list_kind_filter(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "list", "--store", store, "--kind", "rows"]) == 0
        out = capsys.readouterr().out
        assert "instance 0" in out
        assert "| results |" not in out

    def test_show_prints_entry_payload(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "list", "--store", store]) == 0
        listing = capsys.readouterr().out
        prefix = next(
            line.split("|")[0].strip()
            for line in listing.splitlines()
            if "| rows" in line.replace("|    rows", "| rows")
        )
        assert main(["ledger", "show", prefix, "--store", store]) == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "fig3b"
        assert "body" in payload and "key" in payload

    def test_show_unknown_prefix_exits(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        with pytest.raises(SystemExit):
            main(["ledger", "show", "f" * 64, "--store", store])

    def test_gc_requires_scope(self, tmp_path):
        store = self._seed_store(tmp_path)
        with pytest.raises(SystemExit):
            main(["ledger", "gc", "--store", store])

    def test_gc_all_empties_store(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "gc", "--store", store, "--all"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["ledger", "list", "--store", store]) == 0
        assert "0 of 0 entries" in capsys.readouterr().out


class TestScenarioCache:
    def test_scenario_run_cached_rerun(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = [
            "scenario", "run", "lazy-spammers",
            "--instances", "1",
            "--cache", "--store", store,
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 hits" in cold
        assert "hit rate 100.0%" in warm

        def metric_rows(text: str) -> list[str]:
            lines = text.splitlines()
            return [
                line for line in lines
                if line.startswith(("date_", "mv_", "detection_", "n_"))
            ]

        assert metric_rows(cold) == metric_rows(warm)
