"""Tests for the experiment registry and CLI (repro.experiments)."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.registry import REGISTRY, get_experiment
from repro.experiments.scale import PAPER, SMALL, get_scale


class TestRegistry:
    def test_every_design_md_figure_is_registered(self):
        # The experiment index of DESIGN.md §3: figures + ablations.
        figures = {
            "fig3",
            "fig5",
            "fig6",
            "fig7a",
            "fig7b",
            "fig7b-flat",
            "fig8",
            "fig9",
            "fig10",
        }
        ablations = {
            "ablation-ttl",
            "ablation-fanout",
            "ablation-phase",
            "ablation-guards",
            "ablation-empirical",
        }
        drills = {"drill", "service-drill"}
        assert set(REGISTRY) == figures | ablations | drills

    def test_scale_flag_matches_runner_signature(self):
        for entry in REGISTRY.values():
            import inspect

            params = inspect.signature(entry.runner).parameters
            assert ("scale" in params) == entry.takes_scale, entry.id

    def test_entries_have_descriptions_and_runners(self):
        for entry in REGISTRY.values():
            assert entry.description
            assert callable(entry.runner)

    def test_lookup(self):
        assert get_experiment("fig6").id == "fig6"
        with pytest.raises(KeyError):
            get_experiment("fig99")


class TestScalePresets:
    def test_lookup_by_name(self):
        assert get_scale("small") is SMALL
        assert get_scale("paper") is PAPER

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale() is PAPER
        monkeypatch.delenv("REPRO_SCALE")
        assert get_scale() is SMALL

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scale("huge")

    def test_paper_preset_matches_paper_numbers(self):
        assert PAPER.fig6_n == 100
        assert PAPER.fig7a_n == 500
        assert PAPER.fig7b_sizes[-1] == 10000
        assert PAPER.sweep_rates == (0.0, 0.01, 0.05, 0.10)


class TestCli:
    def test_fig3_runs_and_prints(self, capsys):
        assert main(["fig3"]) == 0
        output = capsys.readouterr().out
        assert "fig3" in output
        assert "c=2" in output

    def test_fig5_runs(self, capsys):
        assert main(["fig5"]) == 0
        assert "statistic" in capsys.readouterr().out

    def test_unknown_experiment_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["figZZ"])

    def test_scale_flag_parsed(self, capsys):
        # fig3 ignores scale, but the flag must parse.
        assert main(["fig3", "--scale", "small"]) == 0

    @pytest.mark.parametrize("experiment", ["fig3", "ablation-guards"])
    def test_seed_rejected_by_a_runner_without_one(self, experiment, capsys):
        assert main([experiment, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert f"experiment {experiment!r} does not take --seed" in err

    def test_seed_forwarded_to_a_runner_with_one(self, capsys):
        assert main(["fig6", "--seed", "1"]) == 0
        assert "global clock" in capsys.readouterr().out


class TestFaultScenarioFlag:
    def scenario_file(self, tmp_path):
        from repro.faults.schedule import CrashNodes, FaultSchedule

        path = tmp_path / "scenario.json"
        schedule = FaultSchedule(
            [CrashNodes(at_round=3, nodes=(1,), recover_after=1)]
        )
        path.write_text(schedule.to_json())
        return path

    def test_drill_accepts_scenario_file(self, tmp_path, capsys):
        assert main(["drill", "--fault-scenario", str(self.scenario_file(tmp_path))]) == 0
        output = capsys.readouterr().out
        assert "actions=1" in output
        assert "safety:" in output
        assert "timeline:" in output

    def test_non_fault_experiment_rejects_scenario_file(self, tmp_path, capsys):
        code = main(["fig3", "--fault-scenario", str(self.scenario_file(tmp_path))])
        assert code == 2
        assert "does not take --fault-scenario" in capsys.readouterr().err


class TestSyncFlag:
    def patched_drill(self, monkeypatch, result):
        """Swap the drill runner for a stub returning *result*."""
        import dataclasses

        from repro.experiments import registry

        captured = {}

        def runner(**kwargs):
            captured.update(kwargs)
            return result

        entry = dataclasses.replace(registry.REGISTRY["drill"], runner=runner)
        monkeypatch.setitem(registry.REGISTRY, "drill", entry)
        return captured

    def test_non_sync_experiment_rejects_sync(self, capsys):
        assert main(["fig3", "--sync"]) == 2
        assert "does not take --sync" in capsys.readouterr().err

    def test_sync_flag_forwarded_to_the_runner(self, monkeypatch, capsys):
        class Result:
            exit_ok = True

            def render(self):
                return "stub"

        captured = self.patched_drill(monkeypatch, Result())
        assert main(["drill", "--sync"]) == 0
        assert captured.get("sync") is True
        captured.clear()
        assert main(["drill"]) == 0
        assert "sync" not in captured

    def test_failed_verdict_exits_nonzero(self, monkeypatch, capsys):
        class Result:
            exit_ok = False

            def render(self):
                return "verdict: FAILED"

        self.patched_drill(monkeypatch, Result())
        assert main(["drill", "--sync"]) == 1
        assert "verdict: FAILED" in capsys.readouterr().out
