"""Tests for the ``python -m repro.experiments`` command-line interface."""

import pytest

from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.__main__ import _ANALYTICAL, build_parser, main
from repro.experiments.campaign import (
    ResultCache,
    RunTask,
    SchemeSpec,
    TopologySpec,
)
from repro.experiments.runner import ExperimentResult, ExperimentRow


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig12"])
        assert args.experiments == ["fig12"]
        assert args.preset == "quick"
        assert args.output is None
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False
        assert args.progress is False
        assert args.backend == "auto"
        assert args.trace is None
        assert args.profile is False

    def test_preset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig12", "--preset", "huge"])

    def test_backend_choices(self):
        for backend in ("auto", "slotted", "event"):
            args = build_parser().parse_args(["fig3", "--backend", backend])
            assert args.backend == backend
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--backend", "quantum"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--backend", "batched"])

    def test_campaign_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["all", "--jobs", "8", "--cache-dir", str(tmp_path), "--no-cache"]
        )
        assert args.experiments == ["all"]
        assert args.jobs == 8
        assert str(args.cache_dir) == str(tmp_path)
        assert args.no_cache is True


def _stub_runner(name):
    def runner(config, executor=None):
        assert executor is not None, "CLI must inject the campaign executor"
        return ExperimentResult(
            name=name,
            description=f"stub for {name}",
            columns=("value",),
            rows=(ExperimentRow(label="row", values={"value": 1.0}),),
        )
    return runner


class TestAllSubcommand:
    @pytest.fixture
    def stubbed_registry(self, monkeypatch):
        """Replace every simulation runner with an instant stub."""
        for name in EXPERIMENT_REGISTRY:
            if name not in _ANALYTICAL:
                monkeypatch.setitem(EXPERIMENT_REGISTRY, name, _stub_runner(name))
        return EXPERIMENT_REGISTRY

    def test_all_runs_every_experiment(self, stubbed_registry, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for name in stubbed_registry:
            assert f"[{name} regenerated in" in out
        # 'all' preserves the registry's presentation order (table1 first).
        positions = [out.index(f"[{name} regenerated") for name in stubbed_registry]
        assert positions == sorted(positions)

    def test_unknown_id_rejected_even_with_all(self, stubbed_registry, capsys):
        with pytest.raises(SystemExit):
            main(["fig99", "all"])
        assert "unknown experiment id(s): fig99" in capsys.readouterr().err

    def test_all_with_jobs_and_cache_flags(self, stubbed_registry, tmp_path, capsys):
        assert main(["all", "--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
        assert "regenerated" in capsys.readouterr().out

    def test_cache_dir_pointing_at_file_rejected(self, tmp_path, capsys):
        target = tmp_path / "not-a-dir"
        target.write_text("x", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["fig12", "--cache-dir", str(target)])
        assert "is not a directory" in capsys.readouterr().err


class TestBackendFlag:
    def test_backend_flag_reaches_executor(self, monkeypatch, capsys):
        seen = {}

        def runner(config, executor=None):
            seen["backend"] = executor.backend
            return _stub_runner("fig3")(config, executor=executor)

        monkeypatch.setitem(EXPERIMENT_REGISTRY, "fig3", runner)
        assert main(["fig3", "--backend", "event"]) == 0
        assert seen["backend"] == "event"
        assert main(["fig3"]) == 0
        assert seen["backend"] == "auto"


class TestCacheFlags:
    def test_no_cache_ignores_cache_dir(self, monkeypatch, tmp_path, capsys):
        """A cell cached under --cache-dir is simulated again with --no-cache."""
        task = RunTask(scheme=SchemeSpec.make("standard-802.11"),
                       topology=TopologySpec.connected(4), seed=1,
                       duration=0.2, warmup=0.05)
        executed = []

        def runner(config, executor=None):
            executor.run([task])
            executed.append(executor.last_run_stats.executed)
            return _stub_runner("fig3")(config, executor=executor)

        monkeypatch.setitem(EXPERIMENT_REGISTRY, "fig3", runner)
        assert main(["fig3", "--cache-dir", str(tmp_path)]) == 0
        assert len(ResultCache(tmp_path)) == 1
        assert main(["fig3", "--cache-dir", str(tmp_path), "--no-cache"]) == 0
        assert executed == [1, 1]


class TestMain:
    def test_list_prints_all_ids(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENT_REGISTRY)

    def test_runs_analytical_experiment(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "regenerated in" in out

    def test_writes_output_file(self, tmp_path, capsys):
        assert main(["table1", "--output", str(tmp_path)]) == 0
        written = (tmp_path / "table1.txt").read_text()
        assert "Table I" in written

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_no_experiments_rejected(self):
        with pytest.raises(SystemExit):
            main([])
