"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_array


def root_node(document):
    """The root's record in a plan document's node list."""
    return document["nodes"][document["plan"]]


class TestParseArray:
    def test_presets(self):
        assert parse_array("hetero").size == 256
        assert parse_array("homo").size == 128

    def test_explicit_spec(self):
        array = parse_array("tpu-v2:3,tpu-v3:5")
        assert dict(array.signature()) == {"tpu-v2": 3, "tpu-v3": 5}

    def test_unknown_accelerator(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_array("gpu:4")

    def test_bad_count(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_array("tpu-v2:lots")

    def test_missing_colon(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_array("tpu-v2")

    def test_board_cap_sums_components(self):
        import argparse

        from repro.hardware.presets import MAX_BOARDS

        assert parse_array(f"tpu-v2:{MAX_BOARDS}").size == MAX_BOARDS
        half = MAX_BOARDS // 2
        with pytest.raises(argparse.ArgumentTypeError, match=str(MAX_BOARDS)):
            parse_array(f"tpu-v2:{half},tpu-v3:{half + 1}")
        # refused before a billion-member tuple is built
        with pytest.raises(argparse.ArgumentTypeError, match=str(MAX_BOARDS)):
            parse_array("tpu-v2:1000000000")


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "lenet" in out and "resnet50" in out

    def test_describe(self, capsys):
        assert main(["describe", "--model", "lenet", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "cv1" in out and "weighted layers" in out

    def test_plan_prints_assignments(self, capsys):
        code = main(["plan", "--model", "lenet",
                     "--array", "tpu-v2:2,tpu-v3:2", "--batch", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha=" in out
        assert "hierarchy levels: 2" in out

    def test_plan_with_breakdown_and_out(self, capsys, tmp_path):
        out_file = tmp_path / "plan.json"
        code = main(["plan", "--model", "lenet",
                     "--array", "tpu-v3:4", "--batch", "32",
                     "--breakdown", "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost breakdown" in out.lower()
        document = json.loads(out_file.read_text())
        assert document["network"] == "lenet"

    def test_simulate_from_plan_file(self, capsys, tmp_path):
        out_file = tmp_path / "plan.json"
        main(["plan", "--model", "lenet", "--array", "tpu-v3:4",
              "--batch", "32", "--out", str(out_file)])
        capsys.readouterr()
        assert main(["simulate", "--plan", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_trident_plan_file_reads_back(self, capsys, tmp_path):
        # the network names itself by its registry key, so every command
        # that reads a plan file can rebuild it
        out_file = tmp_path / "trident.json"
        assert main(["plan", "--model", "trident", "--array",
                     "tpu-v2:2,tpu-v3:2", "--batch", "32",
                     "--out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["network"] == "trident"
        assert main(["plan-diff", str(out_file), str(out_file)]) == 0
        assert main(["simulate", "--plan", str(out_file)]) == 0
        assert "plan error" not in capsys.readouterr().err

    def test_simulate_inline(self, capsys):
        code = main(["simulate", "--model", "lenet", "--scheme", "dp",
                     "--array", "tpu-v2:2", "--batch", "32"])
        assert code == 0
        assert "lenet / dp" in capsys.readouterr().out

    def test_simulate_without_inputs_fails(self, capsys):
        assert main(["simulate"]) == 2

    def test_sweep(self, capsys):
        code = main(["sweep", "--models", "lenet",
                     "--array", "tpu-v2:2,tpu-v3:2", "--batch", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AccPar" in out and "geomean" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["fly"])

    def test_scheme_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["plan", "--model", "lenet", "--scheme", "magic"])


class TestValidateCommand:
    def test_valid_plan_passes(self, capsys, tmp_path):
        out_file = tmp_path / "plan.json"
        main(["plan", "--model", "lenet", "--array", "tpu-v3:4",
              "--batch", "32", "--out", str(out_file)])
        capsys.readouterr()
        assert main(["validate", "--plan", str(out_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupted_plan_fails(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "plan.json"
        main(["plan", "--model", "lenet", "--array", "tpu-v3:4",
              "--batch", "32", "--out", str(out_file)])
        document = json.loads(out_file.read_text())
        root = root_node(document)
        root["entries"] = [
            e for e in root["entries"] if e.get("layer") != "cv1"
        ]
        out_file.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["validate", "--plan", str(out_file)]) == 1
        assert "cv1" in capsys.readouterr().out


class TestMalformedPlanFiles:
    """A plan file the CLI cannot use gets one ``plan error:`` line on
    stderr and exit code 2, never a traceback."""

    @pytest.fixture
    def plan_file(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        main(["plan", "--model", "lenet", "--array", "tpu-v3:4",
              "--batch", "32", "--out", str(path)])
        capsys.readouterr()
        return path

    @staticmethod
    def edit(path, change):
        document = json.loads(path.read_text())
        change(document)
        path.write_text(json.dumps(document))

    @staticmethod
    def commands(path, good):
        return [["simulate", "--plan", str(path)],
                ["validate", "--plan", str(path)],
                ["plan-diff", str(good), str(path)],
                ["plan-diff", str(path), str(good)]]

    def assert_plan_error(self, capsys, argv, *needles):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("plan error: "), lines
        assert "Traceback" not in captured.err + captured.out
        for needle in needles:
            assert needle in lines[0]

    def test_ratio_out_of_range(self, capsys, plan_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(plan_file.read_text())
        self.edit(bad, lambda d: root_node(d)["entries"][0].update(alpha=1.5))
        for argv in self.commands(bad, plan_file):
            self.assert_plan_error(capsys, argv, "1.5", "(0, 1)")

    def test_unknown_model(self, capsys, plan_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(plan_file.read_text())
        self.edit(bad, lambda d: d.update(network="lenet-9000"))
        for argv in self.commands(bad, plan_file):
            self.assert_plan_error(capsys, argv, "unknown model 'lenet-9000'")

    @pytest.mark.parametrize("field", ["batch", "dtype_bytes"])
    @pytest.mark.parametrize("value", [0, -1, 1.5, "x", None, True])
    def test_bad_size_field(self, capsys, plan_file, tmp_path, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(plan_file.read_text())
        self.edit(bad, lambda d: d.update({field: value}))
        for argv in self.commands(bad, plan_file):
            self.assert_plan_error(capsys, argv, f"plan {field} {value!r} ",
                                   "not a positive integer")

    def test_unreadable_file(self, capsys, plan_file, tmp_path):
        missing = tmp_path / "missing.json"
        for argv in self.commands(missing, plan_file):
            self.assert_plan_error(capsys, argv, "cannot read")

    def test_not_json(self, capsys, plan_file, tmp_path):
        text = tmp_path / "notes.json"
        text.write_text("this is not a plan\n")
        for argv in self.commands(text, plan_file):
            self.assert_plan_error(capsys, argv, "not a JSON document")

    def test_simulate_refuses_a_plan_it_cannot_shard(self, capsys, plan_file):
        self.edit(plan_file, lambda d: root_node(d).update(entries=[
            e for e in root_node(d)["entries"] if e.get("layer") != "cv1"]))
        issue = "root: layers without assignment: ['cv1']"
        assert main(["validate", "--plan", str(plan_file)]) == 1
        assert f"  - {issue}" in capsys.readouterr().out
        self.assert_plan_error(capsys, ["simulate", "--plan", str(plan_file)])
        # the same wording validate prints
        assert main(["simulate", "--plan", str(plan_file)]) == 2
        assert capsys.readouterr().err == f"plan error: {issue}\n"


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        code = main(["report", "--model", "lenet",
                     "--array", "tpu-v2:2,tpu-v3:2", "--batch", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# lenet" in out
        assert "Root-level plan" in out
        assert "Per-level communication" in out

    def test_report_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.md"
        code = main(["report", "--model", "lenet", "--array", "tpu-v3:4",
                     "--batch", "32", "--out", str(out_file)])
        assert code == 0
        assert "simulated iteration" in out_file.read_text()

    def test_report_with_what_if(self, capsys):
        code = main(["report", "--model", "lenet", "--array", "tpu-v3:4",
                     "--batch", "32", "--what-if"])
        assert code == 0
        assert "Layer-type sensitivity" in capsys.readouterr().out


class TestFigureCommand:
    @pytest.mark.parametrize("which", ["fig5", "fig6", "fig7", "fig8"])
    def test_figure_dispatch(self, which, capsys, monkeypatch):
        """The figure subcommand routes to the right generator (full-size
        generators are monkeypatched to keep the test fast)."""
        import repro.cli as cli
        from repro.experiments.harness import SpeedupTable

        table = SpeedupTable(models=["m"], schemes=["dp", "accpar"])
        table.times = {"m": {"dp": 2.0, "accpar": 1.0}}

        class FakeRendered:
            def rendered(self):
                return f"rendered-{which}"

        monkeypatch.setattr(cli, "figure5_heterogeneous", lambda: table)
        monkeypatch.setattr(cli, "figure6_homogeneous", lambda: table)
        monkeypatch.setattr(cli, "figure7_alexnet_types", lambda: FakeRendered())
        monkeypatch.setattr(cli, "figure8_hierarchy_sweep", lambda: FakeRendered())

        assert main(["figure", "--which", which]) == 0
        out = capsys.readouterr().out
        assert out.strip()


class TestServiceCommands:
    def test_warm_then_serve_hits_cache(self, capsys, tmp_path, monkeypatch):
        import io

        cache_dir = str(tmp_path / "cache")
        code = main(["warm", "--models", "lenet,alexnet",
                     "--array", "tpu-v2:2,tpu-v3:2", "--batch", "32",
                     "--cache-dir", cache_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 on disk" in out

        request = json.dumps({"model": "lenet", "array": "tpu-v2:2,tpu-v3:2",
                              "batch": 32})
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        response = json.loads(out.splitlines()[0])
        assert response["ok"] and response["cache_hit"]
        assert response["source"] == "disk"

    def test_serve_without_persistence(self, capsys, monkeypatch):
        import io

        lines = "\n".join([
            json.dumps({"model": "lenet", "array": "tpu-v3:2", "batch": 32}),
            json.dumps({"model": "lenet", "array": "tpu-v3:2", "batch": 32}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve", "--cache-dir", ""]) == 0
        first, second = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert not first["cache_hit"]
        assert second["cache_hit"] and second["source"] == "memory"

    def test_service_stats_reports_entries(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(["warm", "--models", "lenet", "--array", "tpu-v3:2",
              "--batch", "32", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["service-stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "1 plan(s)" in out
        assert "lenet" in out
        assert "last session" in out

    def test_service_stats_missing_dir(self, capsys, tmp_path):
        assert main(["service-stats", "--cache-dir",
                     str(tmp_path / "nope")]) == 0
        assert "no cache directory" in capsys.readouterr().out

    def test_warm_empty_models_errors(self, capsys):
        assert main(["warm", "--models", " , ", "--array", "tpu-v3:2"]) == 2


class TestCalibrateCommand:
    """The full CLI loop: simulate -> export -> calibrate -> replan."""

    def _export(self, tmp_path, capsys):
        telemetry_dir = str(tmp_path / "telemetry")
        export_path = str(tmp_path / "cal.json")
        assert main(["simulate", "--model", "alexnet",
                     "--array", "tpu-v2:2,tpu-v3:2", "--batch", "64",
                     "--telemetry-dir", telemetry_dir]) == 0
        assert main(["telemetry", "export", "--calibration",
                     "--dir", telemetry_dir, "--out", export_path]) == 0
        capsys.readouterr()
        return export_path

    def test_calibrate_writes_profile(self, capsys, tmp_path):
        export_path = self._export(tmp_path, capsys)
        profile_path = str(tmp_path / "profile.json")
        assert main(["calibrate", export_path, "--out", profile_path]) == 0
        out = capsys.readouterr().out
        assert "written to" in out and "tpu-v2" in out and "tpu-v3" in out

        from repro.hardware.profile import load_profile
        profile = load_profile(profile_path)
        assert profile.spec_names() == ("tpu-v2", "tpu-v3")

    def test_replan_with_fitted_profile(self, capsys, tmp_path):
        export_path = self._export(tmp_path, capsys)
        profile_path = str(tmp_path / "profile.json")
        main(["calibrate", export_path, "--out", profile_path])
        capsys.readouterr()
        assert main(["plan", "--model", "alexnet",
                     "--array", "tpu-v2:2,tpu-v3:2",
                     "--profile", profile_path]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out and "calibrated: tpu-v2, tpu-v3" in out

    def test_missing_export_file(self, capsys, tmp_path):
        assert main(["calibrate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "p.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_export_schema(self, capsys, tmp_path):
        export_path = tmp_path / "bad.json"
        export_path.write_text(json.dumps({"schema": "nope"}))
        assert main(["calibrate", str(export_path),
                     "--out", str(tmp_path / "p.json")]) == 1
        assert "calibration failed" in capsys.readouterr().err

    def test_profile_array_mismatch_is_clear_usage_error(self, capsys,
                                                         tmp_path):
        from repro.hardware.profile import (
            CalibratedProfile, SpecProfile, save_profile,
        )

        profile_path = str(tmp_path / "v3only.json")
        save_profile(CalibratedProfile(name="v3only", specs=(
            SpecProfile(spec="tpu-v3", compute_rates=(("default", 2e14),)),
        )), profile_path)
        code = main(["plan", "--model", "lenet",
                     "--array", "tpu-v2:2,tpu-v3:2",
                     "--profile", profile_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "profile error" in err
        assert "tpu-v2" in err and "covered: tpu-v3" in err

    def test_analytic_profile_name_is_default(self, capsys):
        assert main(["plan", "--model", "lenet", "--array", "tpu-v3:2",
                     "--profile", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "profile:" not in out  # analytic IS the default; not echoed


class TestProfileCommand:
    def test_profile_prints_table_and_writes_trace(self, capsys, tmp_path):
        from repro.obs.export import REQUIRED_EVENT_KEYS
        from repro.obs.tracing import current_participant

        trace = tmp_path / "trace.json"
        code = main(["profile", "lenet", "--array", "tpu-v2:2,tpu-v3:2",
                     "--batch", "32", "--out", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "planner profile (lenet)" in out
        assert "dp.pack" in out and "dp.recurrence" in out
        assert "ratio.solve" in out
        assert "planner trace written" in out

        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        assert events
        for key in REQUIRED_EVENT_KEYS:
            assert all(key in event for event in events), key
        assert {e["name"] for e in events} >= {"hierarchy.plan", "dp.search"}
        # the profiling run's participant does not outlive it
        assert current_participant() is None

    def test_profile_emits_both_traces(self, capsys, tmp_path):
        planner_trace = tmp_path / "planner.json"
        sim_trace = tmp_path / "sim.json"
        code = main(["profile", "lenet", "--array", "tpu-v3:4",
                     "--batch", "32", "--out", str(planner_trace),
                     "--sim-trace", str(sim_trace)])
        assert code == 0
        assert json.loads(planner_trace.read_text())["traceEvents"]
        assert json.loads(sim_trace.read_text())["traceEvents"]
        assert "simulated-iteration trace" in capsys.readouterr().out

    def test_simulate_trace_flag(self, capsys, tmp_path):
        trace = tmp_path / "sim.json"
        code = main(["simulate", "--model", "lenet", "--array", "tpu-v3:2",
                     "--batch", "32", "--trace", str(trace)])
        assert code == 0
        assert json.loads(trace.read_text())["traceEvents"]
        assert "critical-path trace" in capsys.readouterr().out


class TestServiceStatsFormats:
    def _warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["warm", "--models", "lenet", "--array", "tpu-v3:2",
              "--batch", "32", "--cache-dir", cache_dir])
        capsys.readouterr()
        return cache_dir

    def test_json_format(self, capsys, tmp_path):
        cache_dir = self._warm(tmp_path, capsys)
        assert main(["service-stats", "--cache-dir", cache_dir,
                     "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["metrics"]["counters"]["planner_runs"] >= 1
        assert "cache" in snapshot and "planner" in snapshot

    def test_prometheus_format(self, capsys, tmp_path):
        cache_dir = self._warm(tmp_path, capsys)
        assert main(["service-stats", "--cache-dir", cache_dir,
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out
        assert "repro_service_planner_runs_total 1" in out
        # both former metric islands surface in one exposition
        assert "repro_planner_step_calls_total" in out
        assert "repro_cache_" in out

    def test_prometheus_without_snapshot_is_all_zero_defaults(
            self, capsys, tmp_path):
        assert main(["service-stats", "--cache-dir", str(tmp_path / "nope"),
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_service_requests_total 0" in out
        assert "repro_planner_step_calls_total 0" in out

    def test_format_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["service-stats", "--format", "xml"])


class TestBackendOption:
    def test_plan_with_greedy_backend(self, capsys, tmp_path):
        out_file = tmp_path / "plan.json"
        code = main(["plan", "--model", "lenet", "--array", "tpu-v2:2,tpu-v3:2",
                     "--batch", "32", "--backend", "greedy",
                     "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()

    def test_unknown_backend_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["plan", "--model", "lenet", "--array", "tpu-v3:4",
                  "--backend", "quantum"])

    def test_backend_changes_decisions(self, capsys, tmp_path):
        a = tmp_path / "dp.json"
        b = tmp_path / "greedy.json"
        common = ["--model", "alexnet", "--array", "tpu-v2:2,tpu-v3:2",
                  "--batch", "64"]
        main(["plan", *common, "--out", str(a)])
        main(["plan", *common, "--backend", "greedy", "--out", str(b)])
        capsys.readouterr()
        assert main(["plan-diff", str(a), str(b)]) == 1
        assert "difference" in capsys.readouterr().out


class TestPlanDiffCommand:
    def _plan(self, tmp_path, name, **extra):
        out_file = tmp_path / f"{name}.json"
        args = ["plan", "--model", "lenet", "--array", "tpu-v3:4",
                "--batch", "32", "--out", str(out_file)]
        for flag, value in extra.items():
            args += [f"--{flag}", value]
        assert main(args) == 0
        return out_file

    def test_identical_plans_exit_zero(self, capsys, tmp_path):
        a = self._plan(tmp_path, "a")
        b = self._plan(tmp_path, "b")
        capsys.readouterr()
        assert main(["plan-diff", str(a), str(b)]) == 0
        assert "identical decisions" in capsys.readouterr().out

    def test_differing_plans_exit_one_and_list_diffs(self, capsys, tmp_path):
        a = self._plan(tmp_path, "a")
        b = self._plan(tmp_path, "b", scheme="dp")
        capsys.readouterr()
        assert main(["plan-diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "[type]" in out or "[alpha]" in out

    def test_rel_tol_flag(self, capsys, tmp_path):
        a = self._plan(tmp_path, "a")
        b = self._plan(tmp_path, "b", scheme="dp")
        capsys.readouterr()
        # an absurdly loose tolerance silences alpha diffs but not type diffs;
        # the command still reports the decision-level verdict
        code = main(["plan-diff", str(a), str(b), "--rel-tol", "0.5"])
        assert code in (0, 1)


class TestTelemetryCommands:
    SIMULATE = ["simulate", "--model", "lenet", "--array",
                "tpu-v2:2,tpu-v3:2", "--batch", "32"]

    def _store(self, tmp_path):
        store = tmp_path / "telemetry"
        assert main([*self.SIMULATE, "--telemetry-dir", str(store)]) == 0
        return store

    def test_env_var_is_the_default_telemetry_dir(self, tmp_path,
                                                  monkeypatch):
        from repro.obs.telemetry import summarize

        flag = self._store(tmp_path)
        env = tmp_path / "env"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(env))
        assert main(self.SIMULATE) == 0
        assert summarize(env)["by_type"] == summarize(flag)["by_type"]

    def test_simulate_writes_telemetry(self, capsys, tmp_path):
        store = self._store(tmp_path)
        capsys.readouterr()
        from repro.obs.telemetry import segment_paths

        assert segment_paths(store)

    def test_summary(self, capsys, tmp_path):
        store = self._store(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "summary", "--dir", str(store)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["events"] > 0
        assert document["by_type"]["op_timing"] > 0
        assert document["by_type"]["search"] == 1

    def test_summary_counts_a_nested_line_as_corrupt(self, capsys, tmp_path):
        from repro.obs.telemetry import TelemetryWriter

        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "request", "i": 0})
            writer.record({"type": "request", "i": 1})
            path = writer.segment_path
        first, second = path.read_text().splitlines()
        nested = "[" * 100000 + "]" * 100000
        path.write_text(f"{first}\n{nested}\n{second}\n")
        assert main(["telemetry", "summary", "--dir", str(tmp_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["events"] == 2
        assert document["corrupt_lines"] == 1

    def test_tail_with_type_filter(self, capsys, tmp_path):
        store = self._store(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "tail", "--dir", str(store),
                     "-n", "3", "--type", "op_timing"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert json.loads(line)["type"] == "op_timing"

    def test_export_calibration(self, capsys, tmp_path):
        store = self._store(tmp_path)
        out_file = tmp_path / "calibration.json"
        capsys.readouterr()
        assert main(["telemetry", "export", "--calibration",
                     "--dir", str(store), "--out", str(out_file)]) == 0
        document = json.loads(out_file.read_text())
        assert document["schema"].startswith("repro.telemetry.calibration")
        # at least one per-op series per accelerator spec in the array
        for spec in ("tpu-v2", "tpu-v3"):
            assert document["hardware"].get(spec), spec

    def test_export_raw_events(self, capsys, tmp_path):
        store = self._store(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "export", "--dir", str(store)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["corrupt_lines"] == 0
        assert len(document["events"]) > 0

    def test_missing_dir_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        assert main(["telemetry", "summary"]) == 2

    def test_env_var_is_the_default_dir(self, capsys, tmp_path, monkeypatch):
        store = self._store(tmp_path)
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(store))
        capsys.readouterr()
        assert main(["telemetry", "summary"]) == 0
        assert json.loads(capsys.readouterr().out)["events"] > 0


class TestTopDashboard:
    def _stats(self, requests=10):
        return {
            "frontend": {
                "metrics": {"counters": {"requests": requests,
                                         "failovers": 1}},
                "queue_depth": 0,
                "slo": {"attainment": 0.95, "objective": 0.9,
                        "latency_target_ms": 100.0,
                        "deadline_attainment": 1.0,
                        "error_budget_remaining": 0.5,
                        "burn_rate_fast": 0.5, "burn_rate_slow": 0.1},
                "health": {"shards": {"0": {"up": True}, "1": {"up": False}}},
                "tracer": {"spans_started": 5, "spans_dropped": 0,
                           "buffer_len": 2, "max_spans": 200000},
            },
            "shards": {
                "0": {"metrics": {
                    "counters": {"requests": requests, "hits_memory": 4},
                    "histograms": {"request_latency_s": {
                        "p50": 0.010, "p95": 0.050, "p99": 0.100}}},
                    "slo": {"burn_rate_fast": 0.25}},
                "1": None,
            },
        }

    def test_render_dashboard_contents(self):
        from repro.obs.top import render_dashboard

        text = render_dashboard(self._stats())
        assert "fleet slo" in text
        assert "attainment          95.0%" in text
        assert "burn rate           fast 0.50x / slow 0.10x" in text
        assert "DOWN" in text  # shard 1 is down
        assert "10.0" in text  # shard 0 p50 in ms

    def test_render_dashboard_qps_delta(self):
        from repro.obs.top import render_dashboard

        text = render_dashboard(self._stats(requests=30),
                                previous=self._stats(requests=10),
                                interval_s=2.0)
        assert "10.0" in text  # (30-10)/2 QPS

    def test_run_top_against_live_fleet(self, capsys):
        import io

        from repro.fleet import FleetFrontend, ShardSupervisor
        from repro.obs.top import run_top

        supervisor = ShardSupervisor(2, cache_dir=None, mode="thread")
        with supervisor:
            frontend = FleetFrontend(supervisor.handles, port=0)
            with frontend:
                buffer = io.StringIO()
                code = run_top(frontend.host, frontend.port,
                               interval_s=0.01, iterations=2, out=buffer)
        assert code == 0
        assert "repro top" in buffer.getvalue()
        assert "2 shard(s)" in buffer.getvalue()
