import json
import logging
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from helmfosls import cli, problems
from helmfosls.cli import (
    CSV_COLUMNS,
    ConfigError,
    StudyConfig,
    _fmt,
    load_config,
    run_study,
)
from helmfosls.solver import SolverError


def write_config(path, **overrides):
    base = {
        "problem": "piecewise-1d",
        "method": "fosls",
        "k": 10.0,
        "degrees": [1],
        "mesh_sequence": [5, 15],
        "output_dir": str(path.parent / "out"),
        "avoid_node_at_zero": True,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return base


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path)
        cfg = load_config(cfg_path)
        assert cfg.problem == "piecewise-1d"
        assert cfg.degrees == [1]

    def test_unknown_problem(self):
        cfg = StudyConfig(problem="nope", k=1.0, degrees=[1], mesh_sequence=[2])
        with pytest.raises(ConfigError, match="unknown problem"):
            cfg.validate()

    def test_bad_method(self):
        cfg = StudyConfig(problem="piecewise-1d", k=1.0, degrees=[1],
                          mesh_sequence=[2], method="spectral")
        with pytest.raises(ConfigError, match="method"):
            cfg.validate()

    def test_nonpositive_k(self):
        cfg = StudyConfig(problem="piecewise-1d", k=0.0, degrees=[1],
                          mesh_sequence=[2])
        with pytest.raises(ConfigError, match="k"):
            cfg.validate()

    def test_non_numeric_k(self):
        for k in ("2", True, float("nan"), float("inf")):
            cfg = StudyConfig(problem="piecewise-1d", k=k, degrees=[1],
                              mesh_sequence=[2])
            with pytest.raises(ConfigError, match="k"):
                cfg.validate()

    def test_empty_or_bad_degrees(self):
        for degrees in ([], [0], [1.5], [2.0], [True]):
            cfg = StudyConfig(problem="piecewise-1d", k=1.0, degrees=degrees,
                              mesh_sequence=[2])
            with pytest.raises(ConfigError, match="degrees"):
                cfg.validate()

    def test_empty_or_bad_mesh_sequence(self):
        for ns in ([], [0, 3], [1.5], [2.0, 3], [True, 3]):
            cfg = StudyConfig(problem="piecewise-1d", k=1.0, degrees=[1],
                              mesh_sequence=ns)
            with pytest.raises(ConfigError, match="mesh_sequence"):
                cfg.validate()

    def test_non_refining_sequence(self):
        cfg = StudyConfig(problem="piecewise-1d", k=1.0, degrees=[1],
                          mesh_sequence=[4, 4])
        with pytest.raises(ConfigError, match="refining"):
            cfg.validate()

    def test_repeated_degree(self):
        cfg = StudyConfig(problem="piecewise-1d", k=1.0, degrees=[1, 1],
                          mesh_sequence=[4, 8])
        with pytest.raises(ConfigError, match="repeat"):
            cfg.validate()

    def test_avoid_node_at_zero_forces_odd_counts(self):
        cfg = StudyConfig(problem="piecewise-1d", k=1.0, degrees=[1],
                          mesh_sequence=[5, 16], avoid_node_at_zero=True)
        with pytest.raises(ConfigError, match="odd"):
            cfg.validate()
        # fine on the other problem
        cfg2 = StudyConfig(problem="plane-wave-2d", k=1.0, degrees=[1],
                           mesh_sequence=[2, 4], avoid_node_at_zero=True)
        cfg2.validate()

    def test_unknown_field_rejected(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path, typo_field=3)
        with pytest.raises(ConfigError, match="unknown config fields"):
            load_config(cfg_path)

    @pytest.mark.parametrize("field", ["problem", "k", "degrees", "mesh_sequence"])
    def test_missing_required_field_rejected(self, tmp_path, caplog, field):
        cfg_path = tmp_path / "study.json"
        raw = write_config(cfg_path)
        del raw[field]
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"missing config fields: {field}$"):
            load_config(cfg_path)
        assert cli.main(["run", str(cfg_path)]) == 2
        assert f"config error: missing config fields: {field}" in caplog.text

    def test_cli_overrides_win(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path, k=10.0)
        cfg = load_config(cfg_path, overrides={"k": 2.5, "method": "fem"})
        assert cfg.k == 2.5
        assert cfg.method == "fem"


class TestRunStudy:
    def run_small(self, tmp_path, **overrides):
        out = tmp_path / "out"
        cfg = StudyConfig(
            problem="piecewise-1d", method="fosls", k=10.0, degrees=[1],
            mesh_sequence=[5, 15, 45], output_dir=str(out),
            avoid_node_at_zero=True, **overrides,
        )
        table, paths = run_study(cfg)
        return cfg, table, paths

    def test_csv_rows_and_columns(self, tmp_path):
        _, table, paths = self.run_small(tmp_path)
        lines = paths[0].read_text().strip().split("\n")
        assert lines[0].startswith("# generated ")
        assert lines[1] == ",".join(CSV_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        # eoc_l2 appears from the second row of the series onward
        assert rows[0][-1] == ""
        assert rows[1][-1] != "" and rows[2][-1] != ""
        assert all(len(r) == len(CSV_COLUMNS) for r in rows)
        assert rows[0][0] == "piecewise-1d" and rows[0][1] == "fosls"

    def test_reproducible_up_to_timestamp(self, tmp_path):
        _, _, paths1 = self.run_small(tmp_path / "a")
        _, _, paths2 = self.run_small(tmp_path / "b")
        body1 = paths1[0].read_text().split("\n")[1:]
        body2 = paths2[0].read_text().split("\n")[1:]
        assert body1 == body2
        # runs.json: identical up to the stage times
        runs1, runs2 = (json.loads(p[2].read_text()) for p in (paths1, paths2))
        for run in runs1 + runs2:
            del run["seconds"]
        assert runs1 == runs2

    def test_runs_json_follows_csv_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = StudyConfig(problem="piecewise-1d", method="both", k=10.0,
                          degrees=[2, 1], mesh_sequence=[5, 15],
                          output_dir=str(out), avoid_node_at_zero=True)
        table, paths = run_study(cfg)
        assert paths[2] == out / "runs.json"
        rows = [line.split(",") for line in paths[0].read_text().strip().split("\n")[2:]]
        runs = json.loads(paths[2].read_text())
        assert len(runs) == len(rows) == 8
        col = CSV_COLUMNS.index
        for run, row in zip(runs, rows):
            assert [run["method"], str(run["p"]), str(run["n_elems"]), str(run["dofs"])] == [
                row[col("method")], row[col("p")], row[col("n_elems")], row[col("DOF")]]
            assert run["nnz"] > 0 and run["fill"] > 0
            assert 0 < run["min_pivot"] and 0 <= run["relative_residual"] <= 1e-10
            assert set(run["seconds"]) == {"mesh", "spaces", "assembly", "solve", "errors"}
            assert all(t >= 0 for t in run["seconds"].values())
        # each mesh is built once, so the runs on one mesh repeat its time
        mesh_seconds = {}
        for run in runs:
            assert mesh_seconds.setdefault(run["n_elems"], run["seconds"]["mesh"]) == \
                run["seconds"]["mesh"]
        assert len(mesh_seconds) == 2
        # the observability of each run: quadrature drift, kh/p, p/log k
        for run, record in zip(runs, table.rows):
            assert run["quad_drift"] == record.errors.quad_drift
            assert run["kh_over_p"] == 10.0 * record.h / record.p
            assert run["p_over_log_k"] == record.p / math.log(10.0)
        cfg.k, cfg.output_dir = 1.0, str(tmp_path / "k1")
        # p / log k is undefined at k <= 1: null, as the log prints n/a
        assert all(run["p_over_log_k"] is None
                   for run in json.loads(run_study(cfg)[1][2].read_text()))

    def test_method_both_doubles_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = StudyConfig(problem="piecewise-1d", method="both", k=10.0,
                          degrees=[1], mesh_sequence=[5, 15],
                          output_dir=str(out), avoid_node_at_zero=True)
        table, paths = run_study(cfg)
        lines = paths[0].read_text().strip().split("\n")
        assert len(lines) - 2 == 4
        methods = {line.split(",")[1] for line in lines[2:]}
        assert methods == {"fosls", "fem"}

    def test_plot_data_series(self, tmp_path):
        _, table, paths = self.run_small(tmp_path)
        lines = paths[1].read_text().strip().split("\n")
        assert lines[0] == "series,N_lambda,l2_rel"
        assert all(line.startswith("fosls-p1,") for line in lines[1:])
        assert len(lines) == 4

    def test_svg_optional(self, tmp_path):
        cfg, _, paths = self.run_small(tmp_path, svg=True)
        assert paths[-1].suffix == ".svg"
        assert paths[-1].read_text().startswith("<svg")

    def test_fem_rows_have_nan_flux_columns(self, tmp_path):
        out = tmp_path / "out"
        cfg = StudyConfig(problem="piecewise-1d", method="fem", k=10.0,
                          degrees=[1], mesh_sequence=[5, 15],
                          output_dir=str(out), avoid_node_at_zero=True)
        _, paths = run_study(cfg)
        row = paths[0].read_text().strip().split("\n")[2].split(",")
        e1 = row[CSV_COLUMNS.index("e1")]
        assert e1 == "nan"

    def test_float_format_16_digits(self):
        assert _fmt(1 / 3) == "0.3333333333333333"
        assert _fmt(2.0) == "2"

    def test_rows_keep_decreasing_h(self, tmp_path):
        _, table, _ = self.run_small(tmp_path)
        hs = [r.h for r in table.rows]
        assert hs == sorted(hs, reverse=True)

    def test_plane_wave_fem_study(self, tmp_path):
        from oracles import empirical_order
        out = tmp_path / "out"
        cfg = StudyConfig(problem="plane-wave-2d", method="fem", k=2.0,
                          degrees=[1, 2], mesh_sequence=[2, 4, 8],
                          output_dir=str(out))
        table, _ = run_study(cfg)
        assert len(table.rows) == 6
        rates = empirical_order(table)
        for p in (1, 2):
            assert rates[("fem", p)]["tail"] == pytest.approx(p + 1, abs=0.4)


class TestWarnings:
    def test_scale_resolution_warning_fires(self, tmp_path, caplog):
        out = tmp_path / "out"
        cfg = StudyConfig(problem="piecewise-1d", method="fosls", k=10.0,
                          degrees=[1], mesh_sequence=[3, 5],
                          output_dir=str(out), avoid_node_at_zero=True)
        caplog.set_level(logging.WARNING, logger="helmfosls.cli")
        run_study(cfg)
        assert "kh/p" in caplog.text  # kh/p = 10 * (2/3) = 6.7 > 1

    def test_no_warning_when_resolved(self, tmp_path, caplog):
        out = tmp_path / "out"
        cfg = StudyConfig(problem="piecewise-1d", method="fosls", k=1.0,
                          degrees=[2], mesh_sequence=[5, 15],
                          output_dir=str(out), avoid_node_at_zero=True)
        caplog.set_level(logging.WARNING, logger="helmfosls.cli")
        run_study(cfg)
        assert "kh/p" not in caplog.text

    @pytest.mark.parametrize("k,ratio", [(0.5, "n/a"), (1.0, "n/a"), (10.0, "0.869")])
    def test_p_per_log_k_logged_only_where_defined(self, tmp_path, caplog, k, ratio):
        """log k <= 0 at k <= 1, where p / log k means nothing."""
        cfg = StudyConfig(problem="piecewise-1d", method="fosls", k=k,
                          degrees=[2], mesh_sequence=[5],
                          output_dir=str(tmp_path / "out"), avoid_node_at_zero=True)
        caplog.set_level(logging.INFO, logger="helmfosls.cli")
        run_study(cfg)
        assert f"p/log(k)={ratio}" in caplog.text


class TestMainEntryPoint:
    def test_list_problems(self, capsys):
        assert cli.main(["list-problems"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out == ["piecewise-1d", "plane-wave-2d"]
        # ``list-problems`` lists exactly the problems that ``run`` accepts
        assert sorted(cli.MESH_BUILDERS) == problems.list_problems()

    def test_module_form_runs_under_warnings_as_errors(self):
        """``python -W error -m helmfosls.cli`` executes the module once, as
        __main__: importing the package must not import it first."""
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "helmfosls.cli", "list-problems"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["piecewise-1d", "plane-wave-2d"]

    def test_run_success(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path)
        assert cli.main(["run", str(cfg_path)]) == 0
        assert "results.csv" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, caplog):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path, method="bogus")
        assert cli.main(["run", str(cfg_path)]) == 2
        assert "config error" in caplog.text

    def test_unusable_output_dir_exit_code(self, tmp_path, caplog, monkeypatch):
        """An output path that names a file is a config error, found before
        any run is solved."""
        cfg_path = tmp_path / "study.json"
        taken = tmp_path / "taken"
        taken.write_text("")
        write_config(cfg_path, mesh_sequence=[5, 15], degrees=[1, 2])
        calls = []
        monkeypatch.setattr(cli, "solve_case", lambda *args: calls.append(args))
        assert cli.main(["run", str(cfg_path), "--out", str(taken)]) == 2
        assert "config error: cannot create output directory" in caplog.text
        assert "Traceback" not in caplog.text and calls == []

    def test_float_mesh_count_exit_code(self, tmp_path, caplog):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path, mesh_sequence=[5.0, 15])
        assert cli.main(["run", str(cfg_path)]) == 2
        assert "mesh_sequence" in caplog.text

    def test_top_level_list_exit_code(self, tmp_path, caplog):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps([{"problem": "piecewise-1d"}]))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert "JSON object" in caplog.text

    @pytest.mark.parametrize("field,value", [
        ("problem", ["plane-wave-2d"]),
        ("output_dir", 5),
        ("method", ["fosls"]),
        ("svg", "yes"),
        ("avoid_node_at_zero", 1),
    ])
    def test_wrong_json_type_exit_code(self, tmp_path, caplog, field, value):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path, **{field: value})
        assert cli.main(["run", str(cfg_path)]) == 2
        assert field in caplog.text

    def test_missing_config_file(self, tmp_path, caplog):
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
        assert "config error: cannot read config" in caplog.text

    def test_solver_failure_exit_code(self, tmp_path, caplog, monkeypatch):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path)

        def boom(problem, method, mesh, p):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "solve_case", boom)
        assert cli.main(["run", str(cfg_path)]) == 3
        failures = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert [r.getMessage() for r in failures] == ["solver failure: synthetic failure"]
        assert failures[0].exc_info is None and "Traceback" not in caplog.text

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        write_config(cfg_path, method="fosls")
        out2 = tmp_path / "other"
        assert cli.main([
            "run", str(cfg_path), "--method", "fem", "--out", str(out2),
        ]) == 0
        text = (out2 / "results.csv").read_text()
        assert ",fem," in text
