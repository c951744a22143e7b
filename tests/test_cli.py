import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concat_ira as ci
from concat_ira.cli import main


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Construct toy code files once via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    for name, seed in (("outer", 11), ("inner", 12)):
        rc = run_cli(
            "construct", "--k", 8, "--n", 12, "--check-degree", 8,
            "--eta", 0, "--d-ace", 2, "--no-distance-screen",
            "--seed", seed, "--out", root / name,
        )
        assert rc == 0
    return root


class TestConstruct:
    def test_writes_both_files(self, workspace):
        assert (workspace / "outer.alist").exists()
        assert (workspace / "outer.sidecar").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run_cli(
                "construct", "--k", 8, "--n", 12, "--check-degree", 8,
                "--eta", 0, "--d-ace", 2, "--no-distance-screen",
                "--seed", 11, "--out", out,
            ) == 0
        assert (tmp_path / "a.alist").read_bytes() == (tmp_path / "b.alist").read_bytes()
        assert (tmp_path / "a.sidecar").read_bytes() == (tmp_path / "b.sidecar").read_bytes()

    def test_loadable_and_valid(self, workspace):
        code = ci.load_code(workspace / "outer")
        ci.validate_code(code)

    def test_infeasible_parameters_fail_cleanly(self, tmp_path, capsys):
        rc = run_cli(
            "construct", "--k", 8, "--n", 12, "--check-degree", 8,
            "--eta", 1000000, "--max-resample", 4, "--max-restarts", 2,
            "--no-distance-screen", "--seed", 0, "--out", tmp_path / "bad",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAnalyze:
    def test_outputs_csv_and_report(self, workspace, capsys):
        rc = run_cli("analyze", "--code", workspace / "outer", "--out", workspace / "outer_an")
        assert rc == 0
        csv_path = workspace / "outer_an.sensitivity.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "index,count"
        assert len(lines) == 13
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert max(counts) <= 12
        report = (workspace / "outer_an.report.txt").read_text()
        assert "detection runs: 12" in report

    def test_missing_code_errors(self, tmp_path, capsys):
        rc = run_cli("analyze", "--code", tmp_path / "ghost", "--out", tmp_path / "x")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestDesignInterleaver:
    def test_no_pilot_design(self, workspace):
        out = workspace / "designed.perm"
        rc = run_cli(
            "design-interleaver", "--outer", workspace / "outer",
            "--inner", workspace / "inner", "--seed", 5, "--no-pilot",
            "--out", out,
        )
        assert rc == 0
        perm = ci.load_permutation(out)
        assert perm.design_t >= 1
        sets_text = Path(str(out) + ".sets").read_text().strip().split("\n")
        row_nodes = frozenset(int(x) for x in sets_text[0].split()[1:])
        col_nodes = frozenset(int(x) for x in sets_text[1].split()[1:])
        sets = ci.SensitiveSets(row_nodes, col_nodes)
        assert ci.count_bad_mappings(perm, sets).count == 0

    def test_pilot_design(self, workspace, capsys):
        out = workspace / "piloted.perm"
        rc = run_cli(
            "design-interleaver", "--outer", workspace / "outer",
            "--inner", workspace / "inner", "--seed", 5,
            "--candidates", 3, "--pilot-blocks", 4, "--pilot-ebno", 3.0,
            "--schedule", "3x3", "--out", out,
        )
        assert rc == 0
        assert "pilot block errors" in capsys.readouterr().out
        ci.load_permutation(out)


class TestSimulate:
    def make_config(self, workspace, tmp_path, **extra):
        perm = workspace / "sim.perm"
        ci.save_permutation(ci.random_permutation(8, 12, 5), perm)
        config = {
            "system": "concat",
            "outer_code": str(workspace / "outer"),
            "inner_code": str(workspace / "inner"),
            "interleaver": str(perm),
            "schedule": {"outer_iters": 3, "inner_iters": 3},
            "ebno_db": [3.0],
            "min_block_errors": 3,
            "max_blocks": 60,
            "master_seed": 2,
            "output": str(tmp_path / "curve.csv"),
        }
        config.update(extra)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        return path, Path(config["output"])

    def test_runs_and_writes_curve(self, workspace, tmp_path):
        config_path, out = self.make_config(workspace, tmp_path)
        assert run_cli("simulate", "--config", config_path) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("ebno_db,")
        assert len(lines) == 2

    def test_overrides_apply(self, workspace, tmp_path):
        config_path, out = self.make_config(workspace, tmp_path)
        other = tmp_path / "other.csv"
        rc = run_cli(
            "simulate", "--config", config_path, "--ebno", "2.0,3.0",
            "--out", other, "--max-blocks", 30,
        )
        assert rc == 0
        assert len(other.read_text().strip().split("\n")) == 3

    @pytest.mark.parametrize("flag", ["--min-block-errors", "--max-blocks"])
    def test_zero_stop_override_gives_one_error_line(self, workspace, tmp_path, capsys, flag):
        # 0 is refused, not replaced by the config's value
        config_path, out = self.make_config(workspace, tmp_path)
        assert run_cli("simulate", "--config", config_path, flag, 0) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("ebno", [["--ebno", "nan"], ["--ebno=-inf"]], ids=["nan", "-inf"])
    def test_non_finite_ebno_override_gives_one_error_line(self, workspace, tmp_path, capsys, ebno):
        config_path, out = self.make_config(workspace, tmp_path)
        assert run_cli("simulate", "--config", config_path, *ebno) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_non_boolean_config_flag_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, out = self.make_config(workspace, tmp_path, noiseless="false")
        assert run_cli("simulate", "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra", [{"master_seed": 1.5}, {"ebno_db": "35"}, {"output": 5}],
        ids=["float-seed", "string-ebno", "number-output"],
    )
    def test_config_value_of_wrong_json_type_gives_one_error_line(
        self, workspace, tmp_path, capsys, extra
    ):
        config_path, out = self.make_config(workspace, tmp_path)
        config_path.write_text(json.dumps({**json.loads(config_path.read_text()), **extra}))
        assert run_cli("simulate", "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_dir_env_fallback(self, workspace, tmp_path, monkeypatch):
        config_path, out = self.make_config(workspace, tmp_path)
        monkeypatch.setenv("CONCAT_IRA_CONFIG_DIR", str(config_path.parent))
        monkeypatch.chdir(tmp_path.parent)
        assert run_cli("simulate", "--config", config_path.name) == 0

    def test_torn_curve_tail_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, out = self.make_config(workspace, tmp_path)
        out.write_text(ci.bench.CSV_HEADER + "\n2.5,10,3", encoding="utf-8")
        assert run_cli("simulate", "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_config_errors(self, tmp_path, capsys):
        rc = run_cli("simulate", "--config", tmp_path / "none.json")
        assert rc == 1
        assert "not found" in capsys.readouterr().err


class TestReport:
    def test_merges_with_labels(self, workspace, tmp_path):
        config_path, out = TestSimulate().make_config(workspace, tmp_path)
        assert run_cli("simulate", "--config", config_path) == 0
        merged = tmp_path / "merged.csv"
        assert run_cli("report", "--out", merged, out) == 0
        lines = merged.read_text().strip().split("\n")
        assert lines[0].startswith("label,ebno_db,")
        assert lines[1].startswith("curve,")

    def test_rejects_foreign_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        rc = run_cli("report", "--out", tmp_path / "m.csv", bad)
        assert rc == 1
        assert "header" in capsys.readouterr().err


class TestCliContract:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "concat-ira 0.1.0" in out and "alist 1" in out

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("construct", "--bogus", 1)
        assert exc.value.code == 2

    def test_module_entry_point(self):
        # run from the directory the package was imported from, which a bare
        # pytest finds through its pythonpath setting, not the environment
        proc = subprocess.run(
            [sys.executable, "-m", "concat_ira.cli", "--version"],
            capture_output=True, text=True, cwd=Path(ci.__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert "concat-ira" in proc.stdout
