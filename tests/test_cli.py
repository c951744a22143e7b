import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concat_ira as ci
from concat_ira import cli
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

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--max-restarts", 0, "max_restarts must be >= 1, got 0"),
         ("--seed", -1, "seed must be >= 0, got -1")],
        ids=["max-restarts-0", "seed-negative"],
    )
    def test_bad_restart_arguments_give_one_error_line(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        def default_rng(*args):
            raise RuntimeError("a restart generator was made")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        rc = run_cli(
            "construct", "--k", 128, "--n", 181, flag, value, "--out", tmp_path / "code",
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


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

    def test_paper_code_outputs_are_pinned(self, paper_outer, tmp_path):
        ci.save_code(paper_outer, tmp_path / "outer")
        assert run_cli("analyze", "--code", tmp_path / "outer", "--out", tmp_path / "an") == 0
        digests = {
            suffix: hashlib.sha256((tmp_path / f"an{suffix}").read_bytes()).hexdigest()
            for suffix in (".sensitivity.csv", ".report.txt")
        }
        assert digests == {
            ".sensitivity.csv": "cc81ae76819e5c083de446ee4b7204b005d9ac5457fe444fd364fc852f80daa0",
            ".report.txt": "5f0d8730528807cca2d4104f9c048f03f3f7d5287492d4a31b953872314debd5",
        }

    def test_missing_code_errors(self, tmp_path, capsys):
        rc = run_cli("analyze", "--code", tmp_path / "ghost", "--out", tmp_path / "x")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestDesignInterleaver:
    def test_no_pilot_design(self, workspace):
        out = workspace / "designed.perm"
        rc = run_cli(
            "design-interleaver", "--outer", workspace / "outer",
            "--inner", workspace / "inner", "--seed", 5, "--candidates", 1,
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

    @pytest.mark.parametrize(
        "ebno", [["--pilot-ebno", "nan"], ["--pilot-ebno=-inf"]], ids=["nan", "-inf"]
    )
    def test_pilot_ebno_without_noise_level_gives_one_error_line(self, workspace, capsys, ebno):
        out = workspace / "noiseless_pilot.perm"
        rc = run_cli(
            "design-interleaver", "--outer", workspace / "outer",
            "--inner", workspace / "inner", "--seed", 5,
            "--candidates", 3, "--pilot-blocks", 4, *ebno, "--out", out,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "schedule, message",
        [("bogus", "schedule must look like '10x10', got 'bogus'"),
         ("0x10", "iteration counts must be >= 1")],
        ids=["bogus", "0x10"],
    )
    def test_bad_schedule_refused_before_any_code_is_loaded(
        self, workspace, capsys, monkeypatch, schedule, message
    ):
        loaded = []

        def load_code(path):
            loaded.append(path)
            raise RuntimeError("a code was loaded")

        monkeypatch.setattr(cli, "load_code", load_code)
        rc = run_cli(
            "design-interleaver", "--outer", workspace / "outer",
            "--inner", workspace / "inner", "--schedule", schedule, "--candidates", 1,
            "--out", workspace / "schedule.perm",
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loaded == []
        assert not (workspace / "schedule.perm").exists()


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

    def test_overflowing_ebno_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, _ = self.make_config(workspace, tmp_path, ebno_db=[4000])
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == "error: Eb/N0 of 4000.0 dB gives no usable noise level\n"

    def test_non_boolean_config_flag_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, out = self.make_config(
            workspace, tmp_path,
            schedule={"outer_iters": 3, "inner_iters": 3, "freeze_converged": "false"},
        )
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

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_gives_one_error_line(self, workspace, tmp_path, capsys, max_iter):
        config_path, out = self.make_config(
            workspace, tmp_path, system="single", code=str(workspace / "outer"),
            max_iter=max_iter, workers=2,
        )
        assert run_cli("simulate", "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err == f"error: max_iter must be >= 1, not {max_iter}\n"
        assert not out.exists()

    def test_unknown_schedule_key_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, out = self.make_config(
            workspace, tmp_path, schedule={"outer_iter": 3, "freeze": False}
        )
        assert run_cli("simulate", "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown schedule keys: ['freeze', 'outer_iter']\n"
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

    def test_refuses_inputs_that_share_a_label(self, tmp_path, capsys):
        row = "3,10,0,0,0.0,0.0,1.0,2.0,1"
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "curve.csv").write_text(ci.bench.CSV_HEADER + "\n" + row + "\n")
        merged = tmp_path / "m.csv"
        rc = run_cli("report", "--out", merged, tmp_path / "a/curve.csv", tmp_path / "b/curve.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "share the label 'curve'" in err
        assert not merged.exists()

    def test_merges_rows_of_any_seed(self, tmp_path):
        # resume refuses rows of another seed; a merged table legitimately mixes them
        rows = {"a": "3,10,0,0,0.0,0.0,1.0,2.0,1", "b": "3,10,0,0,0.0,0.0,1.0,2.0,7"}
        for name, row in rows.items():
            (tmp_path / f"{name}.csv").write_text(ci.bench.CSV_HEADER + "\n" + row + "\n")
        merged = tmp_path / "m.csv"
        assert run_cli("report", "--out", merged, tmp_path / "a.csv", tmp_path / "b.csv") == 0
        assert merged.read_text().splitlines()[1:] == [f"{k},{v}" for k, v in rows.items()]

    @pytest.mark.parametrize(
        "body, word",
        [("3,10,0,0,0.0,0.0,1.0,2.0,1\n3,10,2", "torn"), ("3,10,2\n", "malformed")],
        ids=["torn-tail", "malformed-row"],
    )
    def test_refuses_torn_and_malformed_rows(self, tmp_path, capsys, body, word):
        curve = tmp_path / "curve.csv"
        curve.write_text(ci.bench.CSV_HEADER + "\n" + body)
        merged = tmp_path / "merged.csv"
        assert run_cli("report", "--out", merged, curve) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert word in err
        assert not merged.exists()


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
