import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concat_ira as ci
from concat_ira import cli, spa
from concat_ira.cli import main
from concat_ira.interleave import BadMappings
from conftest import build_toy


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, toy_outer, toy_inner):
    """Toy code files for the commands that read codes."""
    root = tmp_path_factory.mktemp("cli")
    ci.save_code(toy_outer, root / "outer")
    ci.save_code(toy_inner, root / "inner")
    return root


@pytest.fixture(scope="module")
def constructed(tmp_path_factory):
    """The seed-1 [181,128] code, written once by the CLI itself."""
    prefix = tmp_path_factory.mktemp("construct") / "code"
    assert run_cli("construct", "--k", 128, "--n", 181, "--seed", 1, "--out", prefix) == 0
    return prefix


class TestConstruct:
    def test_writes_both_files(self, constructed):
        assert constructed.with_suffix(".alist").exists()
        assert constructed.with_suffix(".sidecar").exists()

    @pytest.mark.parametrize("seed, alist, sidecar", [
        (1, "44c29fc869896f4311ab2bf13463ab2b2b97c9a70bad3189e4267e24131e19ef",
         "674cdb326349d3a548ded9dd9a0fe04ed1d5df8eb6756d6e90aa55e2b73f3940"),
        (2, "44c29fc869896f4311ab2bf13463ab2b2b97c9a70bad3189e4267e24131e19ef",
         "be46c4ccb87ea52b4e0aa7985ea7db473b5ea97be9d52d32e61a5695399a03f8"),
    ], ids=["seed-1", "seed-2"])
    def test_paper_code_files_are_pinned(self, tmp_path, seed, alist, sidecar):
        assert run_cli(
            "construct", "--k", 128, "--n", 181, "--seed", seed, "--out", tmp_path / "code"
        ) == 0
        digests = [
            hashlib.sha256((tmp_path / f"code{suffix}").read_bytes()).hexdigest()
            for suffix in (".alist", ".sidecar")
        ]
        assert digests == [alist, sidecar]

    def test_rerun_is_byte_identical(self, constructed, tmp_path):
        assert run_cli(
            "construct", "--k", 128, "--n", 181, "--seed", 1, "--out", tmp_path / "again"
        ) == 0
        for suffix in (".alist", ".sidecar"):
            again = (tmp_path / f"again{suffix}").read_bytes()
            assert again == constructed.with_suffix(suffix).read_bytes()

    def test_loadable_and_valid(self, constructed, paper_outer):
        code = ci.load_code(constructed)
        ci.validate_code(code)
        assert code.H == paper_outer.H

    def test_infeasible_parameters_fail_cleanly(self, tmp_path, capsys):
        rc = run_cli("construct", "--k", 128, "--n", 128, "--out", tmp_path / "bad")
        assert rc == 1
        assert capsys.readouterr().err == "error: N must exceed K\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", -1, "seed must be >= 0, got -1")],
        ids=["seed-negative"],
    )
    def test_bad_restart_arguments_give_one_error_line(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        def kernel():
            raise RuntimeError("the construction kernel was called")

        monkeypatch.setattr(ci.ira, "_kernel", kernel)
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

    def test_dotted_out_prefixes_keep_their_own_files(self, workspace, tmp_path):
        for out in ("an.v1", "an.v2"):
            assert run_cli("analyze", "--code", workspace / "outer", "--out", tmp_path / out) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"an.{v}.{kind}" for v in ("v1", "v2") for kind in ("report.txt", "sensitivity.csv")
        ]

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
    def test_design_repairs_the_seed_permutation(self, workspace, tmp_path):
        out = workspace / "designed.perm"
        rc = run_cli(
            "design-interleaver", "--outer", workspace / "outer",
            "--inner", workspace / "inner", "--seed", 5, "--out", out,
        )
        assert rc == 0
        perm = ci.load_permutation(out)
        assert perm.design_t >= 1
        sets_text = Path(str(out) + ".sets").read_text().strip().split("\n")
        row_nodes = frozenset(int(x) for x in sets_text[0].split()[1:])
        col_nodes = frozenset(int(x) for x in sets_text[1].split()[1:])
        sets = ci.SensitiveSets(row_nodes, col_nodes)
        assert ci.count_bad_mappings(perm, sets).count == 0
        # --seed draws the starting permutation and seeds its repair
        outer, inner = ci.load_code(workspace / "outer"), ci.load_code(workspace / "inner")
        expected = ci.escalate_design(
            ci.sensitivity_histogram(outer.H), ci.sensitivity_histogram(inner.H),
            ci.random_permutation(outer.K, outer.N, 5), np.random.default_rng(5),
        )
        ci.save_permutation(expected, tmp_path / "expected.perm")
        assert out.read_bytes() == (tmp_path / "expected.perm").read_bytes()

    @pytest.mark.parametrize("shape", [(10, 15), (8, 13)], ids=["k10-n15", "k8-n13"])
    @pytest.mark.parametrize("small_is", ["outer", "inner"])
    def test_codes_of_different_shape_give_one_error_line(
        self, workspace, tmp_path, capsys, monkeypatch, shape, small_is
    ):
        k, n = shape
        ci.save_code(build_toy(3, k, n), tmp_path / "other")

        def no_histogram(h):
            raise AssertionError("a histogram was built")

        monkeypatch.setattr(cli, "sensitivity_histogram", no_histogram)
        codes = {"outer": workspace / "outer", "inner": tmp_path / "other"}
        if small_is == "inner":
            codes = {"outer": tmp_path / "other", "inner": workspace / "outer"}
        out = tmp_path / "pi.perm"
        rc = run_cli(
            "design-interleaver", "--outer", codes["outer"], "--inner", codes["inner"],
            "--seed", 5, "--out", out,
        )
        assert rc == 1
        shapes = {"outer": "[12,8]", "inner": f"[{n},{k}]"}
        if small_is == "inner":
            shapes = {"outer": f"[{n},{k}]", "inner": "[12,8]"}
        assert capsys.readouterr().err == (
            f"error: outer code is {shapes['outer']} but inner code is "
            f"{shapes['inner']}; component codes must share (N, K)\n"
        )
        assert not out.exists()

    def test_refused_design_writes_no_file(self, workspace, tmp_path, capsys, monkeypatch):
        # simulate would load a .perm left on disk, so the check runs first
        monkeypatch.setattr(cli, "count_bad_mappings", lambda perm, sets: BadMappings(1, [(0, 0)]))
        out = tmp_path / "refused.perm"
        rc = run_cli(
            "design-interleaver", "--outer", workspace / "outer",
            "--inner", workspace / "inner", "--seed", 5, "--out", out,
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: designed permutation still has 1 bad mappings\n"
        assert not out.exists() and not Path(f"{out}.sets").exists()


class TestSimulate:
    def make_config(self, workspace, tmp_path, system="concat", **extra):
        if system == "concat":
            perm = workspace / "sim.perm"
            ci.save_permutation(ci.random_permutation(8, 12, 5), perm)
            config = {
                "outer_code": str(workspace / "outer"),
                "inner_code": str(workspace / "inner"),
                "interleaver": str(perm),
                "schedule": {"outer_iters": 3, "inner_iters": 3},
            }
        else:
            config = {"code": str(workspace / "outer")}
        config |= {
            "system": system,
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

    @pytest.mark.parametrize("suffix, corrupt, message", [
        (".alist", lambda lines: lines[:4] + [lines[4] + b" "] + lines[5:],
         "line 5: not as save_alist writes the matrix"),
        (".alist", lambda lines: [b"\xff" + lines[0]] + lines[1:],
         "line 1: not as save_alist writes the matrix"),
        (".sidecar", lambda lines: [b"\xff" + lines[0]] + lines[1:],
         "line 1: expected 'format ira-code 1'"),
    ], ids=["alist-line-5", "alist-0xff", "sidecar-0xff"])
    def test_corrupt_code_file_gives_one_error_line_naming_it(
        self, workspace, tmp_path, capsys, suffix, corrupt, message
    ):
        for saved in workspace.glob("inner.*"):
            (tmp_path / saved.name).write_bytes(saved.read_bytes())
        path = tmp_path / f"inner{suffix}"
        path.write_bytes(b"\n".join(corrupt(path.read_bytes().split(b"\n"))))
        config_path, out = self.make_config(workspace, tmp_path, inner_code=str(tmp_path / "inner"))
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_kernel_that_cannot_be_built_gives_one_error_line(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        missing = tmp_path / "no-cc"
        monkeypatch.setattr(spa, "_CC", str(missing))
        monkeypatch.setattr(spa, "_CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(spa, "_LIB", None)
        config_path, out = self.make_config(workspace, tmp_path)
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == (
            f"error: cannot build the SPA kernel: C compiler '{missing}' not found\n"
        )
        assert not out.exists()

    def test_point_without_block_errors_prints_its_bound_not_fer_zero(
        self, workspace, tmp_path, capsys
    ):
        config_path, out = self.make_config(
            workspace, tmp_path, system="single", code=str(workspace / "outer"),
            ebno_db=[3.0, 12.0], max_blocks=600,
        )
        assert run_cli("simulate", "--config", config_path) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "ebno 3: 15 blocks, ber 4.167e-02, fer 2.000e-01",
            "ebno 12: 600 blocks, no block errors, fer < 4.980e-03 (one-sided 95%)",
        ]
        assert out.read_text() == (
            "ebno_db,blocks,bit_errors,block_errors,ber,fer,mean_outer_iters,"
            "mean_component_iters,seed\n"
            "3,15,5,3,0.041666666666666664,0.2,0.0,20.933333333333334,2\n"
            "12,600,0,0,0.0,0.0,0.0,1.0,2\n"
        )

    @pytest.mark.parametrize("blocks, bound", [(1, "9.500e-01"), (2, "7.764e-01")])
    def test_bound_of_a_few_blocks_stays_below_one(
        self, workspace, tmp_path, capsys, blocks, bound
    ):
        # the exact bound 1 - 0.05 ** (1 / n); the rule of three read 3 and 1.5 here
        config_path, _ = self.make_config(
            workspace, tmp_path, system="single", code=str(workspace / "outer"),
            ebno_db=[12.0], max_blocks=blocks,
        )
        assert run_cli("simulate", "--config", config_path) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            f"ebno 12: {blocks} blocks, no block errors, fer < {bound} (one-sided 95%)"
        )

    @staticmethod
    def time_line(ebno: str, blocks, errors=r"\d+", undetected=r"\d+") -> str:
        return (rf"ebno {ebno}: {blocks} blocks in \d+\.\d{{3}} s, \d+\.\d blocks/s, "
                rf"{errors} block errors, {undetected} undetected")

    def test_each_measured_point_prints_its_time_to_stderr(self, workspace, tmp_path, capsys):
        # wall time goes to stderr only, one line per measured point; a
        # resumed row was not measured and gets none
        single = dict(system="single", code=str(workspace / "outer"), max_blocks=600)
        config_path, out = self.make_config(workspace, tmp_path, ebno_db=[3.0], **single)
        assert run_cli("simulate", "--config", config_path) == 0
        printed = capsys.readouterr()
        assert printed.out == (
            f"ebno 3: 15 blocks, ber 4.167e-02, fer 2.000e-01\ncurve written to {out}\n"
        )
        assert re.fullmatch(self.time_line("3", 15, 3, 0) + "\n", printed.err)
        config_path, out = self.make_config(workspace, tmp_path, ebno_db=[3.0, 12.0], **single)
        assert run_cli("simulate", "--config", config_path) == 0
        printed = capsys.readouterr()
        assert printed.out == (
            "ebno 3: 15 blocks, ber 4.167e-02, fer 2.000e-01\n"
            "ebno 12: 600 blocks, no block errors, fer < 4.980e-03 (one-sided 95%)\n"
            f"curve written to {out}\n"
        )
        assert re.fullmatch(self.time_line("12", 600, 0, 0) + "\n", printed.err)
        assert out.read_text() == (
            "ebno_db,blocks,bit_errors,block_errors,ber,fer,mean_outer_iters,"
            "mean_component_iters,seed\n"
            "3,15,5,3,0.041666666666666664,0.2,0.0,20.933333333333334,2\n"
            "12,600,0,0,0.0,0.0,0.0,1.0,2\n"
        )
        assert run_cli("simulate", "--config", config_path) == 0
        assert capsys.readouterr().err == ""

    def test_failure_after_a_measured_point_gives_one_error_line(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        measure = ci.bench.measure_point

        def fail_at_12_db(system, ebno_db, *args):
            if ebno_db == 12.0:
                raise RuntimeError("decode failed")
            return measure(system, ebno_db, *args)

        monkeypatch.setattr(ci.bench, "measure_point", fail_at_12_db)
        config_path, out = self.make_config(workspace, tmp_path, ebno_db=[3.0, 12.0])
        assert run_cli("simulate", "--config", config_path) == 1
        first, error = capsys.readouterr().err.splitlines()
        assert re.fullmatch(self.time_line("3", r"\d+"), first)
        assert error == "error: decode failed"
        assert [row.split(",", 1)[0] for row in out.read_text().splitlines()[1:]] == ["3"]

    @pytest.mark.parametrize("key", ["min_block_errors", "max_blocks"])
    def test_zero_stop_value_gives_one_error_line(self, workspace, tmp_path, capsys, key):
        config_path, out = self.make_config(workspace, tmp_path, **{key: 0})
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == "error: stop rule bounds must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("system", ["concat", "single"])
    def test_negative_seed_gives_one_error_line(self, workspace, tmp_path, capsys, system):
        extra = {"system": "single", "code": str(workspace / "outer")} if system == "single" else {}
        config_path, out = self.make_config(workspace, tmp_path, master_seed=-1, **extra)
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == "error: master_seed must be >= 0, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("ebno", ["NaN", "-Infinity"])
    def test_non_finite_ebno_gives_one_error_line(self, workspace, tmp_path, capsys, ebno):
        # json.dumps writes these words and json.loads reads them back as floats
        config_path, out = self.make_config(workspace, tmp_path, ebno_db=[float(ebno)])
        assert ebno in config_path.read_text()
        assert run_cli("simulate", "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ebno_db must be finite") and err.count("\n") == 1
        assert not out.exists()

    def test_ebno_past_six_digits_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, out = self.make_config(workspace, tmp_path, ebno_db=[3.0, 3.0000001])
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == (
            "error: ebno_db value 3.0000001 would be written as 3: "
            "give at most 6 significant digits\n"
        )
        assert not out.exists()

    def test_overflowing_ebno_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, _ = self.make_config(workspace, tmp_path, ebno_db=[4000])
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == "error: Eb/N0 of 4000.0 dB gives no usable noise level\n"

    @pytest.mark.parametrize(
        "system, ebno", [("single", 3080), ("concat", 3081)], ids=["single", "concat"]
    )
    def test_overflowing_llr_scale_gives_one_error_line(
        self, workspace, tmp_path, capsys, system, ebno
    ):
        # 2/sigma^2 overflows at 3080 dB for the rate-2/3 toy code and at
        # 3081 dB for the rate-4/9 concatenation, though sigma is finite
        extra = {"system": "single", "code": str(workspace / "outer")} if system == "single" else {}
        config_path, out = self.make_config(workspace, tmp_path, ebno_db=[ebno], **extra)
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == f"error: Eb/N0 of {ebno:.1f} dB gives no usable noise level\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("system, extra, refused", [
        ("concat", {"max_iter": 5}, ["max_iter"]),
        ("single", {"schedule": {"outer_iters": 3}, "interleaver": "p.perm"},
         ["interleaver", "schedule"]),
    ])
    def test_key_of_the_other_system_gives_one_error_line(
        self, workspace, tmp_path, capsys, system, extra, refused
    ):
        config_path, out = self.make_config(workspace, tmp_path, system=system, **extra)
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == (
            f"error: unknown config keys for a {system} system: {refused}\n"
        )
        assert not out.exists()

    def test_zero_iteration_schedule_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, out = self.make_config(workspace, tmp_path, schedule={"outer_iters": 0})
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == "error: iteration counts must be >= 1\n"
        assert not out.exists()

    def test_config_is_not_looked_up_in_another_directory(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        config_path, out = self.make_config(workspace, tmp_path)
        monkeypatch.setenv("CONCAT_IRA_CONFIG_DIR", str(config_path.parent))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("simulate", "--config", config_path.name) == 1
        assert capsys.readouterr().err == f"error: config file '{config_path.name}' not found\n"
        assert not out.exists()

    def test_torn_curve_tail_gives_one_error_line(self, workspace, tmp_path, capsys):
        config_path, out = self.make_config(workspace, tmp_path)
        out.write_text(ci.bench.CSV_HEADER + "\n2.5,10,3", encoding="utf-8")
        assert run_cli("simulate", "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_curve_row_without_blocks_gives_one_error_line(self, workspace, tmp_path, capsys):
        # the row's seed and Eb/N0 are the config's, so a resume would keep it
        config_path, out = self.make_config(workspace, tmp_path)
        row = "3,0,0,0,0.0,0.0,0.0,1.0,2"
        out.write_text(ci.bench.CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
        refused = f"error: {out}:2: malformed row {row!r}, not as simulate writes it\n"
        assert run_cli("simulate", "--config", config_path) == 1
        assert capsys.readouterr().err == refused
        assert run_cli("report", "--out", tmp_path / "merged.csv", out) == 1
        assert capsys.readouterr().err == refused
        assert not (tmp_path / "merged.csv").exists()

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

    @pytest.mark.parametrize("stem", ["a,b", 'a"b', "a\rb", "a\nb"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_refuses_a_label_that_breaks_the_csv(self, tmp_path, capsys, stem):
        # the label is the input's stem, written as an unquoted CSV field
        curve = tmp_path / f"{stem}.csv"
        curve.write_text(ci.bench.CSV_HEADER + "\n3,10,0,0,0.0,0.0,1.0,2.0,1\n")
        merged = tmp_path / "m.csv"
        assert run_cli("report", "--out", merged, curve) == 1
        err = capsys.readouterr().err
        assert err == f"error: input {str(curve)!r} has a label with a comma, quote or line break\n"
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
        [("3,10,0,0,0.0,0.0,1.0,2.0,1\n3,10,2", "torn"), ("3,10,2\n", "malformed"),
         ("3,10,0,0,0.0,0.0,1.0,2.0,1\n\n", "curve.csv:3: malformed"),
         ("3.0,10,0,0,0.0,0.0,1.0,2.0,1\n", "curve.csv:2: malformed")],
        ids=["torn-tail", "malformed-row", "blank-line", "respelled-ebno"],
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

    @pytest.mark.parametrize("command, options", [
        ("construct", ["--help", "--k", "--n", "--out", "--seed"]),
        ("analyze", ["--code", "--help", "--out"]),
        ("design-interleaver", ["--help", "--inner", "--out", "--outer", "--seed"]),
        ("simulate", ["--config", "--help"]),
        ("report", ["--help", "--out"]),
    ])
    def test_help_lists_exactly_the_options(self, capsys, command, options):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        assert sorted(set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))) == options

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
