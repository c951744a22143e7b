import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import concat_ira as ci
from concat_ira.bench import (
    CSV_HEADER,
    ConcatSystem,
    ConfigError,
    SimConfig,
    SingleSystem,
    StopRule,
    format_row,
    load_system,
    measure_point,
    pilot_select,
    run_curve,
    two_proportion_z,
)
from concat_ira.spa import decode_batch

from conftest import build_toy


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory, toy_outer, toy_inner):
    root = tmp_path_factory.mktemp("toyfiles")
    ci.save_code(toy_outer, root / "outer")
    ci.save_code(toy_inner, root / "inner")
    ci.save_permutation(ci.random_permutation(8, 12, 5), root / "pi.perm")
    return root


def concat_config(root: Path, **overrides) -> SimConfig:
    base = dict(
        system="concat",
        outer_code=str(root / "outer"),
        inner_code=str(root / "inner"),
        interleaver=str(root / "pi.perm"),
        schedule=ci.Schedule(outer_iters=4, inner_iters=4),
        ebno_db=(6.0,),
        stop=StopRule(min_block_errors=8, max_blocks=200),
        master_seed=3,
        output=str(root / "out.csv"),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_json_round_trip(self, toy_files):
        text = json.dumps(
            {
                "system": "concat",
                "outer_code": str(toy_files / "outer"),
                "inner_code": str(toy_files / "inner"),
                "interleaver": str(toy_files / "pi.perm"),
                "schedule": {"outer_iters": 3, "inner_iters": 5},
                "ebno_db": [4.0, 5.0],
                "min_block_errors": 10,
                "max_blocks": 50,
                "master_seed": 7,
                "output": "x.csv",
            }
        )
        config = SimConfig.from_json(text)
        assert config.schedule == ci.Schedule(3, 5, True)
        assert config.ebno_db == (4.0, 5.0)
        assert config.stop == StopRule(10, 50)
        load_system(config)  # referenced files parse

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            SimConfig.from_json('{"system": "concat", "ebno": [1]}')

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            SimConfig.from_json("{nope")

    @pytest.mark.parametrize(
        "extra",
        [
            {"noiseless": "false"},
            {"noiseless": 0},
            {"schedule": {"freeze_converged": "no"}},
            {"schedule": {"freeze_converged": 1}},
        ],
    )
    def test_non_boolean_flags_rejected(self, extra):
        # bool() would turn the string "false" into True
        with pytest.raises(ConfigError, match="true or false"):
            SimConfig.from_json(json.dumps({"system": "single", "ebno_db": [1.0], **extra}))

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"master_seed": 1.5}, "master_seed"),  # int() would run seed 1
            ({"master_seed": "3"}, "master_seed"),
            ({"master_seed": True}, "master_seed"),
            ({"workers": 2.0}, "workers"),
            ({"min_block_errors": "10"}, "min_block_errors"),
            ({"max_blocks": 1e3}, "max_blocks"),
            ({"max_iter": False}, "max_iter"),
            ({"schedule": {"outer_iters": 2.5}}, "outer_iters"),
            ({"schedule": {"inner_iters": "4"}}, "inner_iters"),
            ({"ebno_db": "35"}, "ebno_db"),  # tuple() would run 3 dB and 5 dB
            ({"ebno_db": 3.0}, "ebno_db"),
            ({"ebno_db": [3.0, "4"]}, "ebno_db"),
            ({"ebno_db": [True]}, "ebno_db"),
            ({"output": 5}, "output"),
            ({"code": ["x"]}, "code"),
            ({"outer_code": 1}, "outer_code"),
            ({"inner_code": None}, "inner_code"),
            ({"interleaver": {}}, "interleaver"),
        ],
    )
    def test_values_of_the_wrong_json_type_rejected(self, extra, key):
        base = {"system": "single", "ebno_db": [1.0], "code": "c"}
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            SimConfig.from_json(json.dumps({**base, **extra}))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_ebno_rejected(self, value):
        # json.loads reads these three as floats; none is an operating point
        with pytest.raises(ConfigError, match="^ebno_db must be finite"):
            SimConfig.from_json(f'{{"system": "single", "ebno_db": [3.0, {value}], "code": "c"}}')

    def test_json_integers_and_numbers_parse(self):
        config = SimConfig.from_json(json.dumps({
            "system": "single", "ebno_db": [3, 4.5], "code": "c", "master_seed": 12,
            "workers": 2, "max_iter": 40, "schedule": {"outer_iters": 3, "inner_iters": 6},
        }))
        assert config.ebno_db == (3.0, 4.5)
        assert (config.master_seed, config.workers, config.max_iter) == (12, 2, 40)
        assert config.schedule == ci.Schedule(3, 6, True)

    def test_boolean_flags_parse(self):
        config = SimConfig.from_json(json.dumps({
            "system": "single", "ebno_db": [1.0], "noiseless": True,
            "schedule": {"freeze_converged": False},
        }))
        assert config.noiseless is True
        assert config.schedule.freeze_converged is False

    def test_empty_ebno_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            SimConfig(system="single", ebno_db=(), output="x.csv", code="y")

    def test_missing_files_rejected(self, tmp_path):
        config = SimConfig(
            system="single", ebno_db=(1.0,), output="x.csv",
            code=str(tmp_path / "nothing"),
        )
        with pytest.raises(FileNotFoundError):
            load_system(config)


class TestRunCurve:
    def test_noiseless_debug_flag_gives_zero_errors(self, toy_files, tmp_path):
        config = concat_config(
            toy_files, noiseless=True, output=str(tmp_path / "clean.csv"),
            stop=StopRule(min_block_errors=1, max_blocks=12),
        )
        (point,) = run_curve(config)
        assert point.ber == 0.0 and point.fer == 0.0
        assert point.blocks_run == 12  # max_blocks bound, never hit error target

    def test_stop_rule_and_accounting(self, toy_files, tmp_path):
        config = concat_config(
            toy_files, ebno_db=(2.0,), output=str(tmp_path / "noisy.csv"),
            stop=StopRule(min_block_errors=5, max_blocks=500),
        )
        (point,) = run_curve(config)
        assert point.blocks_run <= 500
        assert point.block_errors >= 5 or point.blocks_run == 500
        assert point.bit_errors <= point.blocks_run * 64
        assert point.fer == point.block_errors / point.blocks_run
        assert point.ber == point.bit_errors / (point.blocks_run * 64)

    def test_deterministic_across_worker_counts(self, toy_files, tmp_path):
        texts = []
        for workers, name in ((1, "w1.csv"), (2, "w2.csv"), (1, "w1b.csv")):
            config = concat_config(
                toy_files, ebno_db=(2.5, 3.5), workers=workers,
                output=str(tmp_path / name),
                stop=StopRule(min_block_errors=4, max_blocks=120),
            )
            run_curve(config)
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_single_system_deterministic_across_worker_counts(self, toy_files, tmp_path):
        # single-code trials decode in batches, whose size depends on the
        # worker count; the CSV must not
        texts = []
        for workers, name in ((1, "s1.csv"), (2, "s2.csv")):
            config = SimConfig(
                system="single", code=str(toy_files / "outer"),
                ebno_db=(2.0, 4.0), max_iter=30, workers=workers,
                stop=StopRule(min_block_errors=6, max_blocks=150),
                master_seed=4, output=str(tmp_path / name),
            )
            run_curve(config)
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1]

    def test_torn_tail_is_a_config_error(self, toy_files, tmp_path):
        out = tmp_path / "torn.csv"
        out.write_text(CSV_HEADER + "\n2.5,10,3", encoding="utf-8")
        config = concat_config(toy_files, ebno_db=(2.5,), output=str(out))
        with pytest.raises(ConfigError, match="torn"):
            run_curve(config)
        assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n2.5,10,3"

    def test_malformed_row_is_a_config_error(self, toy_files, tmp_path):
        out = tmp_path / "bad.csv"
        out.write_text(CSV_HEADER + "\n2.5,10,3\n", encoding="utf-8")
        config = concat_config(toy_files, ebno_db=(2.5,), output=str(out))
        with pytest.raises(ConfigError, match="malformed"):
            run_curve(config)

    def test_resume_refuses_rows_of_another_seed(self, toy_files, tmp_path):
        out = tmp_path / "seeded.csv"
        stop = StopRule(min_block_errors=2, max_blocks=20)
        run_curve(concat_config(toy_files, ebno_db=(3.0,), output=str(out), stop=stop, master_seed=1))
        first = out.read_bytes()
        other = concat_config(toy_files, ebno_db=(3.0,), output=str(out), stop=stop, master_seed=5)
        with pytest.raises(ConfigError, match="seed"):
            run_curve(other)
        assert out.read_bytes() == first

    def test_resume_skips_existing_points(self, toy_files, tmp_path):
        out = tmp_path / "resume.csv"
        config = concat_config(
            toy_files, ebno_db=(3.0,), output=str(out),
            stop=StopRule(min_block_errors=2, max_blocks=40),
        )
        run_curve(config)
        first = out.read_bytes()
        run_curve(config)  # no change
        assert out.read_bytes() == first
        config2 = concat_config(
            toy_files, ebno_db=(3.0, 4.0), output=str(out),
            stop=StopRule(min_block_errors=2, max_blocks=40),
        )
        points = run_curve(config2)
        assert len(points) == 2
        text = out.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert len(text.strip().split("\n")) == 3
        assert out.read_bytes()[: len(first)] == first

    def test_single_system_runs(self, toy_files, tmp_path):
        config = SimConfig(
            system="single", code=str(toy_files / "outer"),
            ebno_db=(4.0,), max_iter=30,
            stop=StopRule(min_block_errors=3, max_blocks=200),
            master_seed=1, output=str(tmp_path / "single.csv"),
        )
        (point,) = run_curve(config)
        assert point.blocks_run >= 1
        assert point.mean_outer_iters == 0.0
        assert point.mean_component_iters >= 1.0

    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "ebno_db,blocks,bit_errors,block_errors,ber,fer,"
            "mean_outer_iters,mean_component_iters,seed"
        )


def toy_pair():
    outer = build_toy(21, k=16, n=24)
    inner = build_toy(22, k=16, n=24)
    return outer, inner


class TestTrialIndependence:
    def test_trials_do_not_depend_on_earlier_decodes(self):
        # every component decode reuses its graph's workspace, so a trial
        # must come out the same whatever was decoded before it
        outer, inner = toy_pair()
        system = ConcatSystem(
            ci.ConcatCode(outer, inner, ci.random_permutation(16, 24, 3)), ci.Schedule(5, 5)
        )
        sigma = ci.ebno_sigma(4.0, system.rate)
        together = system.run(0, 6, sigma, 9, False)
        rng = np.random.default_rng(0)
        alone = {}
        for i in rng.permutation(6):
            for code in (outer, inner):
                decode_batch(code, rng.normal(1.0, 2.0, size=(40, 24)), None, 7)
            (alone[i],) = system.run(i, i + 1, sigma, 9, False)
        assert together == [alone[i] for i in range(6)]
        assert {trial[1] for trial in together} == {0, 1}  # some blocks fail, some do not


@dataclass(frozen=True)
class TaskLog:
    """A system whose every trial is a block error and whose every task
    appends its first trial index to the file at path."""

    path: str
    rate = 0.5
    source_bits = 1
    trials_per_task = 1

    def run(self, lo: int, hi: int, sigma: float, master_seed: int, noiseless: bool) -> list:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(f"{lo}\n")
        return [(1, 1, 0, 1, 1)] * (hi - lo)


class TestTrialRounds:
    """Single-code tasks encode and decode 256 trials at once, and tasks run
    in trial order, one at a time in-process and at most 2 x workers at once
    on a pool; no result may depend on either."""

    def test_pool_runs_at_most_two_tasks_per_worker_past_the_stop(self, tmp_path):
        log = tmp_path / "tasks.txt"
        point = measure_point(TaskLog(str(log)), 3.0, StopRule(1, 1000), 9, workers=2)
        assert point.blocks_run == 1
        ran = [int(lo) for lo in log.read_text(encoding="utf-8").split()]
        assert 0 in ran and len(ran) <= 2 * 2

    def test_wide_task_equals_one_trial_runs_and_narrow_pieces(self):
        outer, _ = toy_pair()
        system = SingleSystem(outer, 20)
        assert system.trials_per_task == 256
        sigma = ci.ebno_sigma(3.0, system.rate)
        whole = system.run(0, 600, sigma, 9, False)
        pieces, alone = [], []
        for lo in range(0, 600, 64):
            pieces += system.run(lo, min(lo + 64, 600), sigma, 9, False)
        for i in range(600):
            alone += system.run(i, i + 1, sigma, 9, False)
        assert whole == pieces == alone
        assert {trial[1] for trial in whole} == {0, 1}

    # rows written by the harness when an in-process round was 64 trials and a
    # single-code task 64 trials; each stop rule fires inside a round
    @pytest.mark.parametrize(
        "kind, ebno, stop, row",
        [
            ("concat", 5.0, StopRule(5, 500),
             "5,56,8,5,0.0005580357142857143,0.08928571428571429,2.267857142857143,1.5864045864045864,9"),
            ("single", 3.0, StopRule(90, 5000),
             "3,750,197,90,0.016416666666666666,0.12,0.0,3.3893333333333335,9"),
            ("single", 5.0, StopRule(10_000, 300),
             "5,300,14,7,0.002916666666666667,0.023333333333333334,0.0,1.6133333333333333,9"),
        ],
        ids=["concat", "single-errors", "single-max-blocks"],
    )
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_rows_match_the_narrow_round_harness(self, kind, ebno, stop, row, workers):
        outer, inner = toy_pair()
        if kind == "concat":
            system = ConcatSystem(
                ci.ConcatCode(outer, inner, ci.random_permutation(16, 24, 3)), ci.Schedule(5, 5)
            )
        else:
            system = SingleSystem(outer, 20)
        assert format_row(measure_point(system, ebno, stop, 9, workers=workers), 9) == row


class TestPilotSelect:
    def test_returns_best_candidate_deterministically(self, toy_outer, toy_inner):
        best_a, scores_a = pilot_select(
            toy_outer, toy_inner, ci.Schedule(3, 3), n_candidates=3,
            pilot_ebno=3.0, pilot_blocks=6, master_seed=4,
        )
        best_b, scores_b = pilot_select(
            toy_outer, toy_inner, ci.Schedule(3, 3), n_candidates=3,
            pilot_ebno=3.0, pilot_blocks=6, master_seed=4,
        )
        assert scores_a == scores_b
        assert np.array_equal(best_a.forward, best_b.forward)
        best_errors = min(s[0] for s in scores_a)
        winner_score = [s for s in scores_a if s[2] == best_a.seed][0]
        assert winner_score[0] == best_errors


class TestTwoProportionZ:
    def test_direction_and_magnitude(self):
        z, p = two_proportion_z(50, 2000, 100, 2000)
        assert z > 3.0 and p < 0.01
        z_flat, p_flat = two_proportion_z(100, 2000, 100, 2000)
        assert z_flat == 0.0 and p_flat == 0.5


@pytest.mark.slow
class TestSingleCodeCurveShape:
    def test_paper_single_code_ber_monotone(self, paper_outer, tmp_path):
        """Five spaced points at 100+ block errors each, decreasing BER."""
        root = tmp_path
        ci.save_code(paper_outer, root / "paper")
        config = SimConfig(
            system="single", code=str(root / "paper"),
            ebno_db=(1.0, 1.75, 2.5, 3.25, 4.0), max_iter=100,
            stop=StopRule(min_block_errors=100, max_blocks=30_000),
            master_seed=10, output=str(root / "paper_curve.csv"),
        )
        points = run_curve(config)
        bers = [p.ber for p in points]
        assert all(a >= b for a, b in zip(bers, bers[1:]))
        assert all(p.block_errors >= 100 or p.blocks_run == 30_000 for p in points)
