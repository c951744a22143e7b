import functools
import hashlib
import json
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

import concat_ira as ci
from concat_ira import bench
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
    run_curve,
    two_proportion_z,
)

from conftest import build_toy
from oracles import decode_rows, random_bits


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
    def test_json_key_tables_name_every_field(self):
        def names(cls):
            return {f.name for f in fields(cls)}

        tables = [ci.bench._CONFIG_KEYS, *ci.bench._SYSTEM_KEYS.values()]
        assert set().union(*tables) | {"system", "ebno_db", "stop"} == names(SimConfig)
        assert sum(map(len, tables)) == len(set().union(*tables))  # no key in two tables
        assert set(ci.bench._STOP_KEYS) == names(StopRule)
        assert set(ci.bench._SCHEDULE_KEYS) == names(ci.Schedule)

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

    def test_unknown_schedule_key_rejected(self):
        # these would run Schedule(10, 4, True), which the config did not ask for
        text = json.dumps({
            "system": "concat", "ebno_db": [1.0],
            "schedule": {"outer_iter": 3, "inner_iters": 4, "freeze": False},
        })
        with pytest.raises(ConfigError, match=r"^unknown schedule keys: \['freeze', 'outer_iter'\]$"):
            SimConfig.from_json(text)

    @pytest.mark.parametrize("system, extra, refused", [
        ("concat", {"code": "c"}, ["code"]),
        ("concat", {"max_iter": 5}, ["max_iter"]),
        ("single", {"outer_code": "o"}, ["outer_code"]),
        ("single", {"inner_code": "i"}, ["inner_code"]),
        ("single", {"interleaver": "p.perm"}, ["interleaver"]),
        ("single", {"schedule": {"outer_iters": 3}}, ["schedule"]),
        ("single", {"schedule": {}}, ["schedule"]),
        # one refusal names every refused key, and none of the system's own
        ("concat", {"outer_code": "o", "max_iter": 5, "code": "c"}, ["code", "max_iter"]),
        ("single", {"code": "c", "schedule": 1, "outer_code": "o", "inner_code": "i",
                    "interleaver": "p"}, ["inner_code", "interleaver", "outer_code", "schedule"]),
    ])
    def test_key_of_the_other_system_rejected(self, system, extra, refused):
        # the config would run without the value it names
        with pytest.raises(ConfigError) as refusal:
            SimConfig.from_json(json.dumps({"system": system, "ebno_db": [1.0], **extra}))
        assert str(refusal.value) == f"unknown config keys for a {system} system: {refused}"

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Simulation config\n", 1)[1].split("\n## ", 1)[0]
        examples = [block.split("```", 1)[0] for block in section.split("```json\n")[1:]]
        assert [SimConfig.from_json(text) for text in examples] == [
            SimConfig(
                system="concat", outer_code="codes/outer", inner_code="codes/inner",
                interleaver="perm/designed.perm", schedule=ci.Schedule(10, 10, True),
                ebno_db=(3.0, 3.5, 4.0, 4.5), stop=StopRule(100, 1_000_000), master_seed=1,
                workers=4, output="results/designed.csv",
            ),
            SimConfig(
                system="single", code="codes/outer", max_iter=100, ebno_db=(3.0, 3.5),
                stop=StopRule(100, 1_000_000), master_seed=1, output="results/single.csv",
            ),
        ]
        # the refusal the README quotes is the one a concat config with max_iter gets
        with pytest.raises(ConfigError) as refusal:
            SimConfig.from_json(json.dumps({**json.loads(examples[0]), "max_iter": 5}))
        assert f"`{refusal.value}`" in section

    def test_absent_keys_take_the_dataclass_defaults(self):
        config = SimConfig.from_json('{"ebno_db": [1.0]}')
        assert config == SimConfig(system="concat", ebno_db=(1.0,), output="curve.csv")

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            SimConfig.from_json("{nope")

    @pytest.mark.parametrize(
        "extra",
        [
            {"schedule": {"freeze_converged": "false"}},
            {"schedule": {"freeze_converged": 0}},
            {"schedule": {"freeze_converged": "no"}},
            {"schedule": {"freeze_converged": 1}},
        ],
    )
    def test_non_boolean_flags_rejected(self, extra):
        # bool() would turn the string "false" into True
        with pytest.raises(ConfigError, match="true or false"):
            SimConfig.from_json(json.dumps({"system": "concat", "ebno_db": [1.0], **extra}))

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
            ({"system": "concat", "schedule": {"outer_iters": 2.5}}, "outer_iters"),
            ({"system": "concat", "schedule": {"inner_iters": "4"}}, "inner_iters"),
            ({"ebno_db": "35"}, "ebno_db"),  # tuple() would run 3 dB and 5 dB
            ({"ebno_db": 3.0}, "ebno_db"),
            ({"ebno_db": [3.0, "4"]}, "ebno_db"),
            ({"ebno_db": [True]}, "ebno_db"),
            ({"output": 5}, "output"),
            ({"code": ["x"]}, "code"),
            ({"system": "concat", "outer_code": 1}, "outer_code"),
            ({"system": "concat", "inner_code": None}, "inner_code"),
            ({"system": "concat", "interleaver": {}}, "interleaver"),
            ({"system": "concat", "schedule": [3]}, "schedule"),
            ({"system": "concat", "schedule": "outer_iters=3"}, "schedule"),
        ],
    )
    def test_values_of_the_wrong_json_type_rejected(self, extra, key):
        base = {"system": "single", "ebno_db": [1.0]}
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            SimConfig.from_json(json.dumps({**base, **extra}))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_ebno_rejected(self, value):
        # json.loads reads these three as floats; none is an operating point
        with pytest.raises(ConfigError, match="^ebno_db must be finite"):
            SimConfig.from_json(f'{{"system": "single", "ebno_db": [3.0, {value}], "code": "c"}}')

    @pytest.mark.parametrize("ebno_db", [(3.0, 3.0000001, 2.9999999), (3.0000001,)])
    def test_ebno_the_curve_file_cannot_name_rejected(self, ebno_db):
        # a curve row names its point by f"{ebno:g}"; 3.0000001 would be
        # written, and resumed, as the row of 3.0
        with pytest.raises(ConfigError, match=r"^ebno_db value 3\.0000001 would be written as 3: "):
            SimConfig(system="single", ebno_db=ebno_db, output="x.csv", code="y")

    def test_json_integers_and_numbers_parse(self):
        config = SimConfig.from_json(json.dumps({
            "system": "single", "ebno_db": [3, 4.5], "code": "c", "master_seed": 12,
            "workers": 2, "max_iter": 40,
        }))
        assert config.ebno_db == (3.0, 4.5)
        assert (config.master_seed, config.workers, config.max_iter) == (12, 2, 40)
        config = SimConfig.from_json(json.dumps({
            "system": "concat", "ebno_db": [3], "schedule": {"outer_iters": 3, "inner_iters": 6},
        }))
        assert config.schedule == ci.Schedule(3, 6, True)

    def test_boolean_flags_parse(self):
        config = SimConfig.from_json(json.dumps({
            "system": "concat", "ebno_db": [1.0], "schedule": {"freeze_converged": False},
        }))
        assert config.schedule.freeze_converged is False
        config = SimConfig.from_json(json.dumps({
            "system": "concat", "ebno_db": [1.0], "schedule": {"freeze_converged": True},
        }))
        assert config.schedule.freeze_converged is True

    def test_empty_ebno_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            SimConfig(system="single", ebno_db=(), output="x.csv", code="y")

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^master_seed must be >= 0, not -1$"):
            SimConfig(system="single", ebno_db=(1.0,), output="x.csv", code="y", master_seed=-1)

    def test_max_blocks_past_trial_streams_rejected(self):
        # trial indices 0 .. max_blocks - 1 must stay below 2^32
        assert StopRule(1, 2**32).max_blocks == 2**32
        with pytest.raises(ConfigError, match=r"^max_blocks must be <= 2\*\*32"):
            StopRule(1, 2**32 + 1)

    def test_missing_files_rejected(self, tmp_path):
        config = SimConfig(
            system="single", ebno_db=(1.0,), output="x.csv",
            code=str(tmp_path / "nothing"),
        )
        with pytest.raises(FileNotFoundError):
            load_system(config)


class TestRunCurve:
    def test_noiseless_debug_flag_gives_zero_errors(self, toy_files, tmp_path):
        # at 12 dB the toy code sees no noise that matters
        config = concat_config(
            toy_files, ebno_db=(12.0,), output=str(tmp_path / "clean.csv"),
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

    @pytest.mark.parametrize("body, line_no", [
        (b"6,10,0,0,0.0,0.0,1.0,2.0,3\n\n", 3),
        (b"6.0,10,0,0,0.0,0.0,1.0,2.0,3\n", 2),
        (b"6,10,0,0,0.0,0.0,1.0,2.0,3\xff\n", 2),
    ], ids=["blank-line", "respelled-ebno", "not-utf8"])
    def test_resume_refuses_a_row_not_as_written(self, toy_files, tmp_path, body, line_no):
        out = tmp_path / "respelled.csv"
        text = CSV_HEADER.encode() + b"\n" + body
        out.write_bytes(text)
        config = concat_config(toy_files, output=str(out))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(out))}:{line_no}: malformed row "):
            run_curve(config)
        assert out.read_bytes() == text

    @pytest.mark.parametrize("row", [
        "3,10,3,2,0.0375,0.9,0.0,1.0,0",
        "3,10,0,2,0.0,0.9,0.0,1.0,0",
        "3,10,0,2,0.0,0.2,0.0,1.0,0",
        "3,10,3,0,0.0375,0.0,0.0,1.0,0",
        "3,10,1,2,0.0125,0.2,0.0,1.0,0",
        "3,10,12,12,0.15,1.2,0.0,1.0,0",
        "3,10,0,0,0.5,0.0,0.0,1.0,0",
        "3,10,3,2,nan,0.2,0.0,1.0,0",
        "3,10,3,2,1.5,0.2,0.0,1.0,0",
        "3,0,0,0,0.0,0.0,0.0,1.0,0",
        "nan,10,3,2,0.0375,0.2,0.0,1.0,0",
        "inf,10,3,2,0.0375,0.2,0.0,1.0,0",
        "3,10,3,2,0.0375,0.2,0.0,1.0,-1",
        "3,10,3,2,0.0375,0.2,-1.0,1.0,0",
        "3,10,3,2,0.0375,0.2,0.0,-1.0,0",
    ], ids=["fer-not-the-counts", "fer-and-bit-errors-not-the-counts", "block-without-bit-errors",
            "bit-without-block-errors", "fewer-bit-than-block-errors", "more-block-errors-than-blocks",
            "ber-without-bit-errors", "nan-ber", "ber-past-one", "no-blocks", "nan-ebno", "inf-ebno",
            "negative-seed", "negative-mean-outer-iters", "negative-mean-component-iters"])
    def test_read_curve_refuses_counts_no_run_writes(self, tmp_path, row):
        # each row survives the format_row round trip of its columns as written
        out = tmp_path / "counts.csv"
        out.write_text(f"{CSV_HEADER}\n3,10,3,2,0.0375,0.2,0.0,1.0,0\n{row}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(out))}:3: malformed row {re.escape(repr(row))}"):
            bench.read_curve(out)

    def test_resume_refuses_a_row_of_another_block_size(self, toy_files, tmp_path):
        # a single-code row of the toy outer code counts 8 source bits a block,
        # a concat block of the same codes 64; same seed and Eb/N0
        out = tmp_path / "single.csv"
        stop = StopRule(min_block_errors=2, max_blocks=200)
        run_curve(SimConfig(system="single", code=str(toy_files / "outer"), ebno_db=(2.0,),
                            stop=stop, master_seed=3, output=str(out)))
        (row,) = out.read_text(encoding="utf-8").splitlines()[1:]
        assert int(row.split(",")[2]) > 0  # a row without bit errors has ber 0 at every block size
        first = out.read_bytes()
        with pytest.raises(ConfigError, match=f"^{re.escape(str(out))}:2: row's ber is not "):
            run_curve(concat_config(toy_files, ebno_db=(2.0,), output=str(out), stop=stop))
        assert out.read_bytes() == first

    def test_resume_refuses_more_bit_errors_than_source_bits(self, toy_files, tmp_path):
        # 10**400 / 64 is past a float, so the count is refused before the ber is compared
        out = tmp_path / "overflow.csv"
        out.write_text(f"{CSV_HEADER}\n6,1,{10**400},1,0.5,1.0,1.0,2.0,3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(out))}:2: row's ber is not "):
            run_curve(concat_config(toy_files, output=str(out)))

    def test_resume_refuses_rows_of_another_seed(self, toy_files, tmp_path):
        out = tmp_path / "seeded.csv"
        stop = StopRule(min_block_errors=2, max_blocks=20)
        run_curve(concat_config(toy_files, ebno_db=(3.0,), output=str(out), stop=stop, master_seed=1))
        first = out.read_bytes()
        other = concat_config(toy_files, ebno_db=(3.0,), output=str(out), stop=stop, master_seed=5)
        with pytest.raises(ConfigError, match="seed"):
            run_curve(other)
        assert out.read_bytes() == first

    def test_refused_ebno_leaves_no_output_file(self, toy_files, tmp_path):
        out = tmp_path / "refused.csv"
        config = concat_config(toy_files, ebno_db=(3.0, 4000.0), output=str(out))
        with pytest.raises(ValueError, match="4000.0 dB gives no usable noise level"):
            run_curve(config)
        assert not out.exists()

    def test_repeated_ebno_measured_once(self, toy_files, tmp_path):
        out = tmp_path / "repeated.csv"
        stop = StopRule(min_block_errors=2, max_blocks=20)
        points = run_curve(concat_config(toy_files, ebno_db=(3.0, 4.0, 3.0), output=str(out),
                                         stop=stop))
        assert [p.ebno_db for p in points] == [3.0, 4.0]
        assert [row.split(",", 1)[0] for row in out.read_text().splitlines()[1:]] == ["3", "4"]

    def test_zero_and_negative_zero_are_one_point(self, toy_files, tmp_path):
        out = tmp_path / "zero.csv"
        stop = StopRule(min_block_errors=2, max_blocks=20)
        points = run_curve(concat_config(toy_files, ebno_db=(0.0, -0.0), output=str(out),
                                         stop=stop))
        assert [repr(p.ebno_db) for p in points] == ["0.0"]
        rows = out.read_text().splitlines()
        assert [row.split(",", 1)[0] for row in rows[1:]] == ["0"]
        # a resume under -0.0 keeps the row of 0 and measures nothing
        (point,) = run_curve(concat_config(toy_files, ebno_db=(-0.0,), output=str(out), stop=stop))
        assert repr(point.ebno_db) == "0.0"
        assert out.read_text().splitlines() == rows

    def test_refused_ebno_leaves_existing_output_unchanged(self, toy_files, tmp_path):
        out = tmp_path / "kept.csv"
        stop = StopRule(min_block_errors=2, max_blocks=20)
        run_curve(concat_config(toy_files, ebno_db=(3.0,), output=str(out), stop=stop))
        first = out.read_bytes()
        config = concat_config(toy_files, ebno_db=(3.0, 4.0, 4000.0), output=str(out), stop=stop)
        with pytest.raises(ValueError, match="4000.0 dB gives no usable noise level"):
            run_curve(config)
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

    def test_curve_point_derives_its_fer_from_its_counts(self):
        assert "fer" not in [f.name for f in fields(bench.CurvePoint)]
        point = bench.CurvePoint(3.0, 10, 3, 2, 0.0375, 0.0, 1.0, 0.0)
        assert point.fer == 0.2
        assert format_row(point, 0) == "3,10,3,2,0.0375,0.2,0.0,1.0,0"

    def test_curve_point_counts_at_most_its_block_errors_as_undetected(self, tmp_path):
        for undetected in (None, 0, 2):
            point = bench.CurvePoint(3.0, 10, 3, 2, 0.0375, 0.0, 1.0, 0.0, undetected)
            assert format_row(point, 0) == "3,10,3,2,0.0375,0.2,0.0,1.0,0"
        for undetected in (-1, 3):
            with pytest.raises(ValueError, match="undetected"):
                bench.CurvePoint(3.0, 10, 3, 2, 0.0375, 0.0, 1.0, 0.0, undetected)
        # a curve row holds no undetected count, so a point read back has none
        path = tmp_path / "curve.csv"
        path.write_text(CSV_HEADER + "\n3,10,3,2,0.0375,0.2,0.0,1.0,0\n")
        ((_, _, point, _),) = bench.read_curve(path)
        assert point.undetected is None

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
        # every component decode reuses its graph's working rows, so a trial
        # must come out the same whatever was decoded before it
        outer, inner = toy_pair()
        system = ConcatSystem(
            ci.ConcatCode(outer, inner, ci.random_permutation(16, 24, 3)), ci.Schedule(5, 5)
        )
        sigma = ci.ebno_sigma(4.0, system.rate)
        together = bench._run_trials(system, 0, 6, sigma, 9)
        rng = np.random.default_rng(0)
        alone = {}
        for i in rng.permutation(6):
            for code in (outer, inner):
                decode_rows(code, rng.normal(1.0, 2.0, size=(40, 24)), None, 7)
            (alone[i],) = bench._run_trials(system, i, i + 1, sigma, 9).tolist()
        assert together.tolist() == [alone[i] for i in range(6)]
        assert set(together[:, 1]) == {0, 1}  # some blocks fail, some do not


class TestConcatTrialsDrawWhatNumPyDraws:
    """A concat task draws its blocks through channel.TrialStreams; each
    block must draw what NumPy's own Generator draws for its trial, through
    the NumPy reference channel, so that no row moves with the port."""

    @staticmethod
    def toy_system() -> tuple[ConcatSystem, float]:
        outer, inner = toy_pair()
        system = ConcatSystem(
            ci.ConcatCode(outer, inner, ci.random_permutation(16, 24, 3)), ci.Schedule(5, 5)
        )
        return system, ci.ebno_sigma(4.0, system.rate)

    @pytest.mark.parametrize("master_seed", [1, 2**40 + 5], ids=["one-word", "two-words"])
    def test_run_equals_a_numpy_generator_replica(self, master_seed):
        system, sigma = self.toy_system()
        cc = system.code
        rows = []
        for lo, hi in ((0, 6), (77, 78), (2**32 - 3, 2**32)):
            got = bench._run_trials(system, lo, hi, sigma, master_seed)
            for i, row in zip(range(lo, hi), got.tolist()):
                gen = ci.RngStream(master_seed, i).generator()
                source = random_bits(gen, cc.K * cc.K).reshape(cc.K, cc.K)
                tx = ci.concat_encode(cc, source)
                llrs = ci.channel_llr(ci.awgn(ci.modulate(tx), sigma, gen), sigma)
                res = ci.concat_decode(cc, llrs, system.schedule)
                errors = int((res.source_bits != source).sum())
                assert row == [errors, errors > 0, res.outer_iters_used, res.component_decode_calls,
                               res.component_iterations, errors > 0 and res.converged], i
                rows.append(row)
        assert {row[1] for row in rows} == {0, 1}  # some blocks fail, some do not

    def test_a_four_block_task_equals_four_one_block_tasks(self):
        # a pooled task draws four blocks' bits, then their LLRs, in one call each
        system, sigma = self.toy_system()
        rows = []
        for lo in (0, 2**32 - 4):
            together = bench._run_trials(system, lo, lo + 4, sigma, 1)
            alone = [bench._run_trials(system, i, i + 1, sigma, 1) for i in range(lo, lo + 4)]
            assert together.tolist() == np.concatenate(alone).tolist(), lo
            rows += together.tolist()
        assert {row[1] for row in rows} == {0, 1}


@dataclass(frozen=True)
class HardDecision:
    """Five uncoded bits a trial, decided by the sign of their LLRs: each
    decode reports two outer iterations, three component decodes, seven
    component iterations plus the ones it decided, and ends valid or not."""

    valid: bool
    rate = 1.0
    source_bits = 5
    trials_per_task = 1

    def encode(self, sources: np.ndarray) -> np.ndarray:
        return sources

    def decode(self, llrs: np.ndarray) -> tuple:
        decided = llrs < 0.0
        return decided, (np.full(len(llrs), 2), 3, 7 + decided.sum(axis=1), self.valid)


class TestTrialLoop:
    """bench._run_trials draws, encodes, forms the LLRs, decodes and counts
    the trials of any system."""

    @pytest.mark.parametrize("valid", [True, False], ids=["ended-valid", "ended-invalid"])
    def test_columns_and_the_undetected_rule(self, valid):
        results = bench._run_trials(HardDecision(valid), 3, 15, 1.0, 4)
        streams = ci.TrialStreams(4, 3, 15)
        sources = streams.bits(5)
        decided = streams.llrs(sources, 1.0) < 0.0
        errors = (decided != sources).sum(axis=1).tolist()
        ones = decided.sum(axis=1).tolist()
        assert results.dtype == np.int64
        assert results.tolist() == [[e, int(e > 0), 2, 3, 7 + d, int(e > 0 and valid)]
                                    for e, d in zip(errors, ones)]
        assert set(results[:, 1]) == {0, 1}  # some trials fail, some do not

    def test_a_task_equals_its_one_trial_tasks(self):
        system = HardDecision(True)
        together = bench._run_trials(system, 3, 15, 1.0, 4)
        alone = [bench._run_trials(system, i, i + 1, 1.0, 4) for i in range(3, 15)]
        assert together.tolist() == np.concatenate(alone).tolist()
        assert set(together[:, 1]) == {0, 1}


@dataclass(frozen=True)
class TaskLog:
    """A system of trials_per_task trials a task, whose every trial is a block
    error and whose every task appends its trial range, lo and hi, to the
    file at path.  The task_log fixture makes bench._run_trials run its tasks
    through trials, and returns the system of a given task size."""

    path: str
    trials_per_task: int
    rate = 0.5
    source_bits = 1

    def trials(self, lo: int, hi: int, sigma: float, master_seed: int) -> np.ndarray:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(f"{lo} {hi}\n")
        return np.array([(1, 1, 0, 1, 1, 0)] * (hi - lo), dtype=np.int64)

    def ranges(self) -> list[tuple[int, int]]:
        text = Path(self.path).read_text(encoding="utf-8")
        return [tuple(map(int, line.split())) for line in text.splitlines()]


@pytest.fixture
def task_log(monkeypatch, tmp_path):
    # a forked pool worker inherits the patch
    monkeypatch.setattr(bench, "_run_trials", TaskLog.trials)
    return functools.partial(TaskLog, str(tmp_path / "tasks.txt"))


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor.  A task runs when its
    result is taken; events records the worker count the pool is started
    with, each submit with the number of tasks then submitted and not yet
    taken, and each take."""

    events: list = []

    def __init__(self, workers, initializer, initargs):
        initializer(*initargs)
        self.outstanding = 0
        self.events.append(("start", workers))

    def submit(self, fn, task):
        self.outstanding += 1
        self.events.append(("submit", task[0], self.outstanding))
        pool = self

        class Future:
            def result(self):
                pool.outstanding -= 1
                pool.events.append(("take", task[0]))
                return fn(task)

        return Future()

    def shutdown(self, cancel_futures):
        assert cancel_futures


class TestPoolWaves:
    """A pool starts with one task per worker and grows to 2 x workers tasks
    in flight once the first task's results are taken, and has no more
    workers than the point has tasks.  Each task here holds four trials."""

    @pytest.fixture
    def events(self, monkeypatch):
        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(bench, "_WORKER", ())
        monkeypatch.setattr(RecordingPool, "events", [])
        return RecordingPool.events

    @pytest.mark.parametrize("workers, max_blocks, expected", [
        (2, 18, [("start", 2), ("submit", 0, 1), ("submit", 4, 2), ("take", 0),
                 ("submit", 8, 2), ("submit", 12, 3), ("submit", 16, 4),
                 ("take", 4), ("take", 8), ("take", 12), ("take", 16)]),
        (3, 30, [("start", 3), ("submit", 0, 1), ("submit", 4, 2), ("submit", 8, 3), ("take", 0),
                 ("submit", 12, 3), ("submit", 16, 4), ("submit", 20, 5), ("submit", 24, 6),
                 ("take", 4), ("submit", 28, 6), ("take", 8), ("take", 12), ("take", 16),
                 ("take", 20), ("take", 24), ("take", 28)]),
        # a fork pool launches every worker at its first submit, so it is
        # started with no more workers than the point has tasks
        (3, 6, [("start", 2), ("submit", 0, 1), ("submit", 4, 2), ("take", 0), ("take", 4)]),
        (10**6, 6, [("start", 2), ("submit", 0, 1), ("submit", 4, 2), ("take", 0), ("take", 4)]),
        (2, 1, [("start", 1), ("submit", 0, 1), ("take", 0)]),
    ], ids=["2", "3", "3-on-2-tasks", "10**6-on-2-tasks", "2-on-1-task"])
    def test_first_wave_then_two_per_worker(self, events, workers, max_blocks, expected, task_log):
        system = task_log(4)
        point = measure_point(system, 3.0, StopRule(10_000, max_blocks), 9, workers=workers)
        assert point.blocks_run == max_blocks
        assert events == expected
        lows = range(0, max_blocks, 4)
        assert system.ranges() == [(lo, min(lo + 4, max_blocks)) for lo in lows]

    @pytest.mark.parametrize("min_block_errors", [1, 4])
    @pytest.mark.parametrize("workers, expected", [
        (2, [("start", 2), ("submit", 0, 1), ("submit", 4, 2), ("take", 0)]),
        (4, [("start", 4), ("submit", 0, 1), ("submit", 4, 2), ("submit", 8, 3),
             ("submit", 12, 4), ("take", 0)]),
    ])
    def test_stop_inside_the_first_task_submits_only_the_first_wave(
        self, events, workers, expected, min_block_errors, task_log
    ):
        system = task_log(4)
        point = measure_point(system, 3.0, StopRule(min_block_errors, 1000), 9, workers=workers)
        assert point.blocks_run == min_block_errors
        assert events == expected


class TestTrialRounds:
    """Single-code tasks encode, pass the channel and decode 512 trials at
    once, a concat task runs four blocks, and tasks run in trial
    order, one at a time in-process and at most 2 x workers at once on a
    pool; no result may depend on any of these."""

    @pytest.mark.parametrize("stop_at", [0, 5])
    def test_in_process_point_runs_exactly_the_trials_up_to_its_stop(self, task_log, stop_at):
        system = task_log(1)
        point = measure_point(system, 3.0, StopRule(stop_at + 1, 1000), 9, workers=1)
        assert point.blocks_run == stop_at + 1
        assert system.ranges() == [(i, i + 1) for i in range(stop_at + 1)]

    @pytest.mark.parametrize("stop_at", [0, 5, 11])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_runs_at_most_two_tasks_per_worker_past_the_stop(
        self, task_log, workers, stop_at
    ):
        # the tasks before the stop's all run, each of four trials; the
        # cancelled ones never run
        system = task_log(4)
        point = measure_point(system, 3.0, StopRule(stop_at + 1, 1000), 9, workers=workers)
        assert point.blocks_run == stop_at + 1
        ran = sorted(system.ranges())
        assert all(lo % 4 == 0 and hi == lo + 4 for lo, hi in ran)
        first = stop_at // 4 * 4
        assert [lo for lo, _ in ran if lo <= first] == list(range(0, first + 4, 4))
        assert len([lo for lo, _ in ran if lo >= first]) <= 2 * workers
        past = sum(hi - max(lo, stop_at + 1) for lo, hi in ran if hi > stop_at + 1)
        assert past < 2 * workers * 4

    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_concat_rows_do_not_depend_on_where_the_stop_falls_in_a_pooled_task(self, where):
        # the stop trial is the first, an inner or the last trial of a pooled
        # task that is not the first; rows are those of the per-trial scan
        outer, inner = toy_pair()
        system = ConcatSystem(
            ci.ConcatCode(outer, inner, ci.random_permutation(16, 24, 3)), ci.Schedule(5, 5)
        )
        step = system.trials_per_task
        trials = bench._run_trials(system, 0, 200, ci.ebno_sigma(4.0, system.rate), 9)
        errors_at = np.flatnonzero(trials[:, 1])
        k, stop_at = next((k, int(e)) for k, e in enumerate(errors_at, start=1)
                          if e >= 4 * step and e % step == where)
        expected = trials[: stop_at + 1].sum(axis=0)
        rows = set()
        for workers in (1, 2, 3):
            point = measure_point(system, 4.0, StopRule(k, 200), 9, workers=workers)
            assert (point.blocks_run, point.bit_errors, point.block_errors) == (
                stop_at + 1, *expected[:2].tolist())
            rows.add(format_row(point, 9))
        assert len(rows) == 1

    def test_wide_task_equals_one_trial_runs_and_narrow_pieces(self):
        outer, _ = toy_pair()
        system = SingleSystem(outer, 20)
        assert system.trials_per_task == 512
        sigma = ci.ebno_sigma(3.0, system.rate)
        whole = bench._run_trials(system, 0, 600, sigma, 9)
        pieces = np.concatenate([bench._run_trials(system, lo, min(lo + 64, 600), sigma, 9)
                                 for lo in range(0, 600, 64)])
        alone = np.concatenate([bench._run_trials(system, i, i + 1, sigma, 9) for i in range(600)])
        assert whole.dtype == np.int64 and whole.shape == (600, 6)
        assert np.array_equal(whole, pieces) and np.array_equal(whole, alone)
        assert set(whole[:, 1]) == {0, 1}

    def test_task_arrays_hold_what_a_fresh_decode_gives(self, paper_outer, paper_inner, toy_outer):
        # tasks grow and shrink their use of the process's grow-only
        # buffers, a point's last task is shorter, and a code of another N
        # and a paper-size concat task, whose LLRs outgrow the single-code
        # tasks' in the buffer they share, decode in between; every task
        # must give what a decode of its trials in fresh arrays gives
        sigma = ci.ebno_sigma(2.5, paper_outer.rate)
        cc = ci.ConcatCode(paper_outer, paper_inner, ci.random_permutation(128, 181, 1))
        for code, lo, hi in ((paper_outer, 0, 512), (paper_outer, 512, 600), (toy_outer, 0, 40),
                             (cc, 0, 4), (paper_outer, 600, 1112), (toy_outer, 40, 41),
                             (paper_outer, 3, 4)):
            streams = ci.TrialStreams(5, lo, hi)
            if code is cc:
                system = ConcatSystem(cc, ci.Schedule())
                results = bench._run_trials(system, lo, hi, sigma, 5)
                sources = streams.bits(system.source_bits)
                llrs = streams.llrs(system.encode(sources), sigma)
                for row, source, received in zip(results.tolist(), sources, llrs):
                    res = ci.concat_decode(cc, received.reshape(181, 181), system.schedule)
                    e = int((res.source_bits.ravel() != source).sum())
                    assert row == [e, int(e > 0), res.outer_iters_used, res.component_decode_calls,
                                   res.component_iterations, int(e > 0 and res.converged)]
                continue
            results = bench._run_trials(SingleSystem(code, 30), lo, hi, sigma, 5)
            sources = streams.bits(code.K)
            fresh = decode_rows(code, streams.llrs(ci.encode_batch(code, sources), sigma), None, 30)
            size = (hi - lo) * code.N
            _, extrinsic, posterior = (buffer[:size].reshape(hi - lo, code.N)
                                       for buffer in bench._TASK_BUFFERS)
            assert np.array_equal(posterior, fresh.posterior)
            assert np.array_equal(extrinsic, fresh.extrinsic)
            bit_errors = (fresh.hard_bits[:, : code.K] != sources).sum(axis=1)
            expected = [(e, int(e > 0), 0, 1, i, int(e > 0 and v))
                        for e, i, v in zip(bit_errors.tolist(), fresh.iterations_used.tolist(),
                                           fresh.valid.tolist())]
            assert results.tolist() == [list(trial) for trial in expected]
            assert all(buffer.size >= size for buffer in bench._TASK_BUFFERS)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("min_block_errors", [1, 90, 203])
    def test_array_scan_stops_where_the_per_trial_scan_stops(self, workers, min_block_errors):
        # at 3 dB the toy code's 1st, 90th and 203rd block errors fall inside
        # the first, second and fourth 512-trial task
        outer, _ = toy_pair()
        system = SingleSystem(outer, 20)
        trials = bench._run_trials(system, 0, 2048, ci.ebno_sigma(3.0, system.rate), 9).tolist()
        totals, blocks = [0] * 6, 0
        for trial in trials:  # the per-trial scan measure_point made before
            blocks += 1
            totals = [a + b for a, b in zip(totals, trial)]
            if totals[1] >= min_block_errors:
                break
        assert blocks % 512 not in (0, 511)
        point = measure_point(system, 3.0, StopRule(min_block_errors, 2048), 9, workers)
        assert (point.blocks_run, point.bit_errors, point.block_errors) == (blocks, *totals[:2])
        assert point.mean_component_iters == totals[4] / totals[3]
        assert point.undetected == totals[5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_paper_shape_single_code_row_is_pinned(self, paper_outer, workers):
        # the seed-1 code at 3 dB and 100 iterations: 600 trials are two
        # 512-trial tasks, and the row is the one 256-trial tasks wrote
        system = SingleSystem(paper_outer, 100)
        point = measure_point(system, 3.0, StopRule(10_000, 600), 1000, workers=workers)
        assert format_row(point, 1000) == (
            "3,600,304,46,0.003958333333333334,0.07666666666666666,0.0,11.315,1000"
        )

    def test_paper_code_trial_results_are_pinned(self, paper_outer):
        # 203 trials from trial 37, at master seeds of one and three entropy
        # words; the digest is that of the generator-per-trial harness, which
        # returned each trial's first five fields as a tuple.  The sixth,
        # undetected error, came later and is pinned by the trials that have one
        system = SingleSystem(paper_outer, 100)
        digest = hashlib.sha256()
        undetected = []
        for master_seed in (1000, 2**64 + 3):
            for ebno in (2.0, 3.0, 4.0):
                sigma = ci.ebno_sigma(ebno, system.rate)
                results = bench._run_trials(system, 37, 37 + 203, sigma, master_seed)
                digest.update(repr([tuple(trial) for trial in results[:, :5].tolist()]).encode())
                assert (results[:, 5] <= results[:, 1]).all()
                undetected.append((37 + np.flatnonzero(results[:, 5])).tolist())
        assert digest.hexdigest() == (
            "32c85d512cf763731756264027481a684775b347c97e2ff7077cbce3a8cd1162"
        )
        assert undetected == [[197, 234], [151, 174, 188, 197], [151, 174], [238], [], []]

    # rows written by the harness when an in-process round was 64 trials and a
    # single-code task 64 trials; each stop rule fires inside a round.  The
    # undetected counts came later, and are pinned as this harness gives them:
    # the concat point's 2 blocks whose components each ended valid, on
    # decisions that disagree, are no longer among them
    @pytest.mark.parametrize(
        "kind, ebno, stop, row, undetected",
        [
            ("concat", 5.0, StopRule(5, 500),
             "5,56,8,5,0.0005580357142857143,0.08928571428571429,2.267857142857143,1.5864045864045864,9",
             0),
            ("single", 3.0, StopRule(90, 5000),
             "3,750,197,90,0.016416666666666666,0.12,0.0,3.3893333333333335,9", 22),
            ("single", 5.0, StopRule(10_000, 300),
             "5,300,14,7,0.002916666666666667,0.023333333333333334,0.0,1.6133333333333333,9", 2),
        ],
        ids=["concat", "single-errors", "single-max-blocks"],
    )
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_rows_match_the_narrow_round_harness(self, kind, ebno, stop, row, undetected, workers):
        outer, inner = toy_pair()
        if kind == "concat":
            system = ConcatSystem(
                ci.ConcatCode(outer, inner, ci.random_permutation(16, 24, 3)), ci.Schedule(5, 5)
            )
        else:
            system = SingleSystem(outer, 20)
        point = measure_point(system, ebno, stop, 9, workers=workers)
        assert format_row(point, 9) == row
        assert point.undetected == undetected


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
