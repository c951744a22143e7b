"""Smoke tests for the scripts under scripts/, which are not importable as a
package and so are loaded from their files."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import concat_ira as ci
from concat_ira.bench import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_directional_check_writes_one_row_per_arm(tmp_path):
    script = load_script("directional_check")
    prefix = tmp_path / "directional"
    status = script.main([
        "--perm-seed", "801",
        "--min-block-errors", "1", "--max-blocks", "3", "--ebno", "3.0",
        "--trial-seed", "801", "--out-prefix", str(prefix),
    ])
    assert status in (0, 1)
    for arm in ("random", "designed"):
        lines = Path(f"{prefix}_{arm}.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert 1 <= int(fields[1]) <= 3
        assert fields[-1] == "801"
    # --perm-seed 801 makes the random arm random_permutation(128, 181, 801),
    # measured here on trial seed 801
    random_row = Path(f"{prefix}_random.csv").read_text(encoding="utf-8").splitlines()[1]
    assert random_row == "3,1,4,1,0.000244140625,1.0,10.0,6.149905123339659,801"
    designed = ci.load_permutation(f"{prefix}_designed.perm")
    assert designed.seed == 801
    assert designed.design_t >= 1
    row_nodes, col_nodes = (
        frozenset(int(i) for i in line.split()[1:])
        for line in Path(f"{prefix}_designed.perm.sets").read_text(encoding="utf-8").splitlines()
    )
    assert len(row_nodes) == len(col_nodes) == designed.design_t
    sets = ci.SensitiveSets(row_code_nodes=row_nodes, col_code_nodes=col_nodes)
    assert ci.count_bad_mappings(designed, sets).count == 0


def test_waterfall_curves_outputs_are_pinned(tmp_path):
    # values recorded from the script when it built the codes itself and
    # restated the random arm's seed
    script = load_script("waterfall_curves")
    work = tmp_path / "curves"
    assert script.main([
        "--workdir", str(work), "--ebno", "3.0", "--single-ebno", "3.0",
        "--min-block-errors", "1", "--max-blocks", "2",
    ]) == 0
    assert (work / "merged.csv").read_text(encoding="utf-8").splitlines() == [
        "label," + CSV_HEADER,
        "single,3,2,0,0,0.0,0.0,0.0,2.5,1",
        "concat-random,3,2,0,0,0.0,0.0,10.0,5.590336134453781,1",
        "concat-designed,3,2,8,1,0.000244140625,0.5,6.0,5.44503735325507,1",
    ]
    assert sha256(work / "designed.perm") == (
        "e2c3fd1d1742f7186bd10cf5039b5fd005cb0c462a543a5fd0bbc3f4addb4452"
    )
    assert sha256(work / "random.perm") == (
        "315654ced23c6da0f7641106a9d46e4863b60c173d9bf3795d397f9de0693150"
    )


def test_tracer_patches_resolve(monkeypatch):
    # perfbench/run.py --trace 1 replaces each (owner, attr) of layers.PATCHES,
    # so a renamed or deleted program name would fail there with AttributeError
    path = SCRIPTS.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look it up
    spec.loader.exec_module(layers)
    missing = [(owner, attr) for owner, attr, _, _ in layers.PATCHES if not hasattr(owner, attr)]
    assert not missing
