"""Smoke tests for the scripts under scripts/, which are not importable as a
package and so are loaded from their files."""

import importlib.util
from pathlib import Path

from concat_ira.bench import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_directional_check_writes_one_row_per_arm(tmp_path):
    script = load_script("directional_check")
    prefix = tmp_path / "directional"
    status = script.main([
        "--pilot-candidates", "2", "--pilot-blocks", "2",
        "--min-block-errors", "1", "--max-blocks", "3",
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
