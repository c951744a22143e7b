"""Every function in src/ is one the README's CLI workflow enters, or is on
a short list of functions it cannot enter, each with its reason.

A function that only tests, oracles or scripts call fails this test: it
belongs in tests/oracles.py, or a test reaches its code through the product
entry point that runs it.
"""

import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import concat_ira
from concat_ira import cli

SRC = Path(concat_ira.__file__).parent

# the functions the workflow below never enters, and why each stays in src/
NEVER_ENTERED = {
    "gf2.AlistError.__init__": "reader error path: an .alist file not as saved",
    "gf2._differing_lines": "reader error path: names the first line not as saved",
    "gf2.SparseBinaryMatrix.from_rows":
        "reader error path: load_alist reads the row lines only to name a refused line",
    "bench._init_worker": "pool worker: runs in the child processes",
    "bench._run_task": "pool worker: runs in the child processes",
    "spa._build": "kernel build: done, or found cached, when the package was imported",
    "spa._command": "kernel build: the compiler command of _build",
    "spa._host_cpu": "kernel build: part of _build's cache key",
    "bench.gaussian_q": "statistics: the scripts' and the acceptance test's",
    "bench.two_proportion_z": "statistics: the scripts' and the acceptance test's",
    "spa.decode": "perfbench's tracer patches it by name",
    "ira.encode": "perfbench's tracer patches it by name, as bench.encode",
    "ira.IraCode.graph": "perfbench's set-up reads it",
    "channel.RngStream.generator": "perfbench's tracer patches it by name",
    "channel.modulate": "perfbench's tracer patches it by name, as bench.modulate",
    "channel.awgn": "perfbench's tracer patches it by name, as bench.awgn",
    "channel.channel_llr": "perfbench's tracer patches it by name, as bench.channel_llr",
}


def defined_functions() -> dict[tuple[str, str, int], str]:
    """Every def in the package's modules, class bodies included, keyed as a
    traced frame's code names it (file, name, first line), with its name
    qualified by module and class."""
    found = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[(str(path), const.co_name, const.co_firstlineno)] = name
                walk(const, path, name + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path, path.stem + ".")
    return found


def run(*argv):
    try:
        status = cli.main(list(argv))
    except SystemExit as exc:  # --version
        status = exc.code
    assert status == 0, argv


def readme_workflow():
    """The README's CLI workflow at paper size, in the working directory:
    both codes, analyze, design-interleaver, a concat and a single-code
    curve at workers 1 and 2 (2 dB, where blocks fail), a resume, report
    and --version."""
    run("construct", "--k", "128", "--n", "181", "--seed", "1", "--out", "codes/outer")
    run("construct", "--k", "128", "--n", "181", "--seed", "2", "--out", "codes/inner")
    run("analyze", "--code", "codes/outer", "--out", "analysis/outer")
    run("design-interleaver", "--outer", "codes/outer", "--inner", "codes/inner",
        "--seed", "7", "--out", "perm/designed.perm")
    systems = {
        "concat": {"outer_code": "codes/outer", "inner_code": "codes/inner",
                   "interleaver": "perm/designed.perm"},
        "single": {"code": "codes/outer"},
    }
    for system, files in systems.items():
        for workers in (1, 2):
            config = Path(f"{system}{workers}.json")
            config.write_text(json.dumps({
                "system": system, **files, "ebno_db": [2.0], "min_block_errors": 2,
                "max_blocks": 8, "workers": workers, "master_seed": 1,
                "output": f"results/{system}{workers}.csv",
            }))
            run("simulate", "--config", str(config))
    run("simulate", "--config", "concat1.json")
    run("report", "--out", "merged.csv", *sorted(map(str, Path("results").glob("*.csv"))))
    run("--version")


def never_entered() -> set[str]:
    """The functions of defined_functions that the workflow, run in the
    working directory, does not enter."""
    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        readme_workflow()
    finally:
        sys.setprofile(previous)
    keys = {(code.co_filename, code.co_name, code.co_firstlineno) for code in entered.values()}
    return {name for key, name in defined_functions().items() if key not in keys}


def test_the_cli_workflow_enters_every_function_not_listed(tmp_path):
    # in a new process, as each command runs, so that nothing an earlier test
    # left in the package's caches (compiled graphs, say) is found there
    script = (
        f"import sys; sys.path[:0] = {[str(SRC.parent), str(Path(__file__).parent)]!r}\n"
        "import json, test_reachability\n"
        "print(json.dumps(sorted(test_reachability.never_entered())))\n"
    )
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert len(defined_functions()) > 100
    assert set(json.loads(done.stdout.splitlines()[-1])) == set(NEVER_ENTERED)
    assert all(NEVER_ENTERED.values())
