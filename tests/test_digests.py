"""tools/digests.py's comparison and options, on synthetic trees; it runs no recipe."""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
_SPEC = importlib.util.spec_from_file_location("digests", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "points.csv").write_bytes(b"x,y\r\n0.5,1.0\r\n")
    (tmp_path / "out" / "run").mkdir(parents=True)
    (tmp_path / "out" / "run" / "report.json").write_text('{"seed": 1}\n')
    (tmp_path / "experiments").mkdir()  # not part of the set
    (tmp_path / "experiments" / "run.yaml").write_text("seed: 1\n")
    return tmp_path


def record_of(tree):
    return {"key": digests.environment_key(), "files": digests.digest_tree(tree)}


def test_match(tree, capsys):
    record = record_of(tree)
    assert sorted(record["files"]) == ["data/points.csv", "out/run/report.json"]
    assert digests.compare(record, tree) == 0
    assert "check passed: all 2 files match" in capsys.readouterr().out


@pytest.mark.parametrize("change, state", [
    (lambda tree: (tree / "out" / "run" / "report.json").write_text('{"seed": 2}\n'),
     "differs: out/run/report.json"),
    (lambda tree: (tree / "data" / "points.csv").unlink(), "missing: data/points.csv"),
    (lambda tree: (tree / "out" / "run" / "grid.csv").write_text("x\r\n"),
     "not in the record: out/run/grid.csv"),
])
def test_mismatch(tree, capsys, change, state):
    record = record_of(tree)
    change(tree)
    assert digests.compare(record, tree) == 1
    out, err = capsys.readouterr()
    assert state in err.splitlines()
    assert "passed" not in out


def test_another_key_checks_nothing(tree, capsys):
    record = record_of(tree)
    record["key"] = dict(record["key"], blas="another-blas 0.0")
    assert digests.compare(record, tree) == 2
    out, err = capsys.readouterr()
    assert "another key; nothing was checked" in err
    assert "another-blas 0.0" in err
    assert "passed" not in out


# a stand-in hsmc package: each command writes one small file where the real
# one writes its outputs, naming the package, the arguments it was given and
# its OPENBLAS_NUM_THREADS
FAKE_CLI = """
import os
import sys
from pathlib import Path

MARK = Path(__file__).read_text().splitlines()[-1]
command, *args = sys.argv[1:]
if command == "gen-data":
    kind, n, seed, path = args
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(f"{kind} {n} {seed}\\n")
else:
    recipe = Path(args[0])
    (output,) = [line for line in recipe.read_text().splitlines() if line.startswith("output:")]
    out = recipe.parent / output.split()[1]
    out.mkdir(parents=True)
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    (out / "run.txt").write_text(" ".join([MARK, *args[1:], f"blas={blas}"]) + "\\n")
"""


def fake_src(path: Path, mark: str) -> Path:
    (path / "hsmc").mkdir(parents=True)
    (path / "hsmc" / "__init__.py").write_text("")
    (path / "hsmc" / "cli.py").write_text(FAKE_CLI + f"# {mark}\n")
    return path


def test_src_and_record_write_and_check_another_file(tmp_path, capsys):
    reference = digests.DIGESTS.read_bytes()
    src, record = fake_src(tmp_path / "base", "base"), tmp_path / "base.json"
    assert digests.main(["write", "--src", str(src), "--record", str(record)]) == 0
    files = json.loads(record.read_text())["files"]
    # 3 datasets, 5 sequential recipes at 2 thread counts, the 2 of several
    # groups under 2 BLAS threads, and 9 recipes as shipped
    assert len(files) == 3 + 5 * 2 + 2 + 9
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    for name, text in (("out/smiley_hsmc/run.txt", f"# base blas={blas}\n"),
                       ("out/smiley_hsmc-record-all-threads-2/run.txt",
                        f"# base --record-all --threads 2 blas={blas}\n"),
                       ("out/dropwave_hsmc-record-all-threads-2-openblas-2/run.txt",
                        "# base --record-all --threads 2 blas=2\n")):
        assert files[name] == hashlib.sha256(text.encode()).hexdigest()
    assert "out/logit_hsmc-record-all-threads-2-openblas-2/run.txt" not in files
    # another package's outputs differ from the record in every run file
    head = fake_src(tmp_path / "head", "head")
    assert digests.main(["check", "--src", str(head), "--record", str(record)]) == 1
    err = capsys.readouterr().err
    assert "differs: out/smiley_hsmc/run.txt" in err.splitlines()
    assert "differs: data/smiley.csv" not in err
    assert f"check failed: {len(files) - 3} of {len(files)} files" in err
    assert digests.DIGESTS.read_bytes() == reference


def test_src_must_hold_the_package(tmp_path):
    with pytest.raises(SystemExit):
        digests.main(["check", "--src", str(tmp_path), "--record", str(tmp_path / "r.json")])
