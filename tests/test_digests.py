"""tools/digests.py's comparison, on a tiny synthetic output tree; it runs no recipe."""

import importlib.util
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
