"""Write or check the SHA-256 digests of the standard output set.

Usage, from anywhere::

    python tools/digests.py write   # run the set, record tools/digests.json
    python tools/digests.py check   # run the set, compare with tools/digests.json

    # another checkout's outputs as the record, then this checkout's against them
    python tools/digests.py write --src ../base/src --record /tmp/base.json
    python tools/digests.py check --record /tmp/base.json

The standard set is 64 files, made in a temporary directory by the hsmc
package of this checkout's ``src/``, or of the ``--src`` directory, from
this checkout's recipes:

* the 3 README datasets (``hsmc gen-data``);
* the 9 recipes under ``experiments/``, each run as shipped;
* the 5 sequential recipes again with ``--record-all``, at ``--threads 1``
  and ``--threads 2``;
* the 2 sequential recipes of several groups, ``dropwave_hsmc`` and
  ``smiley_hsmc``, once more with ``--record-all --threads 2`` under
  ``OPENBLAS_NUM_THREADS=2``.  OpenBLAS's worker thread then keeps
  ``run_smc`` from forking, so these runs take its thread path.

The bits depend on NumPy, its BLAS and the CPU features its dispatch
found, so the file is keyed by them.  ``check`` under another key says
so and exits 2 without running anything: it never reports a pass for a
check it did not run.  A difference exits 1, a full match 0.  ``--record``
names the file to write or check in place of ``tools/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("digests.json")
# the README's Quickstart datasets, which the recipes read
DATASETS = (("smiley", 2048, 2024), ("dropwave", 4096, 31), ("logit", 400, 0))


def environment_key() -> dict:
    """What the bits depend on besides the code: NumPy, its BLAS and the CPU dispatch."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd_baseline": list(simd["baseline"]), "simd_found": list(simd["found"])}


def digest_tree(root: Path) -> dict[str, str]:
    """The SHA-256 of every file under ``root``'s ``data`` and ``out``, by relative path."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for sub in ("data", "out") for path in sorted((root / sub).rglob("*"))
            if path.is_file()}


def key_differs(record: dict) -> bool:
    """True, after saying so on stderr, when ``record`` was written under another key."""
    key = environment_key()
    if record["key"] == key:
        return False
    print("digests were written under another key; nothing was checked", file=sys.stderr)
    print(f"  recorded: {json.dumps(record['key'])}", file=sys.stderr)
    print(f"  here:     {json.dumps(key)}", file=sys.stderr)
    return True


def compare(record: dict, root: Path) -> int:
    """Check the files under ``root`` against ``record``; the exit status.

    2 under another key, 1 when a file differs, is missing or is not in
    the record, 0 when every file matches.
    """
    if key_differs(record):
        return 2
    expected, found = record["files"], digest_tree(root)
    names = sorted(expected.keys() | found.keys())
    bad = [name for name in names if expected.get(name) != found.get(name)]
    for name in bad:
        state = ("missing" if name not in found else
                 "not in the record" if name not in expected else "differs")
        print(f"{state}: {name}", file=sys.stderr)
    if bad:
        print(f"check failed: {len(bad)} of {len(names)} files", file=sys.stderr)
        return 1
    print(f"check passed: all {len(names)} files match")
    return 0


def produce(root: Path, src: Path) -> None:
    """Make the standard set under ``root``: ``root/data`` and ``root/out``.

    Each command runs as its own ``python -m hsmc.cli`` process on the
    ``hsmc`` package in ``src``, as the console script would.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def hsmc(*argv, **extra_env):
        subprocess.run([sys.executable, "-m", "hsmc.cli", *map(str, argv)],
                       env=dict(env, **extra_env), check=True)

    shutil.copytree(ROOT / "experiments", root / "experiments")
    for kind, n, seed in DATASETS:
        hsmc("gen-data", kind, n, seed, root / "data" / f"{kind}.csv")
    recipes = sorted((root / "experiments").glob("*.yaml"))
    for recipe in recipes:
        spec = yaml.safe_load(recipe.read_text())
        if spec["algorithm"] not in ("smc", "hsmc"):
            continue
        # moved aside before the next run writes the same directory
        output = recipe.parent / spec["output"]
        for threads in (1, 2):
            hsmc("run", recipe, "--record-all", "--threads", threads)
            output.rename(f"{output}-record-all-threads-{threads}")
        if spec.get("groups", 1) > 1:
            hsmc("run", recipe, "--record-all", "--threads", 2, OPENBLAS_NUM_THREADS="2")
            output.rename(f"{output}-record-all-threads-2-openblas-2")
    for recipe in recipes:
        hsmc("run", recipe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or check the standard set's digests.")
    parser.add_argument("mode", choices=("write", "check"))
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory holding the hsmc package to run (default: %(default)s)")
    parser.add_argument("--record", type=Path, default=DIGESTS,
                        help="the digests file to write or check (default: %(default)s)")
    args = parser.parse_args(argv)
    if not (args.src / "hsmc" / "cli.py").is_file():
        parser.error(f"--src {args.src} holds no hsmc/cli.py")
    record = json.loads(args.record.read_text()) if args.mode == "check" else None
    if record is not None and key_differs(record):
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp), args.src.resolve())
        if record is not None:
            return compare(record, Path(tmp))
        files = digest_tree(Path(tmp))
    args.record.write_text(json.dumps({"key": environment_key(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests to {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
