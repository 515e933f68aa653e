"""Output checks on one recipe run's files; every problem found is returned as text.

A run passes when its process exited with 0 and every check here returns
no problem.  The checks only read the files the run wrote, so they never
trust the program's own account of what it did.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

GRID_ROWS = 101 * 101

# criterion 4 of the acceptance suite: the smiley run at its default seeds
SMILEY_MODE_CENTERS = np.array([[2.5, 38.0 / 1.5], [-2.5, 38.0 / 1.5], [0.0, 0.0]])
SMILEY_ORACLE_BOX = ((-7.0, -3.0), (7.0, 28.0))
SMILEY_ORACLE_RESOLUTION = (281, 311)
SMILEY_MIN_ACCEPTED = 2000
SMILEY_MAX_ORACLE_GAP = 0.05
SMILEY_MAX_GROUP_GAP = 0.1


def _read_csv(path: Path, problems: list[str]) -> tuple[list[str], np.ndarray] | None:
    """Header and float rows of a CSV; None (with a problem noted) if malformed."""
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return None
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        problems.append(f"{path.name}: empty")
        return None
    header, body = rows[0], rows[1:]
    try:
        values = np.array([[float(v) for v in row] for row in body], dtype=float)
    except ValueError as err:
        problems.append(f"{path.name}: unparsable value ({err})")
        return None
    if body and (values.ndim != 2 or values.shape[1] != len(header)):
        problems.append(f"{path.name}: rows do not match the {len(header)}-column header")
        return None
    return header, values.reshape(len(body), len(header))


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


def expected_particle_rows(shape: dict, record_all: bool) -> int:
    """Rows of particles.csv for a validated config shape (see child.py)."""
    if shape["algorithm"] in ("mh", "hmc"):
        return shape["groups"] * (shape["length"] + 1)
    kept = shape["length"] + 1 if record_all else 1
    return shape["groups"] * kept * shape["particles"]


def check_outputs(out_dir: Path, shape: dict, record_all: bool, box=None) -> list[str]:
    """Expected files, row counts, finite values and, for boxed runs, containment."""
    problems: list[str] = []
    particles = _read_csv(out_dir / "particles.csv", problems)
    if particles is not None:
        header, values = particles
        want = expected_particle_rows(shape, record_all)
        if values.shape[0] != want:
            problems.append(f"particles.csv: {values.shape[0]} rows, expected {want}")
        if not np.all(np.isfinite(values)):
            problems.append("particles.csv: non-finite values")
        if box is not None and values.size:
            coords = values[:, [i for i, h in enumerate(header) if h.startswith("x")]]
            stage = values[:, header.index("iteration")] >= 1
            lower, upper = np.asarray(box[0]), np.asarray(box[1])
            inside = np.all((coords >= lower) & (coords <= upper), axis=1)
            if not np.all(inside[stage]):
                problems.append(
                    f"particles.csv: {int((~inside[stage]).sum())} stage particles outside the box"
                )
    grid = _read_csv(out_dir / "grid.csv", problems)
    if grid is not None:
        if grid[1].shape[0] != GRID_ROWS:
            problems.append(f"grid.csv: {grid[1].shape[0]} rows, expected {GRID_ROWS}")
        if not np.all(np.isfinite(grid[1])):
            problems.append("grid.csv: non-finite values")
    report_path = out_dir / "report.json"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as err:
        problems.append(f"report.json: unreadable ({err})")
        return problems
    sequential = shape["algorithm"] in ("smc", "hsmc")
    want_rows = shape["groups"] * (shape["length"] if sequential else 1)
    if len(report.get("rows", ())) != want_rows:
        problems.append(f"report.json: {len(report.get('rows', ()))} rows, expected {want_rows}")
    if report.get("n_groups") != shape["groups"]:
        problems.append("report.json: wrong n_groups")
    if not _finite_json(report):
        problems.append("report.json: non-finite values")
    return problems


def check_same_report(reference: bytes, out_dir: Path) -> list[str]:
    """report.json must be byte-identical to the reference run's."""
    try:
        current = (out_dir / "report.json").read_bytes()
    except OSError as err:
        return [f"report.json: unreadable ({err})"]
    if current != reference:
        return ["report.json: differs from the reference run of the same inputs"]
    return []


def _kde_log_density(grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Log of the Gaussian KDE the last smiley stage uses, up to a constant."""
    h = points.std(axis=0, ddof=1) * points.shape[0] ** -0.2
    zk = points / h
    zk_sq = (zk * zk).sum(axis=1)
    out = np.empty(grid.shape[0])
    for lo in range(0, grid.shape[0], 2048):
        zp = grid[lo:lo + 2048] / h
        sq = -0.5 * ((zp * zp).sum(axis=1)[:, None] - 2.0 * zp @ zk.T + zk_sq[None, :])
        shift = sq.max(axis=1)
        out[lo:lo + 2048] = shift + np.log(np.exp(sq - shift[:, None]).sum(axis=1))
    return out


def _mode_mass(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    d2 = ((positions[:, None, :] - SMILEY_MODE_CENTERS[None, :, :]) ** 2).sum(axis=-1)
    mass = np.bincount(d2.argmin(axis=1), weights=weights, minlength=len(SMILEY_MODE_CENTERS))
    return mass / mass.sum()


def smiley_oracle(points: np.ndarray) -> np.ndarray:
    """Basin masses of the final smiley KDE on the acceptance suite's grid."""
    (x0, y0), (x1, y1) = SMILEY_ORACLE_BOX
    xs = np.linspace(x0, x1, SMILEY_ORACLE_RESOLUTION[0])
    ys = np.linspace(y0, y1, SMILEY_ORACLE_RESOLUTION[1])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    log_d = _kde_log_density(grid, points)
    return _mode_mass(grid, np.exp(log_d - log_d.max()))


def check_smiley_acceptance(out_dir: Path, oracle: np.ndarray) -> list[str]:
    """Acceptance criterion 4 on the final particles of a smiley run."""
    problems: list[str] = []
    report = json.loads((out_dir / "report.json").read_text())
    final = [r for r in report["rows"] if r["iteration"] == report["n_iterations"]]
    accepted = sum(r["acceptance_count"] for r in final)
    if accepted < SMILEY_MIN_ACCEPTED:
        problems.append(f"smiley: final acceptance {accepted} < {SMILEY_MIN_ACCEPTED}")
    parsed = _read_csv(out_dir / "particles.csv", problems)
    if parsed is None:
        return problems
    header, values = parsed
    positions = values[:, [header.index("x0"), header.index("x1")]]
    weights = values[:, header.index("weight")]
    groups = values[:, header.index("group")]
    gap = np.abs(_mode_mass(positions, weights) - oracle).max()
    if gap > SMILEY_MAX_ORACLE_GAP:
        problems.append(f"smiley: mode-mass gap {gap:.4f} > {SMILEY_MAX_ORACLE_GAP}")
    per_group = [_mode_mass(positions[groups == g], weights[groups == g])
                 for g in np.unique(groups)]
    pairwise = max(np.abs(a - b).max() for i, a in enumerate(per_group)
                   for b in per_group[i + 1:])
    if pairwise > SMILEY_MAX_GROUP_GAP:
        problems.append(f"smiley: pairwise group gap {pairwise:.4f} > {SMILEY_MAX_GROUP_GAP}")
    return problems
