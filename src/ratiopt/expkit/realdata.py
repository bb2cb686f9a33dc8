"""Real-dataset ingestion, standardization, and cross-validation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..exceptions import DegenerateColumn, RatioptError
from .rng import make_rng


def load_csv(path, target: str):
    """Reads a numeric CSV with a header row; returns (M, y, feature_names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"CSV file {path} has no data rows")
    if target not in header:
        raise ValueError(f"target column {target!r} not found in {header}")
    data = np.asarray(rows, dtype=float)
    t_idx = header.index(target)
    mask = np.ones(len(header), dtype=bool)
    mask[t_idx] = False
    return data[:, mask], data[:, t_idx], [h for h in header if h != target]


def standardize_columns(M, y):
    """Center each column (and y) to mean 0 and scale to squared length 1."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    y = np.asarray(y, dtype=float).ravel()

    def scale(col):
        centered = col - col.mean()
        nrm = np.linalg.norm(centered)
        if nrm == 0.0:
            raise DegenerateColumn("constant column cannot be standardized")
        return centered / nrm

    M2 = np.column_stack([scale(M[:, j]) for j in range(M.shape[1])])
    return M2, scale(y)


def make_folds(n_rows: int, k: int, seed: int):
    """Deterministic partition of row indices into k folds."""
    if k < 2:
        raise ValueError("k must be at least 2")
    perm = make_rng(seed).permutation(n_rows)
    return [np.sort(chunk) for chunk in np.array_split(perm, k)]


@dataclass
class Dataset:
    A_train: np.ndarray
    b_train: np.ndarray
    A_test: np.ndarray
    b_test: np.ndarray
    fold_indices: list


def build_dataset(M, y, ratio: float, k: int, seed: int) -> Dataset:
    """Standardize, split train/test by the given ratio, and assign folds."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    M2, y2 = standardize_columns(M, y)
    n_rows = M2.shape[0]
    perm = make_rng(seed).permutation(n_rows)
    n_train = max(1, int(round(ratio * n_rows)))
    train = np.sort(perm[:n_train])
    test = np.sort(perm[n_train:])
    return Dataset(
        A_train=M2[train], b_train=y2[train],
        A_test=M2[test], b_test=y2[test],
        fold_indices=make_folds(n_train, k, seed + 1),
    )


DEFAULT_GAMMA_GRID = tuple(np.logspace(-6, -1, 7))


def cross_validate_gamma(ds: Dataset, grid, k: int, solve_fn):
    """Grid gamma minimizing mean validation MSE over the k folds.

    solve_fn(A, b, gamma) -> x; a RatioptError from the solver counts as
    +inf fold MSE, and any other exception propagates.
    Ties (including duplicate grid entries) resolve to the lowest index.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("gamma grid must be nonempty")
    folds = ds.fold_indices[:k]
    n_train = ds.A_train.shape[0]
    scores = []
    for gamma in grid:
        fold_mses = []
        for fold in folds:
            mask = np.ones(n_train, dtype=bool)
            mask[fold] = False
            try:
                x = solve_fn(ds.A_train[mask], ds.b_train[mask], gamma)
                res = ds.A_train[fold] @ x - ds.b_train[fold]
                fold_mses.append(float(res @ res / fold.size))
            except RatioptError:
                fold_mses.append(np.inf)
        scores.append(float(np.mean(fold_mses)))
    return grid[int(np.argmin(scores))]


def smoke_dataset_path():
    """Path to the bundled Diabetes-schema smoke dataset."""
    return resources.files("ratiopt.data") / "diabetes_smoke.csv"
