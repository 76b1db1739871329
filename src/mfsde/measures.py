"""Empirical measures on the real line and the Kantorovich (W1) metric.

Laws are represented by their atoms; the Kantorovich distance between two
empirical measures is the L1 distance between quantile functions. For equal
atom counts that is the mean absolute difference of the sorted samples, in
general it is the area between the two empirical CDFs. A measure flow is the
empirical law at every grid node, stored as one row-sorted array and compared
in the uniform (sup over nodes) Kantorovich distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PathEnsemble, TimeGrid


def _ascending(row: np.ndarray) -> bool:
    """Whether a nonempty 1-d array is ascending with finite ends, and so
    finite throughout. One pass: a NaN fails every comparison."""
    return (math.isfinite(row[0]) and math.isfinite(row[-1])
            and bool((row[1:] >= row[:-1]).all()))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted atoms, stored sorted.

    Ascending input is held as a read-only view, without a copy; any other
    input is sorted into a new array.
    """

    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValueError("atoms must be a nonempty 1-d array")
        if _ascending(atoms):
            atoms = atoms.view()
        else:
            # np.sort puts any NaN last and -inf first, +inf last
            atoms = np.sort(atoms)
            if not (math.isfinite(atoms[0]) and math.isfinite(atoms[-1])):
                raise ValueError("atoms must be finite")
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @property
    def size(self) -> int:
        return self.atoms.size

    def mean(self) -> float:
        return float(self.atoms.mean())

    def expect(self, fn) -> float:
        """Integral of fn against the measure (fn vectorized over atoms)."""
        return float(np.mean(fn(self.atoms)))


def dirac(x: float) -> EmpiricalMeasure:
    """Point mass at x."""
    return EmpiricalMeasure(np.array([float(x)]))


def _w1_sorted(xs: np.ndarray, ys: np.ndarray) -> float:
    """W1 between uniform empirical measures given sorted atom arrays."""
    if xs.size == ys.size:
        return float(np.abs(xs - ys).mean())
    # unequal counts: integrate |F - G| over the merged support
    merged = np.concatenate([xs, ys])
    merged.sort(kind="mergesort")
    deltas = np.diff(merged)
    cdf_x = np.searchsorted(xs, merged[:-1], side="right") / xs.size
    cdf_y = np.searchsorted(ys, merged[:-1], side="right") / ys.size
    return float(np.sum(np.abs(cdf_x - cdf_y) * deltas))


def _sort_rows(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy values into out and sort each row of out in place, in one
    batched sort; row k of the returned out equals np.sort(values[k])."""
    np.copyto(out, values)
    out.sort(axis=1)
    return out


def _sup_w1(a: np.ndarray, b: np.ndarray) -> float:
    """Sup over rows of W1 between two row-sorted atom arrays."""
    worst = 0.0
    for xs, ys in zip(a, b):
        d = _w1_sorted(xs, ys)
        if d > worst:
            worst = d
    return worst


def kantorovich(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Kantorovich (Wasserstein-1) distance between two empirical measures.

    Equals sup over 1-Lipschitz h of |integral of h d(mu - nu)|; in one
    dimension this is the L1 distance between quantile functions.
    """
    return _w1_sorted(mu.atoms, nu.atoms)


@dataclass(frozen=True)
class MeasureFlow:
    """A discrete measure flow: the empirical law at every grid node.

    `atoms` is one read-only (steps + 1, n_atoms) array whose row k holds
    the atoms of the law at node k, sorted ascending; construction rejects
    a row that is not ascending or not finite. Build it with from_ensemble
    or constant, which guarantee the ordering; node access returns a
    zero-copy EmpiricalMeasure view of one row.
    """

    grid: TimeGrid
    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] != self.grid.steps + 1 \
                or atoms.shape[1] == 0:
            raise ValueError(
                f"flow needs a ({self.grid.steps + 1}, n_atoms) array with "
                f"n_atoms >= 1, got shape {atoms.shape}"
            )
        for k, row in enumerate(atoms):
            if not _ascending(row):
                raise ValueError(
                    f"flow atoms at node {k} must be finite and ascending")
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    def __getitem__(self, node: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.atoms[node])

    def __len__(self) -> int:
        return self.atoms.shape[0]

    @staticmethod
    def from_ensemble(ensemble: PathEnsemble) -> "MeasureFlow":
        """Empirical law of the ensemble at every node.

        One copy of the paths, sorted in place along rows; row k equals
        np.sort(ensemble.values[k]).
        """
        values = ensemble.values
        return MeasureFlow(grid=ensemble.grid,
                           atoms=_sort_rows(values, np.empty_like(values)))

    @staticmethod
    def constant(grid: TimeGrid, mu: EmpiricalMeasure) -> "MeasureFlow":
        """Flow equal to mu at every node (a broadcast view, no copy)."""
        atoms = np.broadcast_to(mu.atoms, (grid.steps + 1, mu.size))
        return MeasureFlow(grid=grid, atoms=atoms)

    def means(self) -> np.ndarray:
        return self.atoms.mean(axis=1)


def flow_distance(a: MeasureFlow, b: MeasureFlow) -> float:
    """Uniform Kantorovich distance: sup over nodes of W1 between the laws."""
    if a.grid != b.grid:
        raise ValueError("flows live on different grids")
    return _sup_w1(a.atoms, b.atoms)
