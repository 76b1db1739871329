"""Doleans-Dade exponentials and change-of-measure estimators.

A Brownian ensemble becomes a weak solution ensemble after reweighting each
path by the stochastic exponential of the drift integrated against the path:

    w = exp( sum_k b(t_k, B_k, mu_k) dB_k - 1/2 sum_k b(t_k, B_k, mu_k)^2 dt )

with left-point evaluation, so expectations of terminal payoffs under the
solution law can be estimated without simulating the drift at all. The
weights are a discrete martingale with mean one, which doubles as a cheap
consistency check; the (1 + eps)-moment probe quantifies how heavy the
weight tail is before trusting a reweighted estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .drift import DriftSpec
from .grid import PathEnsemble, _ShiftedDraw
from .localtime import _drift, _walk
from .numerics import _number, mean_and_se


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with its standard error and diagnostics."""

    label: str
    estimate: float
    stderr: float
    extra: dict = field(default_factory=dict, compare=False)


def _check_laws(laws: Sequence, paths: PathEnsemble) -> None:
    if len(laws) != paths.grid.steps + 1:
        raise ValueError(f"{len(laws)} node laws for paths on "
                         f"{paths.grid.steps + 1} nodes")


def drift_along_paths(spec: DriftSpec, laws: Sequence,
                      paths: PathEnsemble | _ShiftedDraw) -> np.ndarray:
    """b(t_k, path value, laws[k]) for every node and path, shape (M+1, N),
    along a driving ensemble read through its `_rows()`, which refuses a
    solution ensemble and reads a shifted draw at its start.

    Not exported: perfbench/traced.py reads this name, and ROADMAP item 1b
    deletes it."""
    _check_laws(laws, paths)
    fn = _drift(spec, laws)
    out = np.empty((paths.grid.steps + 1, paths.n_paths))
    for k, row in enumerate(paths._rows()):
        out[k] = fn(k, float(paths.grid.nodes[k]), row)
    return out


def doleans_weights(spec: DriftSpec, laws: Sequence,
                    paths: PathEnsemble) -> np.ndarray:
    """Stochastic exponential of the drift along a Brownian ensemble, (N,).

    Left-point discretization of exp( int b dB - 1/2 int b^2 dt ) over the
    whole horizon, summed in one walk over the nodes, with the drift at
    node k reading laws[k]. `laws` holds one law summary per node of the
    paths, as SolveResult.laws holds them: spec.law of the sorted atoms.
    Exponents are guarded (|exponent| <= 700), so the weights are finite
    and strictly positive.
    """
    _check_laws(laws, paths)
    for node in _walk(paths, _drift(spec, laws), girsanov=True):
        pass
    return node.weights


def reweighted_expectation(spec: DriftSpec, laws: Sequence,
                           paths: PathEnsemble,
                           payoff: Callable[[np.ndarray], np.ndarray],
                           label: str = "reweighted") -> EstimatorResult:
    """E[payoff(X_T)] estimated as mean of w * payoff(B_T) on Brownian paths,
    w the weights doleans_weights gives for the node laws `laws`.

    The raw (unnormalized) weighted mean is the faithful estimator of the
    change-of-measure identity and is what gets reported; the
    self-normalized variant (divide by the realized weight mean) is attached
    under extra["self_normalized"] as a variance-reduced cross-check.
    """
    w = doleans_weights(spec, laws, paths)
    g = np.asarray(payoff(paths.terminal()), dtype=float)
    est, se = mean_and_se(w * g)
    w_mean, w_se = mean_and_se(w)
    self_norm = float((w * g).mean() / w_mean)
    return EstimatorResult(
        label=label, estimate=est, stderr=se,
        extra={"self_normalized": self_norm, "weight_mean": w_mean,
               "weight_mean_se": w_se},
    )


def epsilon_moment_probe(weights: np.ndarray,
                         eps: float = 0.5) -> EstimatorResult:
    """Sample (1 + eps)-moment of the weights, a heavy-tail diagnostic.

    A finite, stable value across runs supports the integrability of the
    stochastic exponential that the reweighting rests on; a value that grows
    with N signals an unusable tail. `eps` must be a finite positive
    number.
    """
    _number(eps, "eps", positive=True)
    est, se = mean_and_se(weights ** (1.0 + eps))
    return EstimatorResult(label=f"weight_moment_{1 + eps:g}", estimate=est,
                           stderr=se, extra={"eps": eps})
