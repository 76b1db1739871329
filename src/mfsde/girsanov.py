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
from typing import Callable

import numpy as np

from .drift import DriftSpec
from .grid import PathEnsemble
from .localtime import _drift, _walk
from .measures import MeasureFlow
from .numerics import mean_and_se


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with its standard error and diagnostics."""

    label: str
    estimate: float
    stderr: float
    extra: dict = field(default_factory=dict, compare=False)


def drift_along_paths(spec: DriftSpec, flow: MeasureFlow,
                      paths: PathEnsemble) -> np.ndarray:
    """b(t_k, path value, flow_k) for every node and path, shape (M+1, N).

    Not exported: perfbench/traced.py reads this name, and ROADMAP item 1b
    deletes it."""
    fn, out = _drift(spec, flow), np.empty_like(paths.values)
    for k in range(paths.grid.steps + 1):
        out[k] = fn(k, float(paths.grid.nodes[k]), paths.values[k])
    return out


def doleans_weights(spec: DriftSpec, flow: MeasureFlow,
                    paths: PathEnsemble) -> np.ndarray:
    """Stochastic exponential of the drift along a Brownian ensemble, (N,).

    Left-point discretization of exp( int b dB - 1/2 int b^2 dt ) over the
    whole horizon, summed in one walk over the nodes. Exponents are
    guarded (|exponent| <= 700), so the weights are finite and strictly
    positive.
    """
    if paths.kind != "brownian":
        raise ValueError("weights are defined along Brownian ensembles")
    for node in _walk(paths, _drift(spec, flow), girsanov=True):
        pass
    return node.weights


def reweighted_expectation(spec: DriftSpec, flow: MeasureFlow,
                           paths: PathEnsemble,
                           payoff: Callable[[np.ndarray], np.ndarray],
                           label: str = "reweighted") -> EstimatorResult:
    """E[payoff(X_T)] estimated as mean of w * payoff(B_T) on Brownian paths.

    The raw (unnormalized) weighted mean is the faithful estimator of the
    change-of-measure identity and is what gets reported; the
    self-normalized variant (divide by the realized weight mean) is attached
    under extra["self_normalized"] as a variance-reduced cross-check.
    """
    w = doleans_weights(spec, flow, paths)
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
    with N signals an unusable tail.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    est, se = mean_and_se(weights ** (1.0 + eps))
    return EstimatorResult(label=f"weight_moment_{1 + eps:g}", estimate=est,
                           stderr=se, extra={"eps": eps})
