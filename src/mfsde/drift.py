"""Drift specifications b(t, y, mu) for mean-field dynamics.

A drift consumes the current time, the state (vectorized over particles) and
the current law, and decomposes as b = b_hat + b_tilde where b_hat is merely
measurable and bounded and b_tilde is Lipschitz in y with linear growth.
Each spec carries declared regularity metadata (growth constant, sup bound
of the bounded part, Lipschitz constant in the measure argument) which
check_regularity audits by sampling; the engine trusts but verifies.

A drift reads the law through one declared summary: `law` maps the sorted
atoms of the empirical law at a node to what `fn`, `bounded_part` and
`lipschitz_part` read as their third argument, and every caller (the Euler
sweep, the walks of localtime, the delta session, check_regularity) passes
spec.law(row), never anything else. The default is EmpiricalMeasure, so a
drift written against mu (mu.mean(), mu.expect(phi), mu.atoms) runs as it
is. The built-ins declare the statistic they read: the mean for OU and
sign, the means of cos and sin for the convolution, E[functional] for
expectation_drift and nothing (None) for zero and constant drifts. A node
summary of a built-in is a few floats, so a caller that keeps the law of
every node keeps O(M) numbers, not the (M+1, N) flow.

Mollification replaces only the irregular bounded part by a discrete
convolution with a bump kernel of bandwidth 1/n: the weighted average of its
64 translates by the kernel nodes on (-1/n, 1/n). The Lipschitz part and all
declared constants are untouched. A jump is thereby spread into a 64-step
staircase on (-1/n, 1/n), not a continuous ramp. The built-in models declare
their bounded part as a StepFunction, whose average of translates is again a
step function (breakpoint a_i + o_j carrying jump c_i w_j), so it is
mollified in closed form; any other bounded part is evaluated at the 64
translates at every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .measures import EmpiricalMeasure, dirac, kantorovich
from .numerics import _number

# Evaluators are numpy-broadcasting in y: they accept scalar t, an array of
# states of any shape, and the law summary of their spec, and return an
# array of the same shape.
Evaluator = Callable[[float, np.ndarray, Any], np.ndarray]
# A law summary: the sorted atoms of the law at a node -> what the
# evaluators read
Law = Callable[[np.ndarray], Any]


@dataclass(frozen=True)
class DriftSpec:
    """Drift b(t, y, mu) with its declared decomposition and constants.

    Fields
    ------
    fn : the full drift evaluator
    bounded_part, lipschitz_part : the declared decomposition b = b_hat +
        b_tilde; both None when the drift is not decomposed. A bounded part
        that is a StepFunction is mollified in closed form
    growth_const : C with |b(t, y, mu)| <= C (1 + |y| + W1(mu, dirac(0)))
    bounded_sup : declared sup norm of the bounded part, None if undeclared
    law_lipschitz_const : C with |b(t,y,mu) - b(t,y,nu)| <= C W1(mu, nu)
    law : the summary the evaluators read, from the ascending, finite atoms
        of the law at a node; EmpiricalMeasure (the measure itself) unless
        declared. A Picard sweep may call it from two threads at once (see
        solver._euler_sweep), so it must be a pure function of its atoms,
        as every built-in's is
    """

    name: str
    fn: Evaluator
    growth_const: float
    law_lipschitz_const: float
    bounded_part: Optional[Evaluator] = None
    lipschitz_part: Optional[Evaluator] = None
    bounded_sup: Optional[float] = None
    law: Law = EmpiricalMeasure

    @property
    def decomposed(self) -> bool:
        return self.bounded_part is not None and self.lipschitz_part is not None


@dataclass(frozen=True)
class StepFunction:
    """State-only step function left + sum_i jumps[i] H(y - breakpoints[i]).

    H is the Heaviside step with H(0) = 1/2, so a breakpoint takes the mean
    of the values on either side, as sign(0) = 0 does. Called like any
    bounded part, (t, y, law) -> array shaped like y; t and the law are
    ignored. The value is left + (C[lo] + C[hi]) / 2, where C is the
    running sum of the jumps in breakpoint order (C[0] = 0) and lo / hi
    count the breakpoints below / at or below y. One search finds hi for
    every state; lo differs from it only where y is a breakpoint, which is
    then the one below hi, and only those states are searched again.
    """

    left: float
    breakpoints: Sequence[float] = ()
    jumps: Sequence[float] = ()
    _sorted: np.ndarray = field(init=False, repr=False, compare=False)
    _cumulative: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.breakpoints, dtype=float).ravel()
        c = np.asarray(self.jumps, dtype=float).ravel()
        if a.shape != c.shape:
            raise ValueError(f"{a.size} breakpoints but {c.size} jumps")
        left = float(self.left)
        if not (np.isfinite(left) and np.isfinite(a).all()
                and np.isfinite(c).all()):
            raise ValueError("step function values must be finite")
        order = np.argsort(a, kind="stable")
        cumulative = np.zeros(a.size + 1)
        np.cumsum(c[order], out=cumulative[1:])
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "breakpoints", tuple(a.tolist()))
        object.__setattr__(self, "jumps", tuple(c.tolist()))
        object.__setattr__(self, "_sorted", a[order])
        object.__setattr__(self, "_cumulative", cumulative)

    def __call__(self, t: float, y: np.ndarray, law: Any) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        a = self._sorted
        hi = np.searchsorted(a, y, side="right")
        lo = hi
        if a.size:
            # a[hi - 1] wraps to the largest breakpoint where hi = 0, which
            # then lies above y; NaN equals nothing and sorts last in both
            tie = a[hi - 1] == y
            if tie.any():
                lo = np.array(hi)
                lo[tie] = np.searchsorted(a, y[tie], side="left")
        return self.left + 0.5 * (self._cumulative[lo] + self._cumulative[hi])


def eval_drift(spec: DriftSpec, t: float, y: np.ndarray,
               law: Any) -> np.ndarray:
    """Evaluate the drift under the law summary spec.law(atoms) and reject
    non-finite output."""
    y = np.asarray(y, dtype=float)
    out = np.asarray(spec.fn(t, y, law), dtype=float)
    out = np.broadcast_to(out, y.shape).copy() if out.shape != y.shape else out
    if not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(out))[0]
        raise FloatingPointError(
            f"drift '{spec.name}' returned non-finite value at t={t}, "
            f"y={y[tuple(bad)]!r}"
        )
    return out


# ---------------------------------------------------------------------------
# built-in model library
# ---------------------------------------------------------------------------

def _no_law(atoms: np.ndarray) -> None:
    """The summary of a drift that reads nothing of the law."""
    return None


def _mean(atoms: np.ndarray) -> float:
    """The mean of the law; the bits of EmpiricalMeasure.mean()."""
    return float(atoms.mean())


def zero_drift() -> DriftSpec:
    """b = 0; the solution is the driving Brownian motion."""
    def fn(t, y, law):
        return np.zeros_like(y)
    return DriftSpec(
        name="zero", fn=fn, growth_const=0.0, law_lipschitz_const=0.0,
        bounded_part=StepFunction(0.0), lipschitz_part=fn, bounded_sup=0.0,
        law=_no_law,
    )


def constant_drift(value: float = 1.0) -> DriftSpec:
    """b = value, a finite number; useful for exact Girsanov and local time
    checks."""
    _number(value, "value")
    def fn(t, y, law):
        return np.full_like(y, value)
    def zero(t, y, law):
        return np.zeros_like(y)
    return DriftSpec(
        name=f"constant({value})", fn=fn, growth_const=abs(value),
        law_lipschitz_const=0.0, bounded_part=StepFunction(value),
        lipschitz_part=zero, bounded_sup=abs(value), law=_no_law,
    )


def mean_field_ou(theta: float = 1.0, kappa: float = 0.5) -> DriftSpec:
    """Linear mean-field Ornstein-Uhlenbeck drift b = -theta y + kappa E[mu].

    The mean curve solves m'(t) = (kappa - theta) m(t), so
    m(t) = x exp((kappa - theta) t); this is the main closed-form oracle.
    The law summary is the mean. Both parameters are finite numbers.
    """
    _number(theta, "theta")
    _number(kappa, "kappa")
    def fn(t, y, mean):
        return -theta * y + kappa * mean
    c = max(abs(theta), abs(kappa))
    return DriftSpec(
        name="mean_field_ou", fn=fn, growth_const=c,
        law_lipschitz_const=abs(kappa), bounded_part=StepFunction(0.0),
        lipschitz_part=fn, bounded_sup=0.0, law=_mean,
    )


def convolution_drift() -> DriftSpec:
    """Convolution drift b(t, y, mu) = integral of sin(y - z) mu(dz).

    The sine kernel separates, so the law summary is the pair of means of
    cos and sin, O(atoms) once per node rather than O(particles * atoms).
    """
    def law(atoms):
        return float(np.cos(atoms).mean()), float(np.sin(atoms).mean())
    def fn(t, y, moments):
        cos_m, sin_m = moments
        return np.sin(y) * cos_m - np.cos(y) * sin_m
    return DriftSpec(
        name="convolution_sin", fn=fn, growth_const=1.0,
        # z -> sin(y - z) is 1-Lipschitz, so the law dependence is too
        law_lipschitz_const=1.0, bounded_part=StepFunction(0.0),
        lipschitz_part=fn, bounded_sup=0.0, law=law,
    )


def sign_drift(alpha: float = 0.5, theta: float = 1.0,
               kappa: float = 0.5) -> DriftSpec:
    """Irregular drift b = alpha sign(y) - theta y + kappa E[mu].

    The sign part is the merely measurable bounded component; the linear
    part is Lipschitz. This is the reference model with a genuine
    discontinuity in the state variable. The law summary is the mean.
    The parameters are finite numbers.
    """
    _number(alpha, "alpha")
    _number(theta, "theta")
    _number(kappa, "kappa")
    def lipschitz(t, y, mean):
        return -theta * y + kappa * mean
    def fn(t, y, mean):
        return alpha * np.sign(y) - theta * y + kappa * mean
    return DriftSpec(
        name="sign_linear", fn=fn,
        growth_const=max(abs(alpha), abs(theta), abs(kappa)),
        law_lipschitz_const=abs(kappa),
        # alpha sign(y) as a step function, bit for bit
        bounded_part=StepFunction(-alpha, (0.0,), (2.0 * alpha,)),
        lipschitz_part=lipschitz, bounded_sup=abs(alpha), law=_mean,
    )


def expectation_drift(bbar: Callable[[float, np.ndarray, float], np.ndarray],
                      functional: Callable[[np.ndarray], np.ndarray],
                      growth_const: float,
                      law_lipschitz_const: float,
                      name: str = "expectation_functional") -> DriftSpec:
    """Drift of the form b(t, y, mu) = bbar(t, y, E[functional(Z)]), Z ~ mu.

    The law summary is E[functional(Z)], with the bits of
    EmpiricalMeasure.expect. The declared constants are finite numbers
    >= 0, and the law Lipschitz constant must account for the composition
    with the functional; check_regularity can audit the claim.
    """
    _number(growth_const, "growth_const", lo=0)
    _number(law_lipschitz_const, "law_lipschitz_const", lo=0)
    def law(atoms):
        return float(np.mean(functional(atoms)))
    def fn(t, y, v):
        return bbar(t, y, v)
    return DriftSpec(
        name=name, fn=fn, growth_const=growth_const,
        law_lipschitz_const=law_lipschitz_const, law=law,
    )


def expectation_square_drift(theta: float = 1.0,
                             kappa: float = 0.25) -> DriftSpec:
    """b = -theta y + kappa E[Z^2], Z ~ mu: a drift that reads the second
    moment of the law rather than its mean. Both parameters are finite
    numbers."""
    _number(theta, "theta")
    _number(kappa, "kappa")
    return expectation_drift(
        bbar=lambda t, y, v: -theta * y + kappa * v,
        functional=lambda z: z * z,
        growth_const=max(theta, 20.0 * kappa),
        law_lipschitz_const=20.0 * kappa,
        name="expectation_square",
    )


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

_MOLLIFY_NODES = 64


def _bump_nodes(k: int = _MOLLIFY_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes on (-1, 1) and normalized bump-kernel weights.

    The kernel is exp(-1 / (1 - u^2)) on (-1, 1); normalizing the discrete
    weights makes the smoothed function an exact convex combination, so sup
    norms are preserved exactly and odd symmetry is kept (midpoints come in
    +/- pairs).
    """
    edges = np.linspace(-1.0, 1.0, k + 1)
    nodes = 0.5 * (edges[:-1] + edges[1:])
    weights = np.exp(-1.0 / (1.0 - nodes ** 2))
    weights /= weights.sum()
    return nodes, weights


def mollify(spec: DriftSpec, n: int) -> DriftSpec:
    """Smooth the bounded part in y at bandwidth 1/n; keep the rest.

    Returns a new spec with b_hat replaced by sum_j w_j b_hat(y - o_j), the
    64-node bump kernel average with offsets o_j = nodes_j / n in
    (-1/n, 1/n). A jump of b_hat becomes a 64-step staircase across that
    interval. A StepFunction bounded part is averaged in closed form into
    another StepFunction (breakpoints a_i + o_j, jumps c_i w_j; one sorted
    lookup per call, and mollifying again composes); any other bounded part
    is evaluated at all 64 translates per call. Constants are unchanged: the
    smoothed part is a convex combination of translates, so its sup norm
    cannot grow, and the measure argument is untouched: the new spec keeps
    the law summary of the old one. `n` must be an integer >= 1.
    """
    _number(n, "n", lo=1, integer=True)
    if not spec.decomposed:
        raise ValueError(f"drift '{spec.name}' has no declared decomposition")
    nodes, weights = _bump_nodes()
    offsets = nodes / n
    base_bounded = spec.bounded_part
    base_lipschitz = spec.lipschitz_part

    if isinstance(base_bounded, StepFunction):
        # the weights sum to one, so `left` stays; breakpoint a_i + o_j
        # carries jump c_i w_j
        smoothed = StepFunction(
            base_bounded.left,
            np.add.outer(base_bounded.breakpoints, offsets).ravel(),
            np.multiply.outer(base_bounded.jumps, weights).ravel())
    else:
        def smoothed(t, y, law):
            y = np.atleast_1d(np.asarray(y, dtype=float))
            shifted = y[None, ...] - offsets.reshape((-1,) + (1,) * y.ndim)
            vals = base_bounded(t, shifted, law)
            return np.tensordot(weights, vals, axes=(0, 0))

    def fn(t, y, law):
        return smoothed(t, y, law) + base_lipschitz(t, y, law)

    return replace(spec, name=f"{spec.name}_mollified{n}", fn=fn,
                   bounded_part=smoothed)


# ---------------------------------------------------------------------------
# regularity audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Worst observed ratios against the declared constants."""

    growth_ratio: float
    growth_ok: bool
    law_lipschitz_ratio: float
    law_lipschitz_ok: bool
    decomposition_gap: float
    decomposition_ok: bool
    bounded_sup_observed: float
    bounded_sup_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.growth_ok and self.law_lipschitz_ok
                and self.decomposition_ok and self.bounded_sup_ok)


def check_regularity(spec: DriftSpec, samples: int = 200,
                     seed: int = 0) -> RegularityReport:
    """Sample-based audit of the declared growth and Lipschitz constants
    and, when declared, of the sup bound of the bounded part.

    Draws random times in [0, 1), states in [-5, 5) and pairs of
    empirical measures (random Gaussian clouds plus exact translates, which
    approach equality in the law-Lipschitz bound) from Philox keyed by
    `seed`, and reports the worst observed ratio of each bound and the
    largest observed |bounded part|. A value above the declared constant
    plus slack means the constant is violated. The evaluators read
    spec.law of the atoms of each measure, as they do in a solve. `samples`
    must be an integer >= 1: an audit of no sample would pass any drift.
    `seed` is an integer in [0, 2**64), a Philox key as SeedSpec's seed is.
    """
    _number(samples, "samples", lo=1, integer=True)
    seed = _number(seed, "seed", 0, 2**64 - 1, integer=True)
    rng = np.random.Generator(np.random.Philox(key=seed))
    slack = 1e-9
    zero = dirac(0.0)

    growth_worst = 0.0
    law_worst = 0.0
    decomp_worst = 0.0
    bounded_worst = 0.0
    for _ in range(samples):
        t = float(rng.uniform(0.0, 1.0))
        y = rng.uniform(-5.0, 5.0, size=8)
        n_atoms = int(rng.integers(2, 65))
        center = float(rng.uniform(-3.0, 3.0))
        scale = float(rng.uniform(0.1, 2.0))
        mu = EmpiricalMeasure(center + scale * rng.standard_normal(n_atoms))
        if rng.uniform() < 0.5:
            nu = EmpiricalMeasure(mu.atoms + float(rng.uniform(-1.0, 1.0)))
        else:
            nu = EmpiricalMeasure(
                float(rng.uniform(-3.0, 3.0))
                + float(rng.uniform(0.1, 2.0)) * rng.standard_normal(n_atoms)
            )

        law_mu = spec.law(mu.atoms)
        b_mu = eval_drift(spec, t, y, law_mu)
        envelope = 1.0 + np.abs(y) + kantorovich(mu, zero)
        growth_worst = max(growth_worst, float(np.max(np.abs(b_mu) / envelope)))

        d = kantorovich(mu, nu)
        if d > 1e-12:
            b_nu = eval_drift(spec, t, y, spec.law(nu.atoms))
            gap = float(np.max(np.abs(b_mu - b_nu)))
            law_worst = max(law_worst, gap / d)

        if spec.decomposed:
            bounded = spec.bounded_part(t, y, law_mu)
            parts = bounded + spec.lipschitz_part(t, y, law_mu)
            decomp_worst = max(decomp_worst, float(np.max(np.abs(b_mu - parts))))
            bounded_worst = max(bounded_worst, float(np.max(np.abs(bounded))))

    growth_ok = growth_worst <= spec.growth_const + slack
    law_ok = law_worst <= spec.law_lipschitz_const + slack
    decomp_ok = (not spec.decomposed) or decomp_worst <= 1e-12
    bounded_ok = (spec.bounded_sup is None
                  or bounded_worst <= spec.bounded_sup + slack)
    return RegularityReport(
        growth_ratio=growth_worst, growth_ok=growth_ok,
        law_lipschitz_ratio=law_worst, law_lipschitz_ok=law_ok,
        decomposition_gap=decomp_worst, decomposition_ok=decomp_ok,
        bounded_sup_observed=bounded_worst, bounded_sup_ok=bounded_ok,
    )
