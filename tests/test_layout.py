"""Time-major paths against the particle-major reference in oracles.py.

Every path array, flow and cumulant table of a Picard solve must be the
transpose of the particle-major reference bit for bit, with the same
iterations and residual history. The reference allocates new arrays every
sweep, so it also checks the solver's reused sweep buffers.
"""

import numpy as np
import pytest

import mfsde.solver as solver
from mfsde import (BLOCK_SIZE, EmpiricalMeasure, MeasureFlow, PicardConfig,
                   SeedSpec, convolution_drift, dirac, drift_cumulants,
                   first_variation, flow_distance, make_grid, mean_field_ou,
                   picard_solve, sign_drift)
from oracles import (particle_major_brownian, particle_major_covariation,
                     particle_major_euler, particle_major_variation)

SEED = SeedSpec(2_718_281)
START = 1.0
# 5000 paths span two Philox blocks
N_PATHS, STEPS = 5000, 50
assert BLOCK_SIZE < N_PATHS < 2 * BLOCK_SIZE


def dxb(s, y):
    """A law derivative that varies in time and state."""
    return 0.1 * np.cos(y) + s


def sorted_flow(grid, paths):
    """The flow of (N, M+1) paths: each node's column, sorted."""
    return MeasureFlow(grid, atoms=np.sort(paths.T, axis=1))


def reference_solve(spec, grid, brownian, config):
    if config.initial_flow == "dirac":
        flow = MeasureFlow.constant(grid, dirac(START))
    else:
        flow = sorted_flow(grid, brownian)
    residuals = []
    while True:
        values = particle_major_euler(spec, flow, brownian, grid, START)
        new_flow = sorted_flow(grid, values)
        residuals.append(flow_distance(new_flow, flow))
        if residuals[-1] < config.tolerance:
            return values, new_flow, residuals
        assert len(residuals) < config.max_iterations
        flow = new_flow


def same_bits(time_major, particle_major):
    return np.array_equal(
        time_major.view(np.int64),
        np.ascontiguousarray(particle_major.T).view(np.int64))


def layout_mismatches(spec, config=PicardConfig()):
    """Names of the quantities of one solve that differ from the reference."""
    grid = make_grid(1.0, STEPS)
    result = picard_solve(spec, START, grid, N_PATHS, SEED, config)

    brownian = particle_major_brownian(grid, N_PATHS, START, SEED, BLOCK_SIZE)
    values, flow, residuals = reference_solve(spec, grid, brownian, config)
    fvals = np.empty_like(brownian)
    for k in range(STEPS + 1):
        fvals[:, k] = spec.fn(float(grid.nodes[k]), brownian[:, k], flow[k])
    cumulants = particle_major_covariation(fvals, brownian)
    table = np.empty((N_PATHS, STEPS))
    for j in range(STEPS):
        table[:, j] = dxb(float(grid.nodes[j]), brownian[:, j])
    variation = particle_major_variation(cumulants, table, grid.dt)

    pairs = {
        "brownian": (result.brownian.values, brownian),
        "solution": (result.ensemble.values, values),
        # flows are time-major in both layouts
        "flow": (result.flow.atoms, flow.atoms.T),
        "cumulants": (drift_cumulants(result), cumulants),
        "variation": (first_variation(result, dxb), variation),
    }
    bad = [name for name, (got, want) in pairs.items()
           if not same_bits(got, want)]
    if result.residual_history != tuple(residuals):
        bad.append("residuals")
    return bad


@pytest.mark.parametrize("builder", [mean_field_ou, sign_drift,
                                     convolution_drift],
                         ids=["ou", "sign", "convolution"])
def test_time_major_arrays_are_the_particle_major_transposes(builder):
    assert layout_mismatches(builder()) == []


@pytest.mark.parametrize("builder, config, min_sweeps", [
    # the first residual compares against a one-atom flow, and the second
    # flow buffer is allocated after sweep 1
    (sign_drift, PicardConfig(initial_flow="dirac"), 2),
    # each flow buffer is overwritten at least twice
    (mean_field_ou, PicardConfig(tolerance=1e-5), 4),
], ids=["dirac", "ou-tight"])
def test_reused_sweep_buffers_match_the_reference(builder, config,
                                                  min_sweeps):
    assert layout_mismatches(builder(), config) == []
    result = picard_solve(builder(), START, make_grid(1.0, STEPS), N_PATHS,
                          SEED, config)
    assert result.iterations >= min_sweeps


def euler_reading_the_next_increment(spec, atoms, brownian, out):
    """An off-by-one Euler pass: step k adds the increment of step k + 1
    (the last step wraps to the first)."""
    bv, grid = brownian.values, brownian.grid
    db = np.diff(bv, axis=0)
    out[0] = brownian.start
    for k in range(grid.steps):
        mu = EmpiricalMeasure(atoms[k])
        b = spec.fn(float(grid.nodes[k]), out[k], mu)
        out[k + 1] = out[k] + b * grid.dt + db[(k + 1) % grid.steps]
    return out


def test_an_euler_pass_reading_the_next_increment_is_caught(monkeypatch):
    monkeypatch.setattr(solver, "_euler_values",
                        euler_reading_the_next_increment)
    bad = layout_mismatches(sign_drift())
    assert "solution" in bad
    assert "brownian" not in bad
