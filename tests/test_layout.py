"""Time-major paths against the particle-major reference in oracles.py.

Every path array, flow and cumulant table of a Picard solve must be the
transpose of the particle-major reference bit for bit, with the same
iterations and residual history. The iteration is replayed by the
two-flow reference_solve of oracles.py, and the particle-major Euler pass
runs under the flow its last sweep was frozen under, so the check also
covers the solver's one buffer: its rows are sorted in place, left in path
order by a sweep that may be the last, and sorted again by the next.
"""

import numpy as np
import pytest

import mfsde.solver as solver
from mfsde import (BLOCK_SIZE, EmpiricalMeasure, MeasureFlow, PicardConfig,
                   SeedSpec, convolution_drift, drift_cumulants,
                   first_variation, kantorovich, make_grid, mean_field_ou,
                   picard_solve, sign_drift)
from oracles import (particle_major_brownian, particle_major_covariation,
                     particle_major_euler, particle_major_variation,
                     reference_solve)

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


def same_bits(time_major, particle_major):
    return np.array_equal(
        time_major.view(np.int64),
        np.ascontiguousarray(particle_major.T).view(np.int64))


def layout_mismatches(spec, config=PicardConfig()):
    """Names of the quantities of one solve that differ from the reference."""
    grid = make_grid(1.0, STEPS)
    result = picard_solve(spec, START, grid, N_PATHS, SEED, config)

    *_, frozen, residuals = reference_solve(spec, START, grid, N_PATHS, SEED,
                                            config)
    brownian = particle_major_brownian(grid, N_PATHS, START, SEED, BLOCK_SIZE)
    values = particle_major_euler(spec, frozen, brownian, grid, START)
    flow = sorted_flow(grid, values)
    fvals = np.empty_like(brownian)
    for k in range(STEPS + 1):
        fvals[:, k] = spec.fn(float(grid.nodes[k]), brownian[:, k],
                              spec.law(flow.atoms[k]))
    cumulants = particle_major_covariation(fvals, brownian)
    table = np.empty((N_PATHS, STEPS))
    for j in range(STEPS):
        table[:, j] = dxb(float(grid.nodes[j]), brownian[:, j])
    variation = particle_major_variation(cumulants, table, grid.dt)

    pairs = {
        "brownian": (result.brownian.values, brownian),
        "solution": (result.ensemble.values, values),
        # flows are time-major in both layouts
        "flow": (MeasureFlow.from_ensemble(result.ensemble).atoms,
                 flow.atoms.T),
        "cumulants": (drift_cumulants(result), cumulants),
        "variation": (first_variation(result, dxb), variation),
    }
    bad = [name for name, (got, want) in pairs.items()
           if not same_bits(got, want)]
    if result.residual_history != residuals:
        bad.append("residuals")
    return bad


@pytest.mark.parametrize("builder", [mean_field_ou, sign_drift,
                                     convolution_drift],
                         ids=["ou", "sign", "convolution"])
def test_time_major_arrays_are_the_particle_major_transposes(builder):
    assert layout_mismatches(builder()) == []


@pytest.mark.parametrize("builder, config, min_sweeps", [
    # sweep 1 reads a one-atom flow and writes the buffer, which later
    # sweeps read and overwrite in place
    (sign_drift, PicardConfig(initial_flow="dirac"), 2),
    # the buffer is overwritten in place at least four times
    (mean_field_ou, PicardConfig(tolerance=1e-5), 4),
], ids=["dirac", "ou-tight"])
def test_reused_sweep_buffers_match_the_reference(builder, config,
                                                  min_sweeps):
    assert layout_mismatches(builder(), config) == []
    result = picard_solve(builder(), START, make_grid(1.0, STEPS), N_PATHS,
                          SEED, config)
    assert result.iterations >= min_sweeps


def settle(states, frozen_row, out_row, tolerance, residual):
    """Write one node's states into out_row as a sweep must: in path order
    while the running sup-W1 residual to the frozen rows is below the
    tolerance, sorted after. Returns the new residual and whether the row
    was left in path order."""
    new = np.sort(states)
    if tolerance is not None:
        residual = max(residual, kantorovich(EmpiricalMeasure(new),
                                             EmpiricalMeasure(frozen_row)))
        if not residual < tolerance:
            out_row[:] = new
            return residual, False
    out_row[:] = states
    return residual, True


def euler_reading_the_next_increment(spec, frozen, brownian, out,
                                     unsorted=0, tolerance=None):
    """An off-by-one Euler sweep: step k adds the increment of step k + 1
    (the last step wraps to the first). The rows are written after the
    pass, whole."""
    bv, grid = brownian.values, brownian.grid
    db = np.diff(bv, axis=0)
    for k in range(unsorted):
        frozen[k].sort()
    nodes = np.empty_like(out)
    nodes[0] = brownian.start
    for k in range(grid.steps):
        b = spec.fn(float(grid.nodes[k]), nodes[k], spec.law(frozen[k]))
        nodes[k + 1] = nodes[k] + b * grid.dt + db[(k + 1) % grid.steps]
    residual, laws = 0.0, []
    for k in range(grid.steps + 1):
        residual, kept = settle(nodes[k], frozen[k], out[k], tolerance,
                                residual)
        if kept:
            laws.append(spec.law(np.sort(nodes[k])))
    return residual, laws


def sweep_settling_before_the_step(spec, frozen, brownian, out, unsorted=0,
                                   tolerance=None):
    """An in-place sweep in the wrong order: node k is written to out[k]
    before step k reads frozen[k], so where the two are one buffer, step k
    reads the new states at node k, not the frozen law."""
    bv, grid = brownian.values, brownian.grid
    state = np.full(out.shape[1], brownian.start)
    residual, laws = 0.0, []
    for k in range(grid.steps + 1):
        if k < unsorted:
            frozen[k].sort()
        residual, kept = settle(state, frozen[k], out[k], tolerance,
                                residual)
        if kept:
            laws.append(spec.law(np.sort(state)))
        if k < grid.steps:
            b = spec.fn(float(grid.nodes[k]), state, spec.law(frozen[k]))
            state = state + b * grid.dt + (bv[k + 1] - bv[k])
    return residual, laws


SWEEP = solver._euler_sweep


def sweep_skipping_the_resort(spec, frozen, brownian, out, unsorted=0,
                              tolerance=None):
    """The real sweep told that no row of frozen is in path order, so it
    reads the rows a sweep that did not converge left unsorted as they
    are."""
    return SWEEP(spec, frozen, brownian, out, 0, tolerance)


def test_an_euler_pass_reading_the_next_increment_is_caught(monkeypatch):
    monkeypatch.setattr(solver, "_euler_sweep",
                        euler_reading_the_next_increment)
    bad = layout_mismatches(sign_drift())
    assert "solution" in bad
    assert "brownian" not in bad


def test_a_sweep_sorting_a_node_before_its_step_is_caught(monkeypatch):
    monkeypatch.setattr(solver, "_euler_sweep",
                        sweep_settling_before_the_step)
    bad = layout_mismatches(sign_drift())
    assert "solution" in bad
    assert "brownian" not in bad


@pytest.mark.parametrize("builder", [mean_field_ou, sign_drift],
                         ids=["ou", "sign"])
def test_a_sweep_skipping_the_resort_is_caught(monkeypatch, builder):
    # the W1 to a row in path order is not the W1 between the laws
    monkeypatch.setattr(solver, "_euler_sweep", sweep_skipping_the_resort)
    bad = layout_mismatches(builder())
    assert "residuals" in bad
    assert "brownian" not in bad
