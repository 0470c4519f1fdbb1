import math

import numpy as np
import pytest

from gravclock.errors import DomainError
from gravclock.geodesic import (
    BoundaryConditions,
    energy_ratio_samples,
    functional_value,
    proper_time_along,
    solve_extremal_path,
    verify_first_order,
)
from gravclock.propertime import InterferometerGeometry, build_straight_arm, delta_tau_first_order
from gravclock.spacetime import RotatingMassModel, SpacetimePoint

FLAT = RotatingMassModel(M=0.0, J=0.0)
EQ = math.pi / 2


def _cartesian(pt):
    s = math.sin(pt.theta)
    return np.array([pt.r * s * math.cos(pt.phi), pt.r * s * math.sin(pt.phi), pt.r * math.cos(pt.theta)])


@pytest.fixture(scope="module")
def flat_solution(request, unit_constants):
    # 1024 segments unless a test parametrizes n_segments indirectly
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ - 0.2, 0.1),
        SpacetimePoint(30.0, 1.15, EQ + 0.15, 0.45),
    )
    n_segments = getattr(request, "param", 1024)
    return bc, solve_extremal_path(FLAT, bc, n_segments=n_segments, constants=unit_constants)


def test_flat_spacetime_gives_straight_line_proper_time(flat_solution, unit_constants):
    bc, res = flat_solution
    chord = np.linalg.norm(_cartesian(bc.end) - _cartesian(bc.start))
    span = bc.end.t - bc.start.t
    expected = span * math.sqrt(1.0 - (chord / span) ** 2)
    assert res.converged
    assert abs(res.proper_time / expected - 1.0) < 1e-10


@pytest.mark.parametrize("flat_solution", [1024, 2048], indirect=True)
def test_flat_solution_nodes_lie_on_the_chord(flat_solution):
    bc, res = flat_solution
    a, b = _cartesian(bc.start), _cartesian(bc.end)
    mid = res.nodes[len(res.nodes) // 2]
    pt = SpacetimePoint(0.0, mid[0], mid[1], mid[2])
    x = _cartesian(pt)
    direction = (b - a) / np.linalg.norm(b - a)
    off_axis = (x - a) - np.dot(x - a, direction) * direction
    # the discretization error of the maximum falls as 1/n_segments^2
    assert np.linalg.norm(off_axis) < 5e-9


def test_flat_solution_has_uniform_coordinate_speed(flat_solution):
    _, res = flat_solution
    speeds = np.sqrt(
        res.path.dr_dt**2
        + res.path.r**2 * (res.path.dtheta_dt**2 + np.sin(res.path.theta) ** 2 * res.path.dphi_dt**2)
    )
    assert (speeds.max() - speeds.min()) / speeds.mean() < 1e-6


def test_proper_time_along_reproduces_solver_functional(flat_solution, unit_constants):
    _, res = flat_solution
    again = proper_time_along(FLAT, res.path, False, unit_constants)
    assert abs(again / res.proper_time - 1.0) < 1e-12


def test_proper_time_along_rejects_azimuth_paths(unit_constants):
    arm = build_straight_arm(InterferometerGeometry(w=1.0, L=1e3, v0=1e-3), "right")
    with pytest.raises(DomainError, match="azimuth"):
        proper_time_along(FLAT, arm, False, unit_constants)


def test_perturbed_minus_unperturbed_on_same_path_is_the_first_order_shift(unit_constants):
    # quadrature of the rate deviation on a fixed path: the difference from
    # the first-order shift is second order in the perturbation strength
    model = RotatingMassModel(M=1e-6, J=2.5e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    path = solve_extremal_path(model, bc, False, unit_constants, 256).path

    def mismatch(scale):
        scaled = RotatingMassModel(M=model.M, J=scale * model.J)
        on_path = proper_time_along(scaled, path, True, unit_constants) - proper_time_along(
            scaled, path, False, unit_constants
        )
        first = delta_tau_first_order(scaled, path, unit_constants)
        return abs(on_path - first), abs(first)

    diff1, scale1 = mismatch(1.0)
    assert diff1 < 1e-3 * scale1
    diff_half, _ = mismatch(0.5)
    assert abs(diff1 / diff_half - 4.0) < 0.2  # quadratic in the perturbation


def test_energy_ratio_conserved_along_radial_geodesic(unit_constants):
    model = RotatingMassModel(M=1e-6, J=0.0)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(100.0, 1.3, EQ, 0.0)
    )
    res = solve_extremal_path(model, bc, n_segments=1024, constants=unit_constants)
    ratios = energy_ratio_samples(model, res.path, unit_constants)
    drift = (ratios.max() - ratios.min()) / abs(ratios.mean())
    assert res.converged
    assert drift < 1e-9


def test_mesh_convergence(unit_constants):
    model = RotatingMassModel(M=1e-6, J=0.0)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    coarse = solve_extremal_path(model, bc, n_segments=512, constants=unit_constants)
    fine = solve_extremal_path(model, bc, n_segments=1024, constants=unit_constants)
    assert abs(coarse.proper_time / fine.proper_time - 1.0) < 1e-8


def test_extremality_random_node_perturbations(unit_constants):
    model = RotatingMassModel(M=1e-6, J=0.0)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    res = solve_extremal_path(model, bc, n_segments=128, constants=unit_constants)
    rng = np.random.default_rng(3)
    for _ in range(5):
        node = rng.integers(1, res.nodes.shape[0] - 1)
        coord = rng.integers(0, 3)
        drops = []
        for delta in (4e-4, 2e-4):
            nodes = res.nodes.copy()
            nodes[node, coord] += delta
            perturbed = functional_value(model, nodes, bc.start.t, bc.end.t, False, unit_constants)
            drop = res.proper_time - perturbed
            assert drop > 0.0
            drops.append(drop)
        # quadratic response: halving the perturbation quarters the loss
        assert abs(drops[0] / drops[1] - 4.0) < 0.4


def test_first_order_residual_scaling(unit_constants):
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    scales = [0.08, 0.16, 0.32, 0.64, 1.28, 2.56, 5.12, 8.0]
    report = verify_first_order(model, bc, scales, constants=unit_constants, n_segments=512)
    assert report.all_converged
    assert report.slope >= 1.8
    assert report.slope < 2.3
    # the prediction reuses the public first-order quadrature on the solver path
    base = solve_extremal_path(model, bc, False, unit_constants, 512)
    assert report.predicted_shifts[3] == pytest.approx(
        0.64 * delta_tau_first_order(model, base.path, unit_constants), rel=1e-12
    )


@pytest.mark.parametrize("largest", [1e4, 2e300])
def test_verify_rejects_scales_outside_the_perturbative_regime(unit_constants, largest):
    # |h/gbar| along the starting straight line is ~1e-4 per unit scale here
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    with pytest.raises(DomainError, match="scales .* perturbative"):
        verify_first_order(model, bc, [1.0, largest], constants=unit_constants, n_segments=64)


def test_exact_shift_is_odd_in_the_perturbation(unit_constants):
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    base = solve_extremal_path(model, bc, False, unit_constants, 512)

    def exact(scale):
        scaled = RotatingMassModel(M=model.M, J=scale * model.J)
        return (
            solve_extremal_path(scaled, bc, True, unit_constants, 512).proper_time
            - base.proper_time
        )

    ratios = []
    for eps in (8.0, 4.0, 2.0):
        ratios.append(abs(exact(eps) + exact(-eps)) / abs(exact(eps)))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.01
    # linear decay of the even part: halving eps roughly halves the ratio
    assert 0.3 < ratios[1] / ratios[0] < 0.7
    assert 0.3 < ratios[2] / ratios[1] < 0.7


def test_sweep_cap_raises_no_convergence(unit_constants):
    from gravclock.errors import NoConvergence

    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    with pytest.raises(NoConvergence):
        solve_extremal_path(FLAT, bc, constants=unit_constants, max_sweeps=0)


def test_boundary_validation(unit_constants):
    with pytest.raises(DomainError):
        BoundaryConditions(
            SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(-1.0, 1.0, EQ, 0.3)
        )
    spacelike = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(0.5, 1.0, EQ, 3.0)
    )
    with pytest.raises(DomainError):
        solve_extremal_path(FLAT, spacelike, constants=unit_constants)


def test_line_search_skips_candidates_equal_to_the_nodes(unit_constants, monkeypatch):
    # a candidate bit-equal to the assembled nodes evaluates to exactly the
    # current proper time and can never be accepted, so the solver must not
    # spend a functional evaluation on it.  The functional depends on phi
    # only through differences, so offsetting both endpoints by 5e7 rad
    # changes nothing but the rounding of the phi nodes (one ulp ~ 7e-9):
    # the last steps then round away at every node while their predicted
    # gain stays above the decrement floor, and the line search reaches them
    from gravclock import kernels

    assembled = []
    repeats = []
    events = []  # "a" assembly, "s" Newton-step solve, "e" functional evaluation
    real_assemble = kernels.newton_assemble
    real_solve = kernels.block_thomas
    real_functional = kernels.path_functional

    def assemble(x, *args):
        assembled.append(x.copy())
        events.append("a")
        return real_assemble(x, *args)

    def solve(*args):
        events.append("s")
        return real_solve(*args)

    def functional(x, *args):
        events.append("e")
        if assembled and np.array_equal(x, assembled[-1]):
            repeats.append(len(assembled))
        return real_functional(x, *args)

    monkeypatch.setattr(kernels, "newton_assemble", assemble)
    monkeypatch.setattr(kernels, "block_thomas", solve)
    monkeypatch.setattr(kernels, "path_functional", functional)
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 5e7), SpacetimePoint(30.0, 1.0, EQ, 5e7 + 0.3)
    )
    res = solve_extremal_path(model, bc, True, unit_constants, 512)
    monkeypatch.undo()

    evaluations = events.count("e")
    assert assembled and evaluations > len(assembled)
    assert repeats == []
    assert res.converged
    again = functional_value(model, res.nodes, bc.start.t, bc.end.t, True, unit_constants)
    assert res.proper_time == again
    # a damping level that is followed by a damped retry accepted nothing;
    # fewer than its 30 halvings means the rounded-away step cut it short
    levels = "".join(events).split("s")[1:-1]
    pruned = [run for run in levels if "a" not in run and len(run) < 30]
    assert pruned


def test_verify_solves_stop_on_the_newton_decrement(monkeypatch, capsys):
    # every solve of the default study, the radial one included, ends on
    # the first, undamped solve of its last sweep: one solve per sweep
    from gravclock import geodesic
    from gravclock.cli import run_command

    results = []
    real = geodesic.solve_extremal_path

    def solve(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(geodesic, "solve_extremal_path", solve)
    assert run_command(["verify"]) == 0
    capsys.readouterr()
    assert len(results) == 10
    for res in results:
        assert res.converged
        assert res.stop == "decrement"
        assert res.solves == res.sweeps
