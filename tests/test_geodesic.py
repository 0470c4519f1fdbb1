import math

import numpy as np
import pytest

from gravclock import geodesic, kernels
from gravclock.errors import DomainError, NoConvergence
from gravclock.geodesic import (
    BoundaryConditions,
    energy_ratio_samples,
    solve_extremal_path,
    verify_first_order,
)
from gravclock.propertime import InterferometerGeometry, build_straight_arm, delta_tau_first_order
from gravclock.spacetime import RotatingMassModel, SpacetimePoint
from reference_paths import proper_time_along

FLAT = RotatingMassModel(M=0.0, J=0.0)
EQ = math.pi / 2


def _functional_value(model, nodes, t_start, t_end, constants):
    """Discrete proper time of a node trajectory (midpoint rule per segment)."""
    dt = (t_end - t_start) / (nodes.shape[0] - 1)
    return kernels.path_functional(
        np.ascontiguousarray(nodes, dtype=np.float64), dt, constants.G * model.M,
        constants.G * model.J, constants.c,
    )


def _background(model):
    """The model without its rotation: G J = 0 drops the frame-dragging term."""
    return RotatingMassModel(M=model.M, J=0.0)


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
    again = proper_time_along(FLAT, res.path, unit_constants)
    assert abs(again / res.proper_time - 1.0) < 1e-12


def test_proper_time_along_rejects_azimuth_paths(unit_constants):
    arm = build_straight_arm(InterferometerGeometry(w=1.0, L=1e3, v0=1e-3), "right")
    with pytest.raises(DomainError, match="azimuth"):
        proper_time_along(FLAT, arm, unit_constants)


def test_perturbed_minus_unperturbed_on_same_path_is_the_first_order_shift(unit_constants):
    # quadrature of the rate deviation on a fixed path: the difference from
    # the first-order shift is second order in the perturbation strength
    model = RotatingMassModel(M=1e-6, J=2.5e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    path = solve_extremal_path(_background(model), bc, unit_constants, 256).path

    def mismatch(scale):
        scaled = RotatingMassModel(M=model.M, J=scale * model.J)
        on_path = proper_time_along(scaled, path, unit_constants) - proper_time_along(
            _background(scaled), path, unit_constants
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
            perturbed = _functional_value(model, nodes, bc.start.t, bc.end.t, unit_constants)
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
    base = solve_extremal_path(_background(model), bc, unit_constants, 512)
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
    base = solve_extremal_path(_background(model), bc, unit_constants, 512)

    def exact(scale):
        scaled = RotatingMassModel(M=model.M, J=scale * model.J)
        return (
            solve_extremal_path(scaled, bc, unit_constants, 512).proper_time
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


def test_sweep_cap_raises_no_convergence(unit_constants, monkeypatch):
    from gravclock.errors import NoConvergence

    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    monkeypatch.setattr(geodesic, "DEFAULT_MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence, match="no convergence after 0 sweeps"):
        solve_extremal_path(FLAT, bc, constants=unit_constants)


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


def test_a_step_that_rounds_away_at_every_node_stops_exhausted(unit_constants):
    # the functional depends on phi only through differences, so offsetting
    # both endpoints by 5e7 rad changes nothing but the rounding of the phi
    # nodes (one ulp ~ 7e-9): the last step then rounds away at every node
    # while its predicted gain stays above the decrement floor
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    events = [(0.0, 1.0, EQ, 0.0), (30.0, 1.0, EQ, 0.3)]
    unshifted = solve_extremal_path(
        model, BoundaryConditions(*(SpacetimePoint(*e) for e in events)), unit_constants, 512
    )
    bc = BoundaryConditions(*(SpacetimePoint(t, r, th, ph + 5e7) for t, r, th, ph in events))
    res = solve_extremal_path(model, bc, unit_constants, 512)

    assert (unshifted.stop, res.stop) == ("decrement", "exhausted")
    assert res.converged and res.sweeps == 3
    again = _functional_value(model, res.nodes, bc.start.t, bc.end.t, unit_constants)
    assert res.proper_time == again
    assert res.proper_time == pytest.approx(unshifted.proper_time, rel=1e-12)


def _record_stacks(monkeypatch):
    # every stacked solve, with its starts and the results of its members
    stacks = []
    real = geodesic._solve_stack

    def solve(bc, starts, *args, **kwargs):
        results, failure = real(bc, starts, *args, **kwargs)
        stacks.append((starts, results))
        return results, failure

    monkeypatch.setattr(geodesic, "_solve_stack", solve)
    return stacks


def _singular_for(singular):
    # kernels.block_thomas as a singular block leaves it: the real solution,
    # with NaN rows for each path of the stack whose diagonal blocks equal
    # `singular`
    real = kernels.block_thomas

    def solve(diag, off, rhs):
        hit = [np.array_equal(member, singular) for member in diag.reshape((-1,) + singular.shape)]
        steps = real(diag, off, rhs)
        steps[np.reshape(hit, diag.shape[:-3])] = np.nan
        return steps

    return solve


def test_verify_solves_stop_on_the_newton_decrement(monkeypatch, capsys):
    # every solve of the default study, the radial one included, ends on
    # the Newton decrement
    from gravclock.cli import run_command

    stacks = _record_stacks(monkeypatch)
    assert run_command(["verify"]) == 0
    capsys.readouterr()
    results = [res for _, stack in stacks for res in stack]
    assert len(results) == 10
    for res in results:
        assert res.converged
        assert res.stop == "decrement"
    # the base solve, the eight scales in one stack, then the radial solve;
    # from the predictor, the scaled solves take 2-3 sweeps each (3-4 from
    # the chord)
    assert [len(stack) for _, stack in stacks] == [1, 8, 1]
    assert sum(res.sweeps for res in stacks[1][1]) <= 20


def _count_kernel_calls(monkeypatch, argv):
    from gravclock.cli import run_command

    calls = {"path_functional": 0, "newton_assemble": 0, "block_thomas": 0}
    for name in calls:
        real = getattr(kernels, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, counted)
    code = run_command(argv)
    monkeypatch.undo()
    return code, calls


def test_verify_makes_one_stacked_sweep_for_all_its_scales(monkeypatch, capsys):
    code, calls = _count_kernel_calls(monkeypatch, ["verify"])
    capsys.readouterr()
    assert code == 0
    # base and radial solves, the predictor's one step and the stack's
    # sweeps, each with one block solve and one functional evaluation
    assert calls["newton_assemble"] == calls["block_thomas"] <= 9
    assert calls["path_functional"] <= 11


@pytest.mark.parametrize(
    "argv", ["verify --scales 15,30", "verify --scales 14.5,1", "verify --n-segments 2 --scales 100,200"]
)
def test_a_failing_verify_takes_one_block_solve_per_assembly(monkeypatch, capsys, argv):
    # each sweep solves its Newton system once and evaluates the functional
    # once, so a scale list that fails does so in a few sweeps
    code, calls = _count_kernel_calls(monkeypatch, argv.split())
    capsys.readouterr()
    assert code == 2
    assert calls["newton_assemble"] == calls["block_thomas"]
    assert calls["path_functional"] <= 10


def test_a_scale_at_the_sweep_cap_raises_no_convergence_as_it_is(unit_constants, monkeypatch, capsys):
    # the sweep cap is the one stop of an iteration that does not converge:
    # a cap of one sweep on the scales' stack alone, which the default
    # study's scales need 2-3 sweeps to leave, raises its NoConvergence
    # unchanged, with no scale named, and the CLI exits 3
    from gravclock.cli import run_command

    failures = []
    real = geodesic._solve_stack

    def capped(*args, start_name="starting trajectory"):
        with monkeypatch.context() as patch:
            if start_name == "predictor start":
                patch.setattr(geodesic, "DEFAULT_MAX_SWEEPS", 1)
            results, failure = real(*args, start_name=start_name)
        failures.append(failure)
        return results, failure

    monkeypatch.setattr(geodesic, "_solve_stack", capped)
    assert run_command(["verify"]) == 3
    _, err = capsys.readouterr()
    base, (index, exc) = failures
    assert base is None and index == 0
    assert isinstance(exc, NoConvergence)
    assert str(exc).startswith("no convergence after 1 sweeps (last relative change ")
    assert err == f"no convergence: {exc}\n"

    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    failures.clear()
    with pytest.raises(NoConvergence) as raised:
        verify_first_order(model, bc, [0.5, 8.0], constants=unit_constants, n_segments=512)
    assert raised.value is failures[1][1]


def test_predictor_start_reaches_the_maximum_of_the_chord_start(unit_constants, monkeypatch):
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    stacks = _record_stacks(monkeypatch)
    verify_first_order(model, bc, [0.5, 8.0], constants=unit_constants, n_segments=512)
    monkeypatch.undo()

    base = stacks[0][1][0]
    starts, scaled = stacks[1]
    assert len(stacks) == 2 and len(scaled) == 2
    for scale, start, predicted in zip([0.5, 8.0], starts, scaled):
        assert not np.array_equal(start, base.nodes)
        chord = solve_extremal_path(
            RotatingMassModel(M=model.M, J=scale * model.J), bc, unit_constants, 512
        )
        assert predicted.stop == chord.stop == "decrement"
        assert predicted.sweeps <= chord.sweeps
        assert abs(predicted.proper_time - chord.proper_time) <= 1e-13 * abs(chord.proper_time)


def test_a_singular_predictor_block_starts_every_scale_from_the_base_nodes(unit_constants, monkeypatch):
    # only the predictor's solve meets a singular block: every scale then
    # starts from the base nodes and must reach the maximum that its
    # predictor start reaches
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    scales = [0.5, 8.0]
    stacks = _record_stacks(monkeypatch)
    verify_first_order(model, bc, scales, constants=unit_constants, n_segments=512)
    base = stacks[0][1][0]
    predicted = stacks[1][1]
    singular = kernels.newton_assemble(base.nodes, 30.0 / 512, 1e-6, model.J, 1.0)[1]
    monkeypatch.setattr(kernels, "block_thomas", _singular_for(singular))
    stacks.clear()
    verify_first_order(model, bc, scales, constants=unit_constants, n_segments=512)
    monkeypatch.undo()

    starts, fallback = stacks[1]
    for start, one, many in zip(starts, fallback, predicted):
        assert np.array_equal(start, base.nodes)
        assert one.stop == "decrement"
        assert abs(one.proper_time - many.proper_time) <= 1e-13 * abs(many.proper_time)


def test_stacked_solve_matches_one_path_solves(unit_constants, monkeypatch):
    # the predictor starts of three scales, and a fourth member whose first
    # system gives NaN rows as a singular block would: that member alone
    # fails, and every member must end exactly as it does alone
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    scales = np.array([0.08, 5.12, 8.0, 2.0])
    dt = 30.0 / 512
    gm, gj = 1e-6, unit_constants.G * (scales * model.J)
    base = solve_extremal_path(_background(model), bc, unit_constants, 512)
    grad, diag, off = kernels.newton_assemble(base.nodes, dt, gm, model.J, 1.0)
    tangent = np.zeros_like(base.nodes)
    tangent[1:-1] = kernels.block_thomas(diag, off, -grad)
    starts = base.nodes + scales[:, None, None] * tangent

    singular = kernels.newton_assemble(starts[3], dt, gm, gj[3], 1.0)[1]
    monkeypatch.setattr(kernels, "block_thomas", _singular_for(singular))
    stacked, failure = geodesic._solve_stack(bc, starts, gm, gj, 1.0)
    alone = [
        solve_extremal_path(
            RotatingMassModel(M=model.M, J=scale * model.J), bc, unit_constants, 512, start=start
        )
        for scale, start in zip(scales[:3], starts)
    ]
    with pytest.raises(DomainError) as singular_alone:
        solve_extremal_path(
            RotatingMassModel(M=model.M, J=scales[3] * model.J), bc, unit_constants, 512,
            start=starts[3],
        )
    monkeypatch.undo()

    index, exc = failure
    assert (index, type(exc)) == (3, DomainError)
    assert str(exc) == str(singular_alone.value)
    assert str(exc).startswith("sweep 1 found no maximum")
    assert stacked[3] is None
    for one, many in zip(alone, stacked):
        assert many.proper_time == one.proper_time
        assert np.array_equal(many.nodes, one.nodes)
        assert (many.sweeps, many.stop) == (one.sweeps, one.stop)
    assert len({res.sweeps for res in stacked[:3]}) > 1  # members leave the stack at different sweeps


def test_start_must_have_the_node_shape_and_the_boundary_events(unit_constants):
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    frac = np.linspace(0.0, 1.0, 9)[:, None]
    chord = (1.0 - frac) * np.array([1.0, EQ, 0.0]) + frac * np.array([1.0, EQ, 0.3])
    moved_start, moved_end = chord.copy(), chord.copy()
    moved_start[0, 0] += 1e-12
    moved_end[-1, 2] += 1e-3
    for start, reason in [
        (chord[:-1], "shape"), (chord[:, :2], "shape"), (chord.ravel(), "shape"),
        (moved_start, "boundary events"), (moved_end, "boundary events"),
    ]:
        with pytest.raises(DomainError, match=reason):
            solve_extremal_path(FLAT, bc, constants=unit_constants, n_segments=8, start=start)
    bent = chord.copy()
    bent[1:-1, 0] += 0.01
    from_chord = solve_extremal_path(FLAT, bc, constants=unit_constants, n_segments=8)
    from_bent = solve_extremal_path(FLAT, bc, constants=unit_constants, n_segments=8, start=bent)
    assert from_bent.proper_time == pytest.approx(from_chord.proper_time, rel=1e-13)


def test_a_singular_system_raises_naming_its_sweep(unit_constants, monkeypatch):
    # a singular block leaves the step non-finite (NaN rows): the Hessian
    # is not negative definite, so no maximum lies near the path
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    real = kernels.block_thomas
    calls = []

    def solve(*args):
        calls.append(args)
        steps = real(*args)
        if len(calls) == 2:
            steps[...] = np.nan
        return steps

    monkeypatch.setattr(kernels, "block_thomas", solve)
    with pytest.raises(DomainError) as raised:
        solve_extremal_path(model, bc, unit_constants, 512)
    monkeypatch.undo()
    assert len(calls) == 2
    assert str(raised.value) == (
        "sweep 2 found no maximum of the proper time near the path: "
        "its Hessian is not negative definite"
    )


def test_perturbed_solves_past_the_fold_raise_before_they_leave_the_weak_field(unit_constants):
    # above ~13 x 1.25e-3 the maximum ceases to exist (a fold) and Newton
    # steps head for r = 0, where the 8GJ sin^2(theta) v_phi / (c^4 r) term
    # is unbounded above; the undamped step fails at once
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    for j, n_segments, reason in [
        (0.25, 2, "sweep 1 found no maximum of the proper time near the path: "
                  "its Hessian is not negative definite"),
        (30 * 1.25e-3, 512, "sweep 1: the Newton step did not raise the proper time"),
    ]:
        with pytest.raises(DomainError) as raised:
            solve_extremal_path(RotatingMassModel(M=1e-6, J=j), bc, unit_constants, n_segments)
        assert str(raised.value) == reason


def test_weak_field_check_names_each_path_that_left_it(unit_constants):
    # the check after every perturbed sweep, on a stack of three paths: one
    # inside the weak field, one with a node at r = 0 and one whose
    # frame-dragging share reaches the limit
    frac = np.linspace(0.0, 1.0, 9)[:, None]
    chord = (1.0 - frac) * np.array([1.0, EQ, 0.0]) + frac * np.array([1.0, EQ, 0.3])
    through_axis = chord.copy()
    through_axis[4, 0] = 0.0
    nodes = np.stack([chord, through_axis, chord])
    errors = geodesic._weak_field_errors(
        nodes, 30.0 / 8, 1e-6, np.array([1.25e-3, 1.25e-3, 40.0]), 1.0, 7
    )
    assert errors[0] is None
    assert [type(e) for e in errors[1:]] == [DomainError, DomainError]
    assert str(errors[1]) == "sweep 7 carried a node to r <= 0"
    assert str(errors[2]) == (
        "sweep 7 left the weak field: |2 h_tphi v_phi / c| is 3.2 of "
        "|1 - eps - v^2/c^2| on a segment (limit 0.5)"
    )
