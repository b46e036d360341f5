"""Gap policy, command law, closed-loop behavior and numerical consistency."""

import random

import pytest

from dfp.acc import (
    AccConfig,
    AccError,
    Collision,
    Scenario,
    VehicleState,
    acc_command,
    desired_gap,
    plant_step,
    simulate,
    trajectory_json,
)


CFG = AccConfig()


def equilibrium_scenario(speed=25.0, profile=((0.0, 25.0),), dt=0.05, duration=120.0):
    return Scenario(
        ego=VehicleState(position=0.0, speed=speed),
        lead=VehicleState(position=desired_gap(CFG, speed), speed=profile[0][1]),
        lead_profile=tuple(profile),
        dt=dt,
        duration=duration,
    )


# -- gap policy and command law ---------------------------------------------------

def test_desired_gap_formula():
    assert desired_gap(CFG, 20.0) == 32.0
    assert desired_gap(CFG, 0.0) == 2.0
    assert desired_gap(AccConfig(time_headway=2.0), 10.0) == 22.0


def test_command_at_equilibrium_is_zero():
    assert acc_command(CFG, desired_gap(CFG, 20.0), 20.0, 20.0) == 0.0


def test_command_saturates_on_huge_deficit():
    assert acc_command(CFG, 0.5, 30.0, 0.0) == CFG.accel_min
    assert acc_command(CFG, 10_000.0, 0.0, 30.0) == CFG.accel_max


def test_command_arithmetic():
    # gap 40, desired 32 at v_ego 20, closing at 2 m/s
    got = acc_command(CFG, 40.0, 20.0, 18.0)
    assert got == pytest.approx(0.18 * 8 + 0.8 * (-2.0))
    assert got == pytest.approx(-0.16)


def test_config_validation():
    with pytest.raises(AccError):
        AccConfig(standstill_gap=0.0)
    with pytest.raises(AccError):
        AccConfig(time_headway=-1.0)
    with pytest.raises(AccError):
        AccConfig(accel_min=0.5)


def test_scenario_validation():
    with pytest.raises(AccError):
        Scenario(VehicleState(0, 10), VehicleState(-5, 10), ((0.0, 10.0),))
    with pytest.raises(AccError):
        Scenario(VehicleState(0, 10), VehicleState(30, 10), ((0.0, 10.0),), dt=0)
    with pytest.raises(AccError):
        Scenario(VehicleState(0, 10), VehicleState(30, 10),
                 ((5.0, 10.0), (1.0, 20.0)))


# -- plant ----------------------------------------------------------------------

def test_plant_step_exact_kinematics():
    x, v = plant_step(0.0, 10.0, 2.0, 0.5)
    assert v == 11.0
    assert x == pytest.approx(10.0 * 0.5 + 0.5 * 2.0 * 0.25)


def test_plant_step_stops_inside_step():
    # braking -4 from 1 m/s stops after 0.25 s, not at the step boundary
    x, v = plant_step(0.0, 1.0, -4.0, 0.5)
    assert v == 0.0
    assert x == pytest.approx(1.0 * 0.25 + 0.5 * -4.0 * 0.25**2)
    x2, v2 = plant_step(x, 0.0, -4.0, 0.5)
    assert (x2, v2) == (x, 0.0)  # a stopped vehicle never slides backwards


# -- closed loop ------------------------------------------------------------------

def test_equilibrium_is_preserved():
    scenario = equilibrium_scenario(speed=20.0, profile=((0.0, 20.0),), duration=30.0)
    trajectory = simulate(scenario, CFG)
    gaps = [p.gap for p in trajectory]
    assert all(abs(g - desired_gap(CFG, 20.0)) < 1e-9 for g in gaps)
    assert all(p.command == pytest.approx(0.0, abs=1e-12) for p in trajectory)


def test_lead_step_scenario_settles_and_matches_fine_oracle():
    scenario = equilibrium_scenario(profile=((0.0, 25.0), (10.0, 15.0)))
    coarse = simulate(scenario, CFG)
    fine = simulate(scenario, CFG, dt=scenario.dt / 10)
    assert len(fine) == (len(coarse) - 1) * 10 + 1
    worst = max(abs(f.ego_position - c.ego_position)
                for c, f in zip(coarse, fine[::10]))
    assert worst < 0.1  # re-integration oracle agreement
    assert all(p.gap > 0 for p in coarse)
    late = [p for p in coarse if p.t > 70.0]
    assert late and all(abs(p.gap - desired_gap(CFG, p.ego_speed)) < 0.5 for p in late)


def test_lead_positions_integrate_identically_across_resolutions():
    scenario = equilibrium_scenario(profile=((0.0, 25.0), (10.0, 15.0)), duration=40.0)
    coarse = simulate(scenario, CFG)
    fine = simulate(scenario, CFG, dt=scenario.dt / 10)
    worst = max(abs(f.lead_position - c.lead_position)
                for c, f in zip(coarse, fine[::10]))
    assert worst < 1e-6


def test_identical_runs_are_byte_identical():
    scenario = equilibrium_scenario(profile=((0.0, 25.0), (10.0, 15.0)), duration=20.0)
    a = trajectory_json(simulate(scenario, CFG))
    b = trajectory_json(simulate(scenario, CFG))
    assert a == b


def test_collision_reported_and_run_halted():
    # lead parks 3 m ahead while ego barrels in at 30 m/s
    scenario = Scenario(VehicleState(0.0, 30.0), VehicleState(3.0, 0.0),
                        ((0.0, 0.0),), dt=0.05, duration=10.0)
    with pytest.raises(Collision) as err:
        simulate(scenario, CFG)
    assert err.value.gap <= 0


# -- safety property ------------------------------------------------------------------

def feasible_profile(rng, v0, steps=4, horizon=120.0):
    """Random piecewise-constant profile the actuator can always follow.

    Speeds stay in [0, 30]; each downward step keeps the relative braking
    distance at max deceleration within the equilibrium gap at the speed
    before the step, with margin, and steps are spaced for re-settling.
    """
    profile = [(0.0, v0)]
    v = v0
    t = 0.0
    for _ in range(steps):
        t += rng.uniform(18.0, 28.0)
        if t >= horizon:
            break
        gap_before = desired_gap(CFG, v)
        dv_safe = (2 * -CFG.accel_min * gap_before * 0.6) ** 0.5
        lo = max(0.0, v - dv_safe)
        v = rng.uniform(lo, min(30.0, v + 8.0))
        profile.append((round(t, 2), round(v, 3)))
    return tuple(profile)


def test_no_collision_over_random_feasible_profiles():
    rng = random.Random(31337)
    for trial in range(50):
        v0 = rng.uniform(0.0, 30.0)
        profile = feasible_profile(rng, v0)
        scenario = Scenario(
            ego=VehicleState(0.0, v0),
            lead=VehicleState(desired_gap(CFG, v0) + rng.uniform(0.0, 10.0), v0),
            lead_profile=profile,
            dt=0.05,
            duration=120.0,
        )
        trajectory = simulate(scenario, CFG)  # raises Collision on failure
        assert min(p.gap for p in trajectory) > 0, f"trial {trial}: {profile}"
