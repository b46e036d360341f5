"""Adaptive cruise control demo: gap policy, command law, simulation.

The controller keeps a constant-time-headway gap to the lead vehicle with
proportional feedback on gap error and closing rate, saturated to the
actuator envelope::

    desired = standstill_gap + time_headway * v_ego
    accel   = clamp(kp * (gap - desired) + kv * (v_lead - v_ego),
                    accel_min, accel_max)

Integration is fixed-step, speed first: the commanded acceleration is held
over the step, the speed update clamps at zero, and the position advances
by the exact kinematics of the held acceleration (including a stop inside
the step). Held-acceleration kinematics keep the coarse run within the
re-integration oracle's tolerance even while the command saturates.

Lead speed profiles are piecewise constant; the profile value at the step
start holds for the whole step, so any refinement of dt that keeps the
switch times on the grid integrates the lead identically.

This module touches only plain state and numbers: the full-stack wiring
(devices, transport, pipeline, record store) lives in the runtime layer,
whose scenario loop drives the same plant through ``plant_step``.
"""

from __future__ import annotations

from dataclasses import dataclass

from dfp import RuntimeFault
from dfp.util import clamp


class AccError(RuntimeFault):
    pass


class Collision(AccError):
    def __init__(self, t: float, gap: float):
        super().__init__(f"gap {gap:.3f} m at t={t:.2f} s")
        self.t = t
        self.gap = gap


@dataclass
class VehicleState:
    position: float = 0.0  # m, longitudinal
    speed: float = 0.0  # m/s, non-negative

    def __post_init__(self):
        if self.speed < 0:
            raise AccError(f"vehicle speed must be non-negative, not {self.speed!r}")


@dataclass(frozen=True)
class AccConfig:
    standstill_gap: float = 2.0  # m
    time_headway: float = 1.5  # s
    kp: float = 0.18  # 1/s^2
    kv: float = 0.8  # 1/s
    accel_min: float = -3.5  # m/s^2
    accel_max: float = 2.0  # m/s^2

    def __post_init__(self):
        if self.standstill_gap <= 0:
            raise AccError("standstill_gap must be positive")
        if self.time_headway <= 0:
            raise AccError("time_headway must be positive")
        if not self.accel_min < 0 < self.accel_max:
            raise AccError("need accel_min < 0 < accel_max")


@dataclass(frozen=True)
class Scenario:
    ego: VehicleState
    lead: VehicleState
    lead_profile: tuple  # ((t_start_s, speed_mps), ...) piecewise constant
    dt: float = 0.05
    duration: float = 120.0

    def __post_init__(self):
        if self.dt <= 0:
            raise AccError("dt must be positive")
        if self.duration <= 0:
            raise AccError("duration must be positive")
        if self.lead.position <= self.ego.position:
            raise AccError("lead must start ahead of ego")
        if not self.lead_profile:
            raise AccError("lead profile must be non-empty")
        starts = [t for t, _ in self.lead_profile]
        if starts != sorted(starts):
            raise AccError("lead profile must be ordered by t_start")
        if any(v < 0 for _, v in self.lead_profile):
            raise AccError("lead speeds must be non-negative")


def desired_gap(cfg: AccConfig, ego_speed: float) -> float:
    """Constant-time-headway gap policy."""
    return cfg.standstill_gap + cfg.time_headway * ego_speed


def acc_command(cfg: AccConfig, gap: float, v_ego: float, v_lead: float) -> float:
    """Saturated proportional command on gap error and closing rate."""
    raw = cfg.kp * (gap - desired_gap(cfg, v_ego)) + cfg.kv * (v_lead - v_ego)
    return clamp(raw, cfg.accel_min, cfg.accel_max)


def lead_speed_at(profile, t: float) -> float:
    """Profile value holding at time t (right-continuous at switch points)."""
    speed = profile[0][1]
    for t_start, v in profile:
        if t >= t_start - 1e-12:
            speed = v
        else:
            break
    return speed


def plant_step(position: float, speed: float, accel: float, dt: float) -> tuple[float, float]:
    """Advance one vehicle by dt under a held acceleration.

    Speed first (clamped at zero), then position by exact kinematics of
    the held acceleration; a vehicle braking to rest stops inside the step
    instead of sliding backwards.
    """
    new_speed = speed + accel * dt
    if new_speed > 0 or accel >= 0:
        new_position = position + speed * dt + 0.5 * accel * dt * dt
        return new_position, max(0.0, new_speed)
    if speed <= 0.0:
        return position, 0.0
    t_stop = speed / -accel
    return position + speed * t_stop + 0.5 * accel * t_stop * t_stop, 0.0


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    ego_position: float
    ego_speed: float
    lead_position: float
    lead_speed: float
    gap: float
    command: float


def simulate(scenario: Scenario, cfg: AccConfig,
             dt: float | None = None) -> list[TrajectoryPoint]:
    """Closed-loop run of the direct control law; fails on contact."""
    dt = scenario.dt if dt is None else dt
    steps = round(scenario.duration / dt)
    ego_x, ego_v = scenario.ego.position, scenario.ego.speed
    lead_x = scenario.lead.position
    trajectory = []
    for k in range(steps + 1):
        t = k * dt
        v_lead = lead_speed_at(scenario.lead_profile, t)
        gap = lead_x - ego_x
        accel = acc_command(cfg, gap, ego_v, v_lead)
        trajectory.append(TrajectoryPoint(t, ego_x, ego_v, lead_x, v_lead, gap, accel))
        if gap <= 0:
            raise Collision(t, gap)
        if k == steps:
            break
        ego_x, ego_v = plant_step(ego_x, ego_v, accel, dt)
        lead_x = lead_x + v_lead * dt  # piecewise-constant speed: exact
    return trajectory
