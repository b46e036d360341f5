"""Full-stack assembly and the scenario runner.

The runner owns the wiring between layers, so every measurement travels
the long way round: the scenario feeds the radar device, the acquisition
node stamps a frame, abstraction normalizes it, ingestion files it in the
environment store, the planner reads it back and the controller's output
is published on the command topic, where the runner picks it up and
integrates the plant. Application nodes only ever touch SDK surfaces.

The task graph is the data plane. Only the command leaves it, so only the
declared ``control/*`` topic crosses the middleware. Its payload is the
commanded acceleration as one little-endian IEEE-754 float64 (8 bytes),
not JSON. A round returns only the values it produced, and the runner
publishes the command from them. The graph counts what it fires as it
fires it: per node the firings and the largest simulated ``elapsed_ms``,
per topic the rounds that produced it. The report reads those counts, so
the runner does not recount a round. Every declared topic but the command
is reported from the graph's produced count; graph ports are lossless, so
such a topic delivers what it publishes and drops nothing.

``assemble`` is the one assembly of every layer a config declares: the
HAL's devices, the store's saved ODDs, the task graph and the mode
coordinator. Every config declares a drive, its ``acc`` section, so a Stack
always has a graph, a coordinator and a command topic. ``dfp.config``
validates a config by assembling it, and a Stack takes its layers from the
same function, so a Stack starts only what validation built. Node bodies
resolve through the algorithm registry. Entries of the form
``builtin:<name>`` bind to the builders below, over the assembly's HAL,
store and acc section; anything else is imported as ``module:attribute``
and called with the node to produce a body. Any ``DfpError`` a layer
raises, an entry that does not import included, becomes one
``ConfigurationError`` naming the device, the ODD or the pipeline. Each
assembly builds from copies of the config's node declarations, so two
Stacks from one config drive independently.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import replace
from functools import partial
from typing import NamedTuple

from dfp import ConfigurationError, DfpError, RuntimeFault
from dfp.acc import Collision, desired_gap, lead_speed_at, plant_step, simulate
from dfp.envmodel import EnvStore
from dfp.funcsw import AlgorithmRegistry, Stage, TaskGraph
from dfp.hal import DeviceKind, DeviceRegistry, normalize
from dfp.middleware import Domain
from dfp.modemgr import Coordinator
from dfp.util import canonical_json

log = logging.getLogger("dfp.runtime")

# the command topic's payload: accel_mps2 as a little-endian float64
COMMAND = struct.Struct("<d")
# the input the runner feeds the ego's speed on, as {"speed_mps": v}
ODOMETRY = "vehicle/odometry"


# -- builtin node bodies: each builder takes (hal, env, acc, node) ---------------


def _builtin_radar_acquire(hal, env, acc, node):
    device_id = node.config.get("device_id")
    if type(device_id) is not str:
        raise ConfigurationError(
            f"node {node.node_id!r}: config device_id must be str, not {device_id!r}")
    handle = hal.handle(device_id)
    if handle.descriptor.kind is not DeviceKind.RADAR:
        raise ConfigurationError(f"node {node.node_id!r}: device {device_id!r} is not a radar")
    out_topic = node.outputs[0]
    in_topic = node.inputs[0]

    def body(inputs, config):
        return {out_topic: handle.stamp(inputs[in_topic])}

    return body


def _builtin_normalize(hal, env, acc, node):
    out_topic = node.outputs[0]
    in_topic = node.inputs[0]

    def body(inputs, config):
        return {out_topic: normalize(inputs[in_topic])}

    return body


def _builtin_env_ingest(hal, env, acc, node):
    out_topic = node.outputs[0]
    in_topic = node.inputs[0]

    def body(inputs, config):
        record_id = env.ingest(inputs[in_topic])
        return {out_topic: {"record_id": record_id}}

    return body


def _builtin_acc_planner(hal, env, acc, node):
    cfg = acc.config
    lead_topic, odom_topic = node.inputs
    out_topic = node.outputs[0]
    # read once: a named tuple's field costs more than a local
    kp, kv, standstill, headway = cfg.kp, cfg.kv, cfg.standstill_gap, cfg.time_headway

    def body(inputs, config):
        record = env.read(inputs[lead_topic]["record_id"])
        gap = record.attributes["range_m"]
        closing = record.attributes["range_rate_mps"]  # v_lead - v_ego
        v_ego = inputs[odom_topic]["speed_mps"]
        target = standstill + headway * v_ego  # desired_gap(cfg, v_ego)
        accel_raw = kp * (gap - target) + kv * closing
        return {out_topic: {"gap_m": gap, "desired_gap_m": target,
                            "accel_raw": accel_raw}}

    return body


def _builtin_acc_controller(hal, env, acc, node):
    cfg = acc.config
    in_topic = node.inputs[0]
    out_topic = node.outputs[0]
    accel_min, accel_max = cfg.accel_min, cfg.accel_max

    def body(inputs, config):
        accel = max(accel_min, min(accel_max, inputs[in_topic]["accel_raw"]))  # clamp
        return {out_topic: {"accel_mps2": accel}}

    return body


BUILTIN_BODIES = {
    "builtin:radar_acquire": _builtin_radar_acquire,
    "builtin:normalize": _builtin_normalize,
    "builtin:env_ingest": _builtin_env_ingest,
    "builtin:acc_planner": _builtin_acc_planner,
    "builtin:acc_controller": _builtin_acc_controller,
}


def fed_inputs(nodes) -> tuple:
    """The two inputs the runner feeds each drive step: the first input of
    the acquisition stage, which gets the radar's raw measurement (None
    when no acquisition node has an input), and ``ODOMETRY``."""
    world = next((n.inputs[0] for n in nodes if n.stage is Stage.ACQUISITION and n.inputs), None)
    return world, ODOMETRY


def assemble(cfg, stub_imports: bool = False):
    """Every layer the system config ``cfg`` declares, built by its own constructor.

    Returns ``(hal, env, graph, coordinator)``. The ``acc`` section's plant
    needs nodes to drive it, a ``control/*`` topic for its command and an
    acquisition node with an input. The graph checks that each node input
    is one a node produces or one of the topics it is handed: the declared
    topics the runner feeds (``fed_inputs``), or every declared topic when
    no acquisition node has an input, so that the graph's own checks, the
    stage order among them, speak first. The graph gets copies of the node
    declarations, since resolving a node sets its body. With
    ``stub_imports``, an entry that is not builtin gets a body that produces
    nothing instead of being imported, so validating imports nothing.
    """
    hal, env, registry = DeviceRegistry(), EnvStore(), AlgorithmRegistry()
    try:
        for descriptor in cfg.devices:
            where = f"device {descriptor.device_id!r}"
            hal.register_device(descriptor)
        for name, query in cfg.odds:
            where = f"odd {name!r}"
            env.save_odd(name, query)
        where = "pipeline"
        for descriptor in cfg.algorithms:
            builder = BUILTIN_BODIES.get(descriptor.entry)
            if builder is not None:
                factory = partial(builder, hal, env, cfg.acc)
            else:  # None: the registry imports the entry when a node resolves it
                factory = (lambda node: lambda inputs, config: {}) if stub_imports else None
            registry.register(descriptor, factory)
        if not cfg.nodes:
            raise ConfigurationError("the acc section needs pipeline nodes to drive its plant")
        world, odometry = fed_inputs(cfg.nodes)
        feeds = cfg.topic_names()
        if world is not None:  # the runner feeds only these
            feeds &= {world, odometry}
        graph = TaskGraph([replace(n, config=dict(n.config)) for n in cfg.nodes],
                          cfg.groups, registry=registry, external_topics=feeds)
        if not any(t.name.startswith("control/") for t in cfg.topics):
            raise ConfigurationError("the acc section needs a control/* topic for its command")
        coordinator = Coordinator(groups=set(cfg.groups), group_controller=graph)
        coordinator.load(cfg.fsms)
        if world is None:
            raise ConfigurationError("the acc section needs an acquisition node with an input")
    except DfpError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    return hal, env, graph, coordinator


class RunResult(NamedTuple):
    metrics: dict
    trajectory: list
    fault: str | None = None

    def metrics_json(self) -> str:
        return canonical_json(self.metrics) + "\n"


class Stack:
    """Every layer assembled from one validated system config."""

    def __init__(self, config, seed: int | None = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.domain = Domain()
        self.platform = self.domain.create_participant("platform")
        self.hal, self.env, self.graph, self.coordinator = assemble(config)
        # the command topic is the declared control/* topic (README, "System configuration")
        command = next(t for t in config.topics if t.name.startswith("control/"))
        self._command_topic = command.name
        self._command_pub = self.platform.create_publisher(command)
        self._command_sub = self.platform.create_subscriber(command)
        # a group a mode action names starts with its mode
        driven = self.coordinator.driven_groups
        self.graph.start(groups=[g for g in config.groups if g not in driven])
        self._fsm_dispatches = 0

    # -- driving -----------------------------------------------------------------

    def dispatch(self, fsm_id: str, event: str):
        self._fsm_dispatches += 1
        return self.coordinator.dispatch(fsm_id, event)

    def run_scenario(self, duration: float | None = None,
                     event_schedule: dict | None = None) -> RunResult:
        """Drive the plant through the full stack, one round per dt step.

        ``event_schedule`` maps a step index to mode events dispatched
        before that step's round; engage events from the config run at
        step 0.
        """
        setup = self.config.acc
        scenario = setup.scenario
        schedule = {k: list(v) for k, v in (event_schedule or {}).items()}
        schedule[0] = list(setup.engage_events) + schedule.get(0, [])

        world_topic, odometry_topic = fed_inputs(self.config.nodes)

        command_topic = self._command_topic
        dt = scenario.dt
        dt_ns = int(round(dt * 1e9))
        steps = round(scenario.duration / dt) if duration is None else round(duration / dt)
        ego_x, ego_v = scenario.ego.position, scenario.ego.speed
        lead_x = scenario.lead.position
        lead_profile = scenario.lead_profile
        trajectory = []
        min_gap = math.inf
        fault = None
        # bound once per drive, not once per step; the graph's step is read
        # here, so a step the caller put on the graph instance is the one run
        graph_step = self.graph.step
        publish, take = self._command_pub.publish, self._command_sub.take
        advance = self.domain.clock.advance
        pack, unpack = COMMAND.pack, COMMAND.unpack
        step_plant, append = plant_step, trajectory.append
        try:
            for k in range(steps + 1):
                t = k * dt
                if k in schedule:
                    for fsm_id, event in schedule[k]:
                        self.dispatch(fsm_id, event)
                v_lead = lead_speed_at(lead_profile, t)
                gap = lead_x - ego_x
                raw = {"range_km": gap / 1000.0,
                       "range_rate_mps": v_lead - ego_v,
                       "azimuth_rad": 0.0}
                produced = graph_step({
                    world_topic: raw,
                    odometry_topic: {"speed_mps": ego_v},
                })
                if command_topic in produced:
                    publish(pack(produced[command_topic]["accel_mps2"]))
                advance(dt_ns)
                accel = 0.0  # control group silent: coast
                for sample in take():
                    (accel,) = unpack(sample.payload.data)
                    sample.release()
                append({
                    "t": t, "ego_position": ego_x, "ego_speed": ego_v,
                    "lead_position": lead_x, "lead_speed": v_lead,
                    "gap": gap, "command": accel,
                })
                if gap < min_gap:
                    min_gap = gap
                if gap <= 0:
                    raise Collision(t, gap)
                if k == steps:
                    break
                ego_x, ego_v = step_plant(ego_x, ego_v, accel, dt)
                lead_x = lead_x + v_lead * dt
        except RuntimeFault as exc:
            fault = f"{type(exc).__name__}: {exc}"
            log.error("scenario fault: %s", fault)
        return RunResult(metrics=self._metrics(trajectory, fault, min_gap),
                         trajectory=trajectory, fault=fault)

    # -- metrics ------------------------------------------------------------------

    def _metrics(self, trajectory: list, fault: str | None, min_gap: float) -> dict:
        graph, sub = self.graph, self._command_sub
        topics = {}
        for t in self.config.topics:
            n = graph.produced_count_of(t.name)
            topics[t.name] = {"published": n, "delivered": n, "dropped": 0}
        topics[self._command_topic] = {
            "published": self._command_pub.published_count,
            "delivered": sub.delivered_count,
            "dropped": sub.drops_overflow + sub.drops_gap,
        }
        nodes = {}
        for nid in sorted(graph.nodes):
            nodes[nid] = {
                "fired": graph.fired_count_of(nid),
                "restarts": graph.restart_count_of(nid),
                "max_elapsed_ms": graph.max_elapsed_ms_of(nid),
            }
        odds = {name: len(self.env.run_odd(name)) for name, _ in self.config.odds}
        acc_summary = None
        if trajectory:
            cfg = self.config.acc.config
            last = trajectory[-1]
            acc_summary = {
                "steps": len(trajectory),
                "min_gap_m": round(min_gap, 9),
                "final_gap_error_m": round(
                    abs(last["gap"] - desired_gap(cfg, last["ego_speed"])), 9),
                "collided": fault is not None and "Collision" in fault,
            }
        return {
            "seed": self.seed,
            "config_sha256": self.config.sha256,
            "topics": topics,
            "nodes": nodes,
            "fsm": {
                "dispatches": self._fsm_dispatches,
                "trace_len": len(self.coordinator.trace),
                "mode": self.coordinator.snapshot(),
            },
            "odds": odds,
            "acc": acc_summary,
            "fault": fault,
        }


def reference_trajectory(config, dt: float | None = None):
    """Direct closed-loop re-integration of the configured scenario.

    Independent of the stack path: no devices, transport, store or graph,
    just the control law against the same plant. Serves as the oracle the
    end-to-end run is compared with.
    """
    return simulate(config.acc.scenario, config.acc.config, dt=dt)
