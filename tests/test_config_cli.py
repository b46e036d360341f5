"""Config validation diagnostics, CLI exit codes, runner coupling."""

import hashlib
import json
import os
import re
from dataclasses import replace

import pytest

from dfp import ConfigurationError
from dfp.cli import main
from dfp.config import load_config, parse_config
from dfp.runtime import Stack

REPO = os.path.join(os.path.dirname(__file__), "..")
DEMO_CONFIG = os.path.join(REPO, "configs", "demo.json")
DEMO_ENV = os.path.join(REPO, "configs", "demo_env.jsonl")
# the regression anchor in ROADMAP.md: a change that alters the demo report
# on purpose documents the changed fields and updates both places
DEMO_REPORT_SHA256 = "0750d6ac76bc368c619d53467a70f792424ddf5c5471b72e2497d6149593948f"


@pytest.fixture
def demo_doc():
    with open(DEMO_CONFIG) as fh:
        return json.load(fh)


def expect_config_error(doc, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        parse_config(doc)


def test_demo_config_loads_and_validates():
    cfg = load_config(DEMO_CONFIG)
    assert cfg.seed == 42
    assert len(cfg.nodes) == 5
    assert len(cfg.sha256) == 64


def test_unknown_top_level_key_rejected(demo_doc):
    demo_doc["surprise"] = {}
    expect_config_error(demo_doc, "surprise")


def test_unknown_group_named(demo_doc):
    demo_doc["pipeline"]["nodes"][0]["group"] = "ghost_group"
    expect_config_error(demo_doc, "ghost_group")


def test_unknown_algorithm_named(demo_doc):
    demo_doc["pipeline"]["nodes"][0]["algorithm"] = ["radar_acquire", "9.9.9"]
    expect_config_error(demo_doc, "radar_acquire@9.9.9")


def test_unknown_device_named(demo_doc):
    demo_doc["pipeline"]["nodes"][0]["config"]["device_id"] = "radar9"
    expect_config_error(demo_doc, "radar9")


def test_unresolved_input_topic_named(demo_doc):
    demo_doc["pipeline"]["nodes"][3]["inputs"][1] = "vehicle/odometry_typo"
    expect_config_error(demo_doc, "vehicle/odometry_typo")


def test_vehicle_state_takes_no_accel_key(demo_doc):
    demo_doc["acc"]["scenario"]["ego"]["accel"] = 0.5
    expect_config_error(demo_doc, "accel")


def test_stage_order_violation_rejected(demo_doc):
    demo_doc["pipeline"]["nodes"][0]["stage"] = "service"
    expect_config_error(demo_doc, "stage order")


def test_algorithm_version_with_a_trailing_newline_rejected(demo_doc):
    demo_doc["algorithms"][0]["version"] = "1.0.0\n"
    expect_config_error(demo_doc, "algorithm 'radar_acquire': version must be semver")


def test_duplicate_node_rejected(demo_doc):
    demo_doc["pipeline"]["nodes"][1]["node_id"] = "radar_acq"
    expect_config_error(demo_doc, "radar_acq")


def _port_count_mismatch(doc):
    doc["algorithms"][1]["inputs"] = ["frames", "calibration"]  # frame_normalize


def _binding_conflict(doc):
    doc["pipeline"]["groups"]["acc_control"]["binding_label"] = "ai-unit"


def _unimportable_entry(doc):
    doc["algorithms"][1]["entry"] = "no_such_module:fn"


def test_port_count_mismatch_names_the_node(demo_doc):
    _port_count_mismatch(demo_doc)
    expect_config_error(demo_doc, "pipeline: node 'abstraction' wires 1 inputs")


def test_binding_conflict_names_the_node(demo_doc):
    _binding_conflict(demo_doc)
    expect_config_error(demo_doc, "pipeline: node 'acc_ctrl' requires label 'control-unit'")


def test_fsm_action_with_undefined_group_named(demo_doc):
    demo_doc["fsms"][1]["transitions"][0]["actions"] = [{"start_group": "ghost_group"}]
    expect_config_error(demo_doc, "ghost_group")


def test_fsm_guard_with_unknown_fsm_named(demo_doc):
    demo_doc["fsms"][1]["transitions"][0]["guard"] = {"watchdog": "ok"}
    expect_config_error(demo_doc, "watchdog")


def test_fsm_guard_with_unknown_state_named(demo_doc):
    demo_doc["fsms"][1]["transitions"][0]["guard"] = {"health": "purring"}
    expect_config_error(demo_doc, "purring")


def test_duplicate_fsm_rejected(demo_doc):
    demo_doc["fsms"][0]["fsm_id"] = "ads"
    expect_config_error(demo_doc, "ads")


def test_stopword_only_odd_rejected(demo_doc):
    demo_doc["odds"][0]["tokens"] = ["on", "the", "in"]
    expect_config_error(demo_doc, "no searchable tokens")


def test_acc_scenario_invariants_enforced(demo_doc):
    demo_doc["acc"]["scenario"]["lead"]["position"] = -1.0
    expect_config_error(demo_doc, "lead must start ahead")


def test_engage_event_referencing_unknown_fsm(demo_doc):
    demo_doc["acc"]["engage_events"] = [["pilot", "go"]]
    expect_config_error(demo_doc, "pilot")


def test_bad_qos_rejected(demo_doc):
    demo_doc["topics"][0]["qos"] = {"history": {"keep_last": 0}}
    expect_config_error(demo_doc, "topic")


# -- CLI ---------------------------------------------------------------------


def test_cli_missing_config_exits_2(capsys):
    code = main(["run", "--config", "/no/such/config.json"])
    assert code == 2
    assert "config not found" in capsys.readouterr().err


def test_cli_invalid_reference_exits_2(tmp_path, demo_doc, capsys):
    demo_doc["fsms"][1]["transitions"][0]["actions"] = [{"start_group": "ghost"}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(demo_doc))
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("breakage,named", [
    (_port_count_mismatch, "abstraction"),
    (_binding_conflict, "acc_ctrl"),
    (_unimportable_entry, "no_such_module:fn"),
], ids=["port_count", "binding", "entry"])
def test_cli_assembly_failure_exits_2_with_one_diagnostic(tmp_path, demo_doc, capsys,
                                                          breakage, named):
    breakage(demo_doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(demo_doc))
    out = tmp_path / "m.json"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("dfpctl: config error: pipeline: ") and named in line
    assert not out.exists()


def _set(path, value):
    """A breakage that sets the demo config's value at ``path`` to ``value``."""
    def breakage(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return breakage


MALFORMED_VALUES = [  # (breakage, the section the diagnostic names)
    (_set(["seed"], "abc"), "config: seed must be int, not 'abc'"),
    (_set(["devices", 0, "seed"], "abc"), "device 'radar0': seed must be int"),
    (_set(["pipeline", "groups", "perception", "restart_policy"], {"up_to": "x"}),
     "group 'perception': restart_policy up_to must be int"),
    (_set(["pipeline", "nodes", 0, "watchdog_ms"], "fast"),
     "node 'radar_acq': watchdog_ms must be int or float"),
    (_set(["acc", "engage_events"], [["ads"]]), r"acc: engage event must be \[fsm, event\]"),
    (_set(["odds", 0, "class_filter"], "bogus"),
     "odd 'lead_vehicle': unknown class_filter 'bogus'"),
    (_set(["topics"], "nope"), "config: topics must be list, not 'nope'"),
    # a saved ODD's window is two ints: one int made every radar ingest raise
    (_set(["odds", 0, "time_range"], [1]), "odd 'lead_vehicle': time_range must be"),
    (_set(["pipeline", "nodes", 0, "inputs"], 5), "node 'radar_acq': inputs must be words, not 5"),
    (_set(["fsms", 0, "states"], 5), "fsm 'health': states must be words, not 5"),
    (_set(["fsms", 1, "transitions", 0, "guard"], [["x"]]),
     r"fsm 'ads' transition: guard literal must be \[fsm, state\], not \['x'\]"),
    (_set(["topics", 0, "qos"], 5), "topic 'world/radar0': qos must be dict, not 5"),
    (_set(["topics", 0, "qos", "reliability"], 5),
     "topic 'world/radar0': reliability must be one of"),
    (_set(["topics", 0, "qos", "history"], {"keep_last": "3"}),
     r"topic 'world/radar0': bad history spec: \{'keep_last': '3'\}"),
    (_set(["algorithms", 0, "entry"], 5), "algorithm 'radar_acquire': entry must be str, not 5"),
    (_set(["devices", 0, "device_id"], ["r"]), r"device: device_id must be str, not \['r'\]"),
    # a gain the planner first reads mid-drive: validation must refuse it
    (_set(["acc", "config", "kp"], "x"), "acc config: kp must be int or float, not 'x'"),
    (_set(["seed"], -1), r"config: seed -1 out of \[0, 2\*\*64\)"),
    # json reads NaN and Infinity as floats: the drive collided, or escaped as a traceback
    (_set(["acc", "config", "kp"], float("nan")), "acc config: kp must be finite, not nan"),
    (_set(["acc", "scenario", "duration"], float("inf")),
     "acc scenario: duration must be finite, not inf"),
    (_set(["acc", "scenario", "lead_profile", 1], [10.0, float("-inf")]),
     r"acc scenario: lead_profile point must be \[t, speed\], not \[10.0, -inf\]"),
    # a negative speed drove from rest
    (_set(["acc", "scenario", "ego", "speed"], -5),
     "acc: vehicle speed must be non-negative, not -5"),
    # the HAL's and the radar builder's own checks: an empty id was reported as the
    # node's unknown device, a node without one raised KeyError, and a gps "radar"
    # drove with every round failing
    (_set(["devices", 0, "device_id"], ""), "device '': device_id must be non-empty"),
    (_set(["pipeline", "nodes", 0, "config"], {}),
     "pipeline: node 'radar_acq': config device_id must be str, not None"),
    (_set(["pipeline", "nodes", 0, "config", "device_id"], "gps0"),
     "pipeline: node 'radar_acq': device 'gps0' is not a radar"),
    # no topic carried the command: the plant coasted at 0.0 for the whole drive
    (_set(["topics", 5, "name"], "plan/acc_cmd"),
     r"pipeline: the acc section needs a control/\* topic for its command"),
    # the graph is wired once: no run read a node's config modes
    (_set(["pipeline", "nodes", 0, "config_modes"], {"device_id": "static"}),
     r"node 'radar_acq': unknown keys \['config_modes'\]"),
    # a typo no transition takes: the modes stayed in standby and no command was published
    (_set(["acc", "engage_events", 1, 1], "actvate"),
     r"acc engage event \['ads', 'actvate'\]: no transition of fsm 'ads' takes it"),
    # an emitted typo no transition takes: the modes stayed in standby, no command
    (_set(["fsms", 1, "transitions", 0, "actions"],
          [{"start_group": "perception"}, {"emit": ["ads", "actvate"]}]),
     r"pipeline: fsm 'ads': emit \['ads', 'actvate'\]: no transition of fsm 'ads' takes it"),
    # the descriptor refuses the form; only the Stack refused it before
    (_set(["algorithms", 0, "entry"], "x"),
     "algorithm 'radar_acquire': entry must look like 'module:attribute', got 'x'"),
]


@pytest.mark.parametrize("breakage,named", MALFORMED_VALUES,
                         ids=["seed", "device_seed", "up_to", "watchdog", "engage_event",
                              "class_filter", "topics", "time_range", "node_inputs",
                              "fsm_states", "guard", "topic_qos", "reliability", "keep_last",
                              "entry", "device_id", "acc_kp", "seed_range", "kp_nan",
                              "duration_inf", "point_inf", "ego_speed", "empty_device_id",
                              "node_config_empty", "device_not_radar", "no_control_topic",
                              "config_modes", "engage_typo", "emit_typo", "entry_form"])
def test_cli_malformed_value_exits_2_with_one_diagnostic(tmp_path, demo_doc, capsys,
                                                         breakage, named):
    breakage(demo_doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(demo_doc))
    out = tmp_path / "m.json"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert re.match(f"dfpctl: config error: {named}", line), line
    assert not out.exists()


def _rename_odometry(doc):
    """A breakage that renames the demo's odometry topic everywhere."""
    renamed = json.loads(json.dumps(doc).replace('"vehicle/odometry"', '"vehicle/odo"'))
    doc.clear()
    doc.update(renamed)


# both passed validation, and the drive then fed an input no node reads:
# acc_planner never fired and the ego hit the lead at t = 13.95 s
@pytest.mark.parametrize("breakage,diagnostic", [
    (_rename_odometry, "pipeline: input 'vehicle/odo' of node 'acc_planner': nothing feeds it"),
    (_set(["pipeline", "nodes", 0, "stage"], "abstraction"),
     "pipeline: the acc section needs an acquisition node with an input"),
], ids=["odometry_renamed", "no_acquisition_input"])
def test_an_acc_input_the_runner_does_not_feed_is_a_config_error(tmp_path, demo_doc, capsys,
                                                                 breakage, diagnostic):
    breakage(demo_doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(demo_doc))
    out = tmp_path / "m.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"dfpctl: config error: {diagnostic}"]
    assert not out.exists()


def _json_paths(value, path=()):
    """``(path, value)`` of every value inside the JSON document ``value``."""
    items = (value.items() if type(value) is dict
             else enumerate(value) if type(value) is list else ())
    for key, item in items:
        yield path + (key,), item
        yield from _json_paths(item, path + (key,))


with open(DEMO_CONFIG) as _fh:
    DEMO_TEXT = _fh.read()
DEMO_VALUES = list(_json_paths(json.loads(DEMO_TEXT)))
# the fields the README documents as taking two forms
TWO_FORMS = {"restart_policy", "guard", "binding_requirement", "class_filter", "time_range"}


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _may_change_type(path) -> bool:
    """A two-form field, a group's binding_label, or an algorithm's own node config key."""
    return (path[-1] in TWO_FORMS
            or path[:2] == ("pipeline", "groups") and path[-1] == "binding_label"
            or path[:2] == ("pipeline", "nodes") and len(path) == 5
            and path[3] == "config" and path[4] != "device_id")


# each value of the demo config replaced by each of these in turn: 2770
# documents in about 0.6 s, so every one is tried instead of a sample
STRANGE_VALUES = [5, -1, 1.5, True, None, "x", [], {}, ["x"], [[1]]]


def test_no_config_value_escapes_the_reader():
    for path, old in DEMO_VALUES:
        for value in STRANGE_VALUES:
            doc = json.loads(DEMO_TEXT)
            _set(path, value)(doc)
            try:
                cfg = parse_config(doc)
            except ConfigurationError:
                continue
            assert _json_type(value) == _json_type(old) or _may_change_type(path), (path, value)
            Stack(cfg)  # what validation accepts, the Stack builds


def test_acc_without_pipeline_nodes_is_a_config_error(tmp_path, demo_doc, capsys):
    # nothing would drive the plant: the first round or engage event had no graph
    del demo_doc["pipeline"], demo_doc["algorithms"]
    for fsm in demo_doc["fsms"]:
        for t in fsm["transitions"]:
            t["actions"] = [a for a in t.get("actions", ())
                            if not {"start_group", "stop_group"} & a.keys()]
    expect_config_error(demo_doc, "acc section needs pipeline nodes")
    # a config assembled without validation meets the same check in the Stack
    unchecked = replace(parse_config({k: v for k, v in demo_doc.items() if k != "acc"}),
                        acc=load_config(DEMO_CONFIG).acc)
    with pytest.raises(ConfigurationError, match="acc section needs pipeline nodes"):
        Stack(unchecked)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(demo_doc))
    code = main(["run", "--config", str(path), "--duration", "1"])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("dfpctl: config error: pipeline: "
                    "the acc section needs pipeline nodes to drive its plant")


def test_cli_run_short_and_deterministic(tmp_path):
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    assert main(["run", "--config", DEMO_CONFIG, "--duration", "5",
                 "--seed", "42", "--out", str(out1)]) == 0
    assert main(["run", "--config", DEMO_CONFIG, "--duration", "5",
                 "--seed", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["acc"]["collided"] is False
    assert report["fsm"]["mode"]["ads"] == "active"


def test_cli_run_demo_report_matches_regression_anchor(tmp_path):
    out = tmp_path / "m.json"
    assert main(["run", "--config", DEMO_CONFIG, "--seed", "42", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_REPORT_SHA256


def test_cli_run_reports_collision_with_partial_report(tmp_path, demo_doc, capsys):
    demo_doc["acc"]["scenario"]["lead"]["position"] = 3.0
    demo_doc["acc"]["scenario"]["lead_profile"] = [[0.0, 0.0]]
    path = tmp_path / "crash.json"
    path.write_text(json.dumps(demo_doc))
    out = tmp_path / "metrics.json"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["acc"]["collided"] is True
    assert "Collision" in report["fault"]


def test_cli_query_env_paper_tokens(capsys):
    code = main(["query-env", "--store", DEMO_ENV,
                 "--tokens", "tunnel", "on", "highway", "in", "rain"])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [r["record_id"] for r in lines] == [2, 1]
    for r in lines:
        assert {"tunnel", "highway", "rain"} <= set(r["tags"])


def test_cli_query_env_stopwords_exit_1(capsys):
    code = main(["query-env", "--store", DEMO_ENV, "--tokens", "on", "in"])
    assert code == 1


def test_cli_query_env_empty_store_exit_0(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["query-env", "--store", str(empty), "--tokens", "tunnel"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_query_env_unreadable_store_exit_2(capsys):
    code = main(["query-env", "--store", "/no/such.jsonl", "--tokens", "x"])
    assert code == 2


_GOOD_LINE = {"record_id": 1, "class": "weather", "tags": ["rain"], "timestamp_ns": 0}


@pytest.mark.parametrize("bad", [
    {**_GOOD_LINE, "record_id": 2, "tags": ["Bad Tag"]},
    {k: v for k, v in _GOOD_LINE.items() if k != "class"},
    {**_GOOD_LINE, "record_id": 2, "timestamp_ns": None},
    {**_GOOD_LINE, "record_id": 2, "class": "cloud"},
], ids=["bad_tag", "missing_key", "wrong_type", "unknown_class"])
def test_cli_query_env_line_that_is_not_a_record_exit_2(tmp_path, capsys, bad):
    store = tmp_path / "env.jsonl"
    store.write_text(json.dumps(_GOOD_LINE) + "\n" + json.dumps(bad) + "\n")
    code = main(["query-env", "--store", str(store), "--tokens", "rain"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("dfpctl: cannot read store: line 2: ")


def test_cli_bench_smoke(capsys):
    code = main(["bench", "--sizes", "1024,65536", "--samples", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert "zero_copy" in out and "copying" in out


def test_cli_bench_payload_too_large(capsys):
    code = main(["bench", "--sizes", str(64 * 1024 * 1024), "--samples", "5"])
    assert code == 1


@pytest.mark.parametrize("samples", ["0", "-5", "many"])
def test_cli_bench_bad_sample_count_is_a_usage_error(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "1024", "--samples", samples])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].startswith(
        f"dfpctl bench: error: argument --samples: bad sample count {samples!r}")


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70), "many"])
def test_cli_run_bad_seed_is_a_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", DEMO_CONFIG, "--seed", seed])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].startswith(
        f"dfpctl run: error: argument --seed: bad seed {seed!r}")


@pytest.mark.parametrize("duration", ["inf", "nan", "-1", "0", "soon"])
def test_cli_run_bad_duration_is_a_usage_error(capsys, duration):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", DEMO_CONFIG, "--duration", duration])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].startswith(
        f"dfpctl run: error: argument --duration: bad duration {duration!r}")


def test_bench_accepts_empty_payloads():
    from dfp.bench import run_bench

    rows = run_bench(sizes=(0,), samples=20)
    assert {r.path for r in rows} == {"zero_copy", "copying"}
    assert all(r.median_us >= 0 for r in rows)


def test_dfp_log_env_var_sets_verbosity(tmp_path, monkeypatch, capsys):
    import logging

    monkeypatch.setenv("DFP_LOG", "debug")
    logging.getLogger().handlers.clear()
    out = tmp_path / "m.json"
    assert main(["run", "--config", DEMO_CONFIG, "--duration", "1",
                 "--out", str(out)]) == 0
    assert logging.getLogger().level == logging.DEBUG
    monkeypatch.setenv("DFP_LOG", "error")
    logging.getLogger().handlers.clear()


# -- mode/pipeline coupling through the runner ----------------------------------


def test_fallback_stops_control_samples_within_one_round():
    cfg = load_config(DEMO_CONFIG)
    stack = Stack(cfg)
    fallback_step = 100
    result = stack.run_scenario(
        duration=10.0, event_schedule={fallback_step: [("ads", "fallback_trigger")]})
    assert result.fault is None
    assert stack.coordinator.snapshot()["ads"] == "fallback"
    topics = result.metrics["topics"]
    assert topics["control/acc_cmd"]["published"] == fallback_step  # steps 0..99, none after
    # graph topics are counted from the firing reports
    assert topics["plan/acc_target"]["published"] == fallback_step
    assert topics["sensors/radar0"]["published"] == result.metrics["acc"]["steps"]
    assert topics["world/radar0"]["published"] == 0  # external input, never produced
    coasting = [p for p in result.trajectory if p["t"] > fallback_step * 0.05]
    assert all(p["command"] == 0.0 for p in coasting)


def test_two_stacks_from_one_config_drive_independently():
    cfg = load_config(DEMO_CONFIG)
    first, second = Stack(cfg), Stack(cfg)
    result = first.run_scenario(duration=1.0)
    steps = result.metrics["acc"]["steps"]
    assert result.fault is None and steps == 21
    assert result.metrics["odds"]["lead_vehicle"] == steps
    assert len(first.env.all_records()) == steps
    assert second.env.all_records() == []
    # the config's own declarations stay unbound
    assert all(node.body is None for node in cfg.nodes)


def test_no_stack_can_relabel_a_group_another_stack_shares():
    cfg = load_config(DEMO_CONFIG)
    labels = {gid: policy.binding_label for gid, policy in cfg.groups.items()}
    first, second = Stack(cfg), Stack(cfg)
    for policy in second.graph.groups.values():
        with pytest.raises(AttributeError):
            policy.binding_label = "compute-unit"
    assert {gid: p.binding_label for gid, p in first.graph.groups.items()} == labels
    assert {gid: p.binding_label for gid, p in cfg.groups.items()} == labels


def test_sdk_purity_of_the_acc_module():
    # the demo feature builds on SDK surfaces only: no hardware-layer import
    import ast

    src_path = os.path.join(REPO, "src", "dfp", "acc.py")
    with open(src_path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not any(name.startswith("dfp.hal") for name in imported)
    assert not any(name.startswith("dfp.middleware") for name in imported)


def test_drive_goes_through_the_seams_the_benchmark_times(monkeypatch):
    # perfbench wraps these calls to time a drive: a faster path must not skip them
    from dfp.envmodel import EnvStore
    from dfp.middleware import Publisher

    calls = {"step": 0, "command": 0, "odd": 0}
    publish, run_odd = Publisher.publish, EnvStore.run_odd

    def counted_publish(self, payload):
        if self.topic.name == "control/acc_cmd":
            calls["command"] += 1
        return publish(self, payload)

    def counted_run_odd(self, name):
        calls["odd"] += 1
        return run_odd(self, name)

    monkeypatch.setattr(Publisher, "publish", counted_publish)
    monkeypatch.setattr(EnvStore, "run_odd", counted_run_odd)
    cfg = load_config(DEMO_CONFIG)
    stack = Stack(cfg)
    step = stack.graph.step

    def counted_step(inputs=None):
        calls["step"] += 1
        return step(inputs)

    stack.graph.step = counted_step
    result = stack.run_scenario(duration=2.0)
    result.metrics_json()
    steps = len(result.trajectory)
    assert result.fault is None and steps == 41 and cfg.odds
    assert calls == {"step": steps, "command": steps, "odd": len(cfg.odds)}


def test_demo_drive_never_spins_a_participant(monkeypatch):
    # the runner only takes the command; taking runs no protocol round
    from dfp.middleware import Participant

    spins = []
    spin = Participant.spin

    def counted_spin(self):
        spins.append(self.name)
        return spin(self)

    monkeypatch.setattr(Participant, "spin", counted_spin)
    result = Stack(load_config(DEMO_CONFIG)).run_scenario(duration=2.0)
    assert result.fault is None and len(result.trajectory) == 41
    assert spins == []


def test_collision_report_min_gap_counts_the_colliding_point(demo_doc):
    demo_doc["acc"]["scenario"]["lead"]["position"] = 3.0
    demo_doc["acc"]["scenario"]["lead_profile"] = [[0.0, 0.0]]
    result = Stack(parse_config(demo_doc)).run_scenario()
    assert result.fault is not None and "Collision" in result.fault
    gaps = [p["gap"] for p in result.trajectory]
    assert gaps[-1] <= 0 and gaps[-1] == min(gaps)
    assert result.metrics["acc"]["min_gap_m"] == round(gaps[-1], 9)
