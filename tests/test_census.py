"""The census's allow-list names live functions, deleted names stay gone,
and ``scripts/codelines.py`` counts code lines as its docstring says.

The census itself (``python scripts/census.py``) is not run here: its
profile hook would share this process with the timing criteria.
"""

import ast
import importlib
import inspect
import os
import sys

import dfp.funcsw
import dfp.middleware

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))

import census  # noqa: E402
import codelines  # noqa: E402

DELETED = [
    ("dfp.bench", "BenchRow.as_dict"),
    ("dfp.hal", "AbstractFrame.as_dict"),
    ("dfp.hal", "SensorFrame.as_dict"),
    ("dfp.hal", "DeviceHandle.device_id"),
    ("dfp.hal", "DeviceRegistry.tick"),
    ("dfp.middleware.arena", "BufferHandle.__repr__"),
    ("dfp.middleware.arena", "BufferHandle.length"),
    ("dfp.middleware.core", "Sample.__repr__"),
    ("dfp.middleware.core", "_InProcPlane.apply_gap"),
    ("dfp.middleware.core", "_InProcPlane.send_request"),
    ("dfp.middleware.core", "_InProcPlane.send_response"),
    ("dfp.middleware.core", "_InProcPlane.receive"),
    ("dfp.middleware.core", "_LoopbackBus._deliver_wire"),
    ("dfp.middleware.core", "_LoopbackBus._drain_pending"),
    ("dfp.middleware.core", "_LoopbackBus.send_request"),
    ("dfp.middleware.core", "_ServiceEndpoint.handle"),
    ("dfp.middleware.core", "Participant._complete_call"),
    ("dfp.middleware.core", "ServiceHandle"),
    ("dfp.funcsw.graph", "build_graph"),
    ("dfp.funcsw.types", "FiringReport"),
    ("dfp.funcsw.types", "FiringReport.to_json"),
    ("dfp.acc", "TrajectoryPoint.as_dict"),
    ("dfp.acc", "trajectory_json"),
    ("dfp.runtime", "RunResult.ok"),
    ("dfp.envmodel", "EnvStore._record_from_mapping"),
    ("dfp.envmodel", "_tag_words"),
    ("dfp.envmodel", "EnvRecord.validate"),
    ("dfp.envmodel", "EnvRecord._check"),
    ("dfp.envmodel", "EnvStore._walk_window"),
    ("dfp.envmodel", "EnvStore._join_postings"),
    ("dfp.envmodel", "EnvStore._drop"),
    ("dfp.envmodel", "_StandingOdd.add"),
    ("dfp.envmodel", "_StandingOdd.remove"),
    ("dfp.envmodel", "_order_key"),
    ("dfp.config", "_require"),
    ("dfp.config", "_check_keys"),
    ("dfp.config", "_parse_list"),
    ("dfp.middleware.core", "LossModel"),
    ("dfp.middleware.core", "Participant._announce_publisher"),
    ("dfp.middleware.core", "Participant._announce_subscriber"),
    ("dfp.middleware.core", "Participant._announce_service"),
    # the task graph is wired once, from the config
    ("dfp.funcsw.graph", "TaskGraph.add_node"),
    ("dfp.funcsw.graph", "TaskGraph.remove_node"),
    ("dfp.funcsw.graph", "TaskGraph.configure"),
    ("dfp.funcsw.graph", "TaskGraph.binding_of"),
    ("dfp.funcsw.graph", "TaskGraph._run_round"),
    # a group's binding is fixed when the graph is built
    ("dfp.funcsw.graph", "TaskGraph.bind"),
    ("dfp.runtime", "Stack._fsm_managed_groups"),
    ("dfp.funcsw.types", "TaskNode.mode_of"),
    ("dfp.funcsw.types", "StaticKeyWhileRunning"),
    ("dfp.funcsw.types", "StaticKeyWhileRunning.__init__"),
    ("dfp.funcsw.types", "UnknownConfigKey"),
    # value types are named tuples whose checks run in ``__new__``
    ("dfp.acc", "VehicleState.__post_init__"),
    ("dfp.acc", "AccConfig.__post_init__"),
    ("dfp.acc", "Scenario.__post_init__"),
    ("dfp.envmodel", "OddQuery.__post_init__"),
    ("dfp.funcsw.types", "AlgorithmDescriptor.__post_init__"),
    ("dfp.middleware.core", "TopicDescriptor.__post_init__"),
    ("dfp.middleware.core", "ServiceDescriptor.__post_init__"),
    ("dfp.middleware.qos", "History.__post_init__"),
    ("dfp.middleware.qos", "QoSProfile.__post_init__"),
    ("dfp.modemgr", "FsmDefinition.__post_init__"),
    # a drive step calls its layers' work directly, not one-line helpers
    ("dfp.runtime", "Stack._take_command"),
    ("dfp.hal", "DeviceHandle._timestamp"),
    ("dfp.middleware.core", "Publisher._retain"),
    ("dfp.util", "ManualClock.now_ns"),
    # the HAL and the store keep the one frame schema a config reaches, the radar's
    ("dfp.hal", "_gen_camera"),
    ("dfp.hal", "_gen_lidar"),
    ("dfp.hal", "_gen_gps"),
    ("dfp.hal", "_gen_imu"),
    ("dfp.hal", "_gen_hdmap"),
    ("dfp.hal", "_gen_v2x"),
    ("dfp.hal", "_pick"),
    ("dfp.hal", "_norm_camera"),
    ("dfp.hal", "_norm_lidar"),
    ("dfp.hal", "_norm_gps"),
    ("dfp.hal", "_norm_imu"),
    ("dfp.hal", "_norm_hdmap"),
    ("dfp.hal", "_norm_v2x"),
    ("dfp.hal", "_GENERATORS"),
    ("dfp.hal", "_NORMALIZERS"),
    ("dfp.hal", "NORMALIZED_SCHEMAS"),
    ("dfp.envmodel", "INGEST_TABLE"),
    # saved ODDs test a record's tags through the query plan
    ("dfp.envmodel", "fuzzy_match"),
    ("dfp.envmodel", "_StandingOdd.takes_tags"),
]


def lookup(module: str, qualname: str):
    """What ``qualname`` names in ``module`` itself (not inherited), or None."""
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        try:
            obj = inspect.getattr_static(obj, part)
        except AttributeError:
            return None
        obj = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
    # a plain value (a table, a constant) has no qualified name to check
    return obj if getattr(obj, "__qualname__", qualname) == qualname else None


def test_every_allowed_row_names_a_function_in_src():
    inventory = {(module, qualname) for module, qualname, _ in census.functions().values()}
    dangling = [row for row in census.ALLOWED
                if row not in inventory or not inspect.isfunction(lookup(*row))]
    assert dangling == []


def test_deleted_names_are_gone():
    assert [row for row in DELETED if lookup(*row) is not None] == []


def test_no_deleted_name_is_exported_from_the_packages():
    names = {qualname for _, qualname in DELETED if "." not in qualname}
    for package in (dfp.funcsw, dfp.middleware):
        assert not names & set(package.__all__)
        assert not any(hasattr(package, name) for name in names)


def test_no_pattern_in_src_ends_in_a_dollar():
    """``$`` also matches just before a trailing newline, so a check of a
    whole string compiles its pattern without anchors and calls
    ``fullmatch``."""
    patterns = []
    for folder, _, files in os.walk(census.SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                patterns += [(name, node.args[0].value) for node in ast.walk(tree)
                             if isinstance(node, ast.Call)
                             and ast.unparse(node.func) == "re.compile"
                             and node.args and isinstance(node.args[0], ast.Constant)]
    assert patterns  # the walk sees the patterns there are
    assert [(name, pattern) for name, pattern in patterns if pattern.endswith("$")] == []


CODELINES_FIXTURE = '''"""A module docstring
over two lines."""

# a comment-only line
x = 1  # code, with a comment

def f():
    """A function docstring."""

    return (1,
            2)


class C:
    """A class docstring."""
    s = """a string
over three
lines"""
'''


def test_codelines_counts_code_not_docstrings_comments_or_blanks(tmp_path, capsys):
    # x; def f; the bracket's 2 lines; class C; the string's 3 lines
    (tmp_path / "fixture.py").write_text(CODELINES_FIXTURE)
    assert codelines.code_lines(str(tmp_path / "fixture.py")) == 8
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     8  fixture.py", "     8  total"]
