"""The census's allow-list names live functions, and deleted names stay gone.

The census itself (``python scripts/census.py``) is not run here: its
profile hook would share this process with the timing criteria.
"""

import importlib
import inspect
import os
import sys

import dfp.funcsw
import dfp.middleware

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))

import census  # noqa: E402

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
    return obj if getattr(obj, "__qualname__", None) == qualname else None


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
