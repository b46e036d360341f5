#!/usr/bin/env python3
"""Function census of ``src/``: which functions run on a product path.

    python scripts/census.py

The census drives the product paths in this process under a
``sys.setprofile`` hook that records every Python code object it enters:

- ``dfpctl run`` on ``configs/demo.json``, with its own seed and duration
  given as ``--seed`` and ``--duration``;
- ``dfpctl query-env`` on ``configs/demo_env.jsonl``;
- ``dfpctl bench`` at small sizes;
- ``scripts/run_demo.py`` into a temporary directory;
- the four ``perfbench`` workloads at their tiny size, untraced (the
  tracer's wrappers reach no further into ``src/``, and a traced run
  writes its spans into the tree).

It then prints every function in ``src/`` that no path entered, with its
line count, and exits 1 when one of them has no row in ``ALLOWED`` or a
row names a function that now runs. The rule: a new ``src/`` function
runs on one of these paths, or it gets a row here with its reason.

The hook costs every Python call, so the census runs in its own process
and never under the test suite (it would swamp the timing criteria).
Everything it writes goes to a temporary directory; no bytecode is
written either, so the tree is left as it was found.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import runpy
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.realpath(os.path.join(ROOT, "src"))
PERFBENCH = os.path.join(ROOT, "perfbench")

# Reasons a function may stay off every product path; a ROADMAP item
# named here is the one that puts it on a path.
D5 = "D5: the seeded stack ticks synthetic HAL frames"
D6 = "D6: calls over the lossy bus"
D7 = "D7: node faults reach the mode manager"
D13 = "D13: the fault campaign's reference run"
D16 = "D16: the fallback swaps the control algorithm"
ORACLE = "test oracle"
ERROR_PATH = "error, write or close path behind a public entry"
OBSERVED = "tests read it to observe internal state"
PAPER = "paper surface no config reaches yet"
TRACED = "D22/D1: perfbench's tracer counts it by name; it leaves src/ with D22's perfbench half"

# (module, qualified name) -> reason
ALLOWED = {
    ("dfp.hal", "DeviceHandle.tick"): D5,
    ("dfp.hal", "_val"): D5,
    ("dfp.util", "unit_float"): D5,
    ("dfp.hal", "_gen_radar"): D5,
    ("dfp.middleware.core", "_LoopbackBus.call"): D6,
    ("dfp.middleware.core", "_LoopbackBus.send_response"): D6,
    ("dfp.middleware.core", "_LoopbackBus._apply_gap"): D6,
    ("dfp.funcsw.graph", "TaskGraph.stop_group"): D7,
    ("dfp.funcsw.graph", "TaskGraph.on_node_failure"): D7,
    ("dfp.modemgr", "StopGroup.to_json_obj"): D7,
    ("dfp.runtime", "reference_trajectory"): D13,
    ("dfp.funcsw.graph", "TaskGraph.swap_algorithm"): D16,
    ("dfp.acc", "simulate"): ORACLE,
    ("dfp.acc", "acc_command"): ORACLE,
    ("dfp.util", "clamp"): ORACLE,
    ("dfp.funcsw.registry", "AlgorithmRegistry._load_entry"): ERROR_PATH,
    ("dfp.funcsw.graph", "_find_cycle"): ERROR_PATH,
    ("dfp.funcsw.graph", "TaskGraph._settle"): ERROR_PATH,
    ("dfp.middleware.arena", "BufferHandle.release"): ERROR_PATH,
    ("dfp.envmodel", "EnvStore._unindex_tag"): ERROR_PATH,
    ("dfp.envmodel", "EnvStore.close"): ERROR_PATH,
    ("dfp.envmodel", "EnvStore.__enter__"): ERROR_PATH,
    ("dfp.envmodel", "EnvStore.__exit__"): ERROR_PATH,
    ("dfp.middleware.core", "_LoopbackBus.detach"): ERROR_PATH,
    ("dfp.config", "_fail"): ERROR_PATH,
    ("dfp.acc", "Collision.__init__"): ERROR_PATH,
    ("dfp.funcsw.types", "CycleDetected.__init__"): ERROR_PATH,
    ("dfp.middleware.core", "RemoteError.__init__"): ERROR_PATH,
    ("dfp.middleware.core", "ServiceFault.__init__"): ERROR_PATH,
    ("dfp.modemgr", "CascadeOverflow.__init__"): ERROR_PATH,
    ("dfp.middleware.arena", "SlotArena.refcount"): OBSERVED,
    ("dfp.middleware.arena", "SlotArena.free_count"): OBSERVED,
    ("dfp.middleware.core", "Subscriber.queued"): OBSERVED,
    ("dfp.middleware.core", "Subscriber._check_deadline"): PAPER,
    ("dfp.funcsw.graph", "TaskGraph.lifecycle_of"): OBSERVED,
    ("dfp.modemgr", "EmitEvent.to_json_obj"): PAPER,
    ("dfp.middleware.arena", "SlotArena.retain"): PAPER,
    ("dfp.envmodel", "levenshtein"): TRACED,
}


def _module_name(path: str) -> str:
    rel = os.path.relpath(path, SRC)[:-len(".py")].replace(os.sep, ".")
    return rel[:-len(".__init__")] if rel.endswith(".__init__") else rel


def functions() -> dict:
    """Every function in ``src/``: ``(path, first line) -> (module,
    qualified name, line count)``. The first line is the first
    decorator's, as in the function's code object."""
    found = {}

    def walk(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found[(path, first)] = (module, qualname, child.end_lineno - first + 1)
                walk(child, path, module, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, module, prefix + child.name + ".")
            else:
                walk(child, path, module, prefix)

    for folder, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), path)
                walk(tree, path, _module_name(path), "")
    return found


def _product_paths(tmp: str) -> None:
    from dfp import cli

    demo = os.path.join(ROOT, "configs", "demo.json")
    report = os.path.join(tmp, "report.json")
    cli.main(["run", "--config", demo, "--seed", "42", "--duration", "120", "--out", report])
    cli.main(["query-env", "--store", os.path.join(ROOT, "configs", "demo_env.jsonl"),
              "--tokens", "tunnel", "on", "highway", "in", "rian"])
    cli.main(["bench", "--sizes", "1024,65536", "--samples", "200"])

    argv = sys.argv
    sys.argv = ["run_demo.py", "--out", os.path.join(tmp, "demo_out")]
    try:
        runpy.run_path(os.path.join(ROOT, "scripts", "run_demo.py"), run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = argv

    sys.path.insert(0, PERFBENCH)
    import harness
    from workloads import WORKLOADS

    harness.RESULTS_DIR = os.path.join(tmp, "results")
    for name in WORKLOADS:
        out = importlib.import_module(f"workloads.{name}").run(
            seed=3, seconds=0.0, trace=False, tiny=True)
        if not out.correct or out.failed:
            raise SystemExit(f"census: perfbench workload {name} failed: {out.notes}")


def reached_code() -> set:
    """(path, first line) of every code object the product paths entered."""
    entered = {}  # by id, not by value: equal code objects from two files compare equal

    def hook(frame, event, arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code

    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)  # no product path starts a thread
        try:
            _product_paths(tmp)
        finally:
            sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in entered.values()}


def main() -> int:
    sys.dont_write_bytecode = True
    start = time.perf_counter()
    inventory = functions()
    reached = reached_code()
    unreached = sorted((module, qualname, lines, key)
                       for key, (module, qualname, lines) in inventory.items()
                       if key not in reached)
    missing = 0
    covered = {}
    for module, qualname, lines, (path, first) in unreached:
        reason = ALLOWED.get((module, qualname))
        missing += reason is None
        covered.setdefault(path, set()).update(range(first, first + lines))
        print(f"{lines:4d}  {module}:{qualname}  -- {reason or 'NOT ALLOWED'}")
    names = {(module, qualname) for module, qualname, _, _ in unreached}
    stale = sorted(set(ALLOWED) - names)
    for module, qualname in stale:
        print(f"      {module}:{qualname}  -- runs now; drop its ALLOWED row")
    print(f"census: {len(inventory)} functions in src/, {len(unreached)} unreached "
          f"({sum(map(len, covered.values()))} lines), {missing} without an ALLOWED row, "
          f"{len(stale)} stale rows; {time.perf_counter() - start:.1f} s")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
