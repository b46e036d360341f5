"""Every call the benchmark's tracer wraps names something in ``dfp``.

``perfbench/trace.py`` lists them as ``(module, owner, attribute, span)``
rows; ``Tracer.install`` raises ``KeyError`` on a row whose attribute is
gone, which would end every traced run. The rows are read from the file's
source, so the benchmark's own modules are neither imported nor changed.
"""

import ast
import importlib
import os

import pytest

TRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "trace.py")


def _rows():
    with open(TRACE, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("SPANNED", "COUNTED")}
    assert sorted(tables) == ["COUNTED", "SPANNED"]
    return [(table, *row) for table, rows in sorted(tables.items()) for row in rows]


ROWS = _rows()


@pytest.mark.parametrize("table, module, owner, attr, span", ROWS,
                         ids=[f"{row[0]}:{row[4]}" for row in ROWS])
def test_each_traced_row_resolves_in_dfp(table, module, owner, attr, span):
    # as ``Tracer.install`` looks it up: the owner's own attribute, not an inherited one
    target = importlib.import_module(module)
    assert module.split(".")[0] == "dfp"
    if owner:
        target = getattr(target, owner)
    raw = vars(target)[attr]
    assert callable(getattr(raw, "__func__", raw)), (module, owner, attr)


def test_the_tables_hold_24_rows():
    assert len(ROWS) == 24
