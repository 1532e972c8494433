"""The public names, and what the test reference may take from the library."""

import ast
from pathlib import Path

import cocostream

# Names tests/reference.py may import from cocostream: value types and the
# interpolation rule it shares on purpose, but no box arithmetic, so that
# its matching stays independent of the code it checks.
REFERENCE_IMPORTS = {
    "UNDEFINED",
    "AreaRange",
    "BucketedState",
    "EvalConfig",
    "MetricReport",
    "interpolate_ap",
}


def test_every_public_name_resolves():
    for name in cocostream.__all__:
        assert hasattr(cocostream, name), name
    assert not any(hasattr(cocostream, n) for n in ("iou", "box_area", "strip_padding"))


def test_reference_imports_only_the_allowlist():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cocostream"):
            imported |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("cocostream") for a in node.names)
    assert imported <= {f"cocostream.{name}" for name in REFERENCE_IMPORTS}
