"""The layer tracer of ``perfbench/tracer.py`` finds every name it wraps.

``Tracer.install`` reads each target from ``vars()`` of its ``adlv`` module
or class, so a target renamed or removed in the package ends ``--trace 1``
runs with a ``KeyError``.  This test makes the same lookup without wrapping
anything.
"""

import importlib.util
import sys
from pathlib import Path

import adlv.cli  # noqa: F401  -- the tracer runs with the CLI imported

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("adlv_layer_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_found_where_install_looks():
    targets = _targets()
    missing = []
    for mod_name, path, _, _ in targets:
        owner = sys.modules["adlv." + mod_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = vars(owner).get(part)
            if owner is None:
                break
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod_name}.{path}")
    assert targets and not missing, missing
