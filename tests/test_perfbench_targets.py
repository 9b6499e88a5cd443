"""Every function the benchmark's tracing launcher wraps still exists.

``perfbench/launcher.py`` wraps the serving stack's layers by name (module
and attribute) before it runs ``repro``; a renamed or deleted target makes
``perfbench/run.py --trace 1`` fail before serving starts.  This resolves
every target the way the launcher's ``install`` does, without wrapping it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"


@pytest.fixture(scope="module")
def launcher():
    spec = importlib.util.spec_from_file_location("perfbench_launcher",
                                                  LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in module._PRELOAD:
        importlib.import_module(name)
    return module


def test_every_target_resolves(launcher):
    targets = launcher._targets()
    assert len(targets) > len(launcher.TARGETS)  # the backends' searches
    for layer, module_name, attribute in targets:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            # a method is wrapped on its own class, as install() does
            target = vars(getattr(module, owner_name)).get(name)
        else:
            target = getattr(module, name, None)
        assert callable(target), (layer, module_name, attribute)
