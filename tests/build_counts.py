"""Count the model builds, stage decompositions and shape inferences that
code makes.

Shared by the tests and the disk-tier benchmark; imports nothing beyond
``repro``, so the CI jobs without ``hypothesis`` can import it.
"""

import sys
from typing import Dict

from repro.graph.network import Network
from repro.models import registry


def count_builds(monkeypatch) -> Dict[str, int]:
    """Count ``build_model``, ``Network.stages`` and ``Network.infer_shapes``
    calls from now on.

    ``build_model`` is replaced in every ``repro`` module that imported it
    by name, so a call through any of those names counts.  The returned
    dict's ``"build_model"``, ``"stages"`` and ``"infer_shapes"`` counts
    grow as calls happen.
    """
    calls = {"build_model": 0, "stages": 0, "infer_shapes": 0}
    build_model, stages = registry.build_model, Network.stages
    infer_shapes = Network.infer_shapes

    def counted_build(*args, **kwargs):
        calls["build_model"] += 1
        return build_model(*args, **kwargs)

    def counted_stages(self, *args, **kwargs):
        calls["stages"] += 1
        return stages(self, *args, **kwargs)

    def counted_infer_shapes(self, *args, **kwargs):
        calls["infer_shapes"] += 1
        return infer_shapes(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "repro" or name.startswith("repro."))
                and vars(module).get("build_model") is build_model):
            monkeypatch.setattr(module, "build_model", counted_build)
    monkeypatch.setattr(Network, "stages", counted_stages)
    monkeypatch.setattr(Network, "infer_shapes", counted_infer_shapes)
    return calls
