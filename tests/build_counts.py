"""Count the model builds, stage decompositions, shape inferences and
post-dominator passes that code makes.

Shared by the tests and the disk-tier benchmark; imports nothing beyond
``repro``, so the CI jobs without ``hypothesis`` can import it.
"""

import sys
from typing import Dict

from repro.graph.network import Network
from repro.models import registry


def count_builds(monkeypatch, *fresh: str) -> Dict[str, int]:
    """Count ``build_model``, ``Network.stages``, ``Network.infer_shapes``
    and ``Network._immediate_post_dominators`` calls from now on.

    ``build_model`` is replaced in every ``repro`` module that imported it
    by name, so a call through any of those names counts.  Each model named
    in ``fresh`` is registered under a new function until the test ends, so
    the process's model entry (:func:`repro.core.stages.model_stages`) that
    an earlier test made is not found: the test's first use builds one, and
    the calls of the new function count as ``"builder"``.  The returned
    dict's ``"build_model"``, ``"builder"``, ``"stages"``,
    ``"infer_shapes"`` and ``"ipdom"`` counts grow as calls happen.
    """
    calls = {"build_model": 0, "builder": 0, "stages": 0, "infer_shapes": 0,
             "ipdom": 0}
    build_model, stages = registry.build_model, Network.stages
    infer_shapes = Network.infer_shapes
    ipdom = Network._immediate_post_dominators

    def counted_build(*args, **kwargs):
        calls["build_model"] += 1
        return build_model(*args, **kwargs)

    def counted_stages(self, *args, **kwargs):
        calls["stages"] += 1
        return stages(self, *args, **kwargs)

    def counted_infer_shapes(self, *args, **kwargs):
        calls["infer_shapes"] += 1
        return infer_shapes(self, *args, **kwargs)

    def counted_ipdom(self):
        calls["ipdom"] += 1
        return ipdom(self)

    def counted_builder(builder):
        def build():
            calls["builder"] += 1
            return builder()
        return build

    for name, module in list(sys.modules.items()):
        if ((name == "repro" or name.startswith("repro."))
                and vars(module).get("build_model") is build_model):
            monkeypatch.setattr(module, "build_model", counted_build)
    monkeypatch.setattr(Network, "stages", counted_stages)
    monkeypatch.setattr(Network, "infer_shapes", counted_infer_shapes)
    monkeypatch.setattr(Network, "_immediate_post_dominators", counted_ipdom)
    for model in fresh:
        monkeypatch.setitem(registry._BUILDERS, model.lower(), counted_builder(
            registry.model_builder(model)))
    return calls


#: the counts of one model entry built: one network, decomposed once, its
#: shapes inferred once for the digest and once for the stages
ONE_BUILD = {"build_model": 0, "builder": 1, "stages": 1, "infer_shapes": 2,
             "ipdom": 1}

#: the counts of nothing built
NO_BUILD = dict.fromkeys(ONE_BUILD, 0)
