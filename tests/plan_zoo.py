"""The plan zoo shared by the plan-document tests.

One config per shape the plan document must carry: chain and multipath
models, balanced and unbalanced pairing trees, every scheme and the greedy
backend.  Imports nothing beyond the library and the standard library, so
CI jobs that install only ``pytest`` and ``numpy`` can collect its users.
"""

import json

from repro.baselines import get_scheme
from repro.core.planner import Planner
from repro.hardware.presets import parse_array
from repro.models import build_model


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def plan(model, array="tpu-v2:2,tpu-v3:2", scheme="accpar", backend=None,
         batch=64):
    return Planner(parse_array(array), get_scheme(scheme, backend=backend)) \
        .plan(build_model(model), batch)


def count_nodes(root):
    """(tree nodes, distinct node objects) of a plan tree's internal nodes."""
    seen, total = set(), 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None or node.level_plan is None:
            continue
        total += 1
        seen.add(id(node))
        stack.extend((node.left, node.right))
    return total, len(seen)


ZOO = [
    # chain models
    ("lenet", "tpu-v2:2,tpu-v3:2", "accpar", None),
    ("alexnet", "hetero", "accpar", None),
    ("vgg19", "homo", "accpar", None),
    # multipath models: JoinAlignment / PathExit entries
    ("resnet18", "tpu-v2:4,tpu-v3:4", "accpar", None),
    ("trident", "tpu-v2:2,tpu-v3:2", "accpar", None),
    # unbalanced pairing trees
    ("alexnet", "tpu-v3:3", "accpar", None),
    ("resnet18", "tpu-v2:3,tpu-v3:2", "accpar", None),
    # the other schemes and the greedy backend
    ("alexnet", "tpu-v2:4,tpu-v3:4", "accpar", "greedy"),
    ("resnet18", "tpu-v2:2,tpu-v3:2", "accpar", "greedy"),
    ("vgg11", "tpu-v2:4,tpu-v3:4", "owt", None),
    ("vgg11", "tpu-v2:4,tpu-v3:4", "hypar", None),
    ("lenet", "tpu-v2:2,tpu-v3:2", "dp", None),
]
ZOO_IDS = ["-".join(filter(None, case)) for case in ZOO]
