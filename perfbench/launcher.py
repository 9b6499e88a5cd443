"""Run ``repro`` with per-call timings of the serving stack's layers.

Usage::

    python perfbench/launcher.py TRACE_OUT ARG...

Imports ``repro`` from ``PYTHONPATH`` and replaces each function in
:data:`TARGETS` with a timing wrapper: on its class for a method, and in
every ``repro`` module that holds it under its own name for a function
imported by name (``repro.service.cache.plan_to_dict``, for example).
Every registered search backend's ``search`` is wrapped too.  It then runs
``repro.cli.main(ARG...)`` and, when that returns, writes the per-call
records to TRACE_OUT as one JSON document.

A record is ``[layer, start_ns, duration_ns, self_ns, size]``.  ``self_ns``
is the duration minus the wrapped calls nested in it on the same thread;
``size`` is the bytes a wire or file call moved (0 for other layers).
Timestamps come from ``time.perf_counter_ns``, which on Linux reads the
system-wide monotonic clock, so the benchmark can cut its timed window out
of them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter_ns

#: (layer, module, attribute); the layer names are the stems of the
#: per-layer rows the benchmark reports
TARGETS = (
    ("fleet.wire", "repro.fleet.wire", "encode_frame"),
    ("fleet.wire", "repro.fleet.wire", "decode_body"),
    ("fleet.admission", "repro.fleet.admission",
     "AdmissionController.quick_shed"),
    ("fleet.admission", "repro.fleet.admission", "AdmissionController.decide"),
    ("fleet.ring", "repro.fleet.ring", "HashRing.owner"),
    ("fleet.shard", "repro.fleet.shard", "ShardServer.handle_doc"),
    ("service.server", "repro.service.server", "request_from_doc"),
    ("service.server", "repro.service.server", "response_to_doc"),
    ("service.server", "repro.service.server", "handle_line"),
    ("service.fingerprint", "repro.service.fingerprint",
     "PlanRequest.fingerprint"),
    ("hardware.accelerator.fingerprint", "repro.hardware.accelerator",
     "AcceleratorGroup.fingerprint"),
    ("graph.network.fingerprint", "repro.graph.network",
     "Network.fingerprint"),
    ("models.registry.build", "repro.models.registry", "build_model"),
    ("service.service.wait", "repro.service.service", "PlanService.plan"),
    ("core.serialize.to_dict", "repro.core.serialize", "plan_to_dict"),
    ("service.cache.checksum", "repro.service.cache", "entry_checksum"),
    ("service.cache.put", "repro.service.cache", "PlanCache.put"),
    ("ioutil.write", "repro.ioutil", "atomic_write_text"),
    ("service.cache.lookup", "repro.service.cache", "PlanCache.get_with_tier"),
    ("core.serialize.from_dict", "repro.core.serialize", "plan_from_dict"),
    ("core.planner", "repro.core.planner", "Planner.plan"),
    ("hardware.cluster", "repro.hardware.cluster", "bisection_tree"),
    ("core.stages", "repro.graph.network", "Network.stages"),
    ("core.stages", "repro.core.stages", "to_sharded_stages"),
)

#: the layer every registered backend's ``search`` is timed as
SEARCH_LAYER = "plan.backends.search"

#: modules whose import-by-name bindings must exist before patching; the
#: CLI imports the fleet lazily
_PRELOAD = ("repro.cli", "repro.fleet.frontend", "repro.fleet.shard")


#: how to read the bytes one call moved, for the layers that move bytes
_SIZES = {
    # encode_frame returns the frame; decode_body takes the body
    "fleet.wire": lambda args, kwargs, result:
        len(result) if isinstance(result, bytes) else len(args[0]),
    # json.dumps escapes non-ASCII by default: characters are bytes
    "ioutil.write": lambda args, kwargs, result:
        len(args[1] if len(args) > 1 else kwargs["text"]),
}


class Recorder:
    """Per-call records of the wrapped functions, kept in memory."""

    def __init__(self) -> None:
        self.layers: list = []
        self.records: list = []
        self._local = threading.local()

    def wrap(self, layer: str, fn):
        if layer not in self.layers:
            self.layers.append(layer)
        index = self.layers.index(layer)
        size_of = _SIZES.get(layer)
        local = self._local
        records = self.records

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            size = 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, kwargs, result)
                return result
            finally:
                duration = perf_counter_ns() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                records.append(
                    (index, start, duration, duration - nested, size))

        return timed

    def dump(self, path: str) -> None:
        doc = {"layers": self.layers, "records": list(self.records)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _targets():
    from repro.plan.backends import available_backends, get_backend

    targets = list(TARGETS)
    for name in available_backends():
        cls = type(get_backend(name))
        targets.append(
            (SEARCH_LAYER, cls.__module__, f"{cls.__qualname__}.search"))
    return targets


def install(recorder: Recorder) -> None:
    """Replace every target with its timing wrapper."""
    for name in _PRELOAD:
        importlib.import_module(name)
    modules = [m for n, m in sys.modules.items()
               if n == "repro" or n.startswith("repro.")]
    for layer, module_name, attribute in _targets():
        owner_name, _, name = attribute.rpartition(".")
        module = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, name, recorder.wrap(layer, owner.__dict__[name]))
            continue
        original = getattr(module, name)
        wrapped = recorder.wrap(layer, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, repro_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
