"""Re-record ``reference.json``: the expected answer to every timed spec.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Plans every spec any workload can time
through an in-process ``PlanService`` without a disk tier, once with the
default exact backend and once with ``dp-vectorized``, and refuses to write
the file when the two disagree on any decision (``plan_diff``) or on the
root cost.  For each spec it records what ``repro serve`` replies:
``root_cost``, ``levels``, ``model`` and ``batch``.

Re-record only when a change is meant to alter plans: a benchmark op whose
reply differs from this file counts as failed.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def record() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.plan import plan_diff
    from repro.service import PlanCache, PlanService
    from repro.service.server import request_from_doc, response_to_doc

    specs = {}
    for workload in wl.WORKLOADS.values():
        for doc in workload.specs():
            specs.setdefault(wl.key(doc), doc)
    answers = {}
    started = time.perf_counter()
    with PlanService(cache=PlanCache(capacity=1), workers=1) as service:
        for index, (name, doc) in enumerate(sorted(specs.items())):
            exact = service.plan(request_from_doc(doc))
            vectorized = service.plan(
                request_from_doc(dict(doc, backend="dp-vectorized")))
            reply = response_to_doc(exact)
            other = response_to_doc(vectorized)["root_cost"]
            differences = plan_diff(exact.planned.plan, vectorized.planned.plan)
            if differences or \
                    abs(other - reply["root_cost"]) > wl.REL_TOL * abs(other):
                raise SystemExit(
                    f"dp and dp-vectorized disagree on {name}: root cost "
                    f"{reply['root_cost']!r} vs {other!r}; "
                    + "; ".join(str(d) for d in differences[:5]))
            answers[name] = {field: reply[field] for field in
                             ("root_cost", "levels", "model", "batch")}
            if index % 200 == 199:
                print(f"{index + 1}/{len(specs)} specs, "
                      f"{time.perf_counter() - started:.0f} s",
                      file=sys.stderr)
    return {
        "description": "Expected serve replies for every timed spec; "
                       "dp and dp-vectorized agreed on each.  Re-record "
                       "with perfbench/record_reference.py.",
        "rel_tol": wl.REL_TOL,
        "answers": answers,
    }


def main() -> int:
    doc = record()
    wl.REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(doc['answers'])} answers to {wl.REFERENCE}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
