"""Hardware presets: the TPU-v2 / TPU-v3 boards of Table 7.

Values follow Section 6.1 exactly:

* TPU-v2: 180 TFLOPS, 64 GB HBM, 2400 GB/s memory bandwidth;
* TPU-v3: 420 TFLOPS, 128 GB HBM, 4800 GB/s memory bandwidth (assumed);
* network data rate 8 Gb/s for TPU-v2 and 16 Gb/s for TPU-v3
  (the paper scales the 2 Gb/s-per-core VPC quota by core count).

Gb/s are converted to bytes/s here so the rest of the library never touches
bit units.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Tuple

from .accelerator import AcceleratorSpec, AcceleratorGroup

GB = 1e9
GIB = 2**30

TPU_V2 = AcceleratorSpec(
    name="tpu-v2",
    flops=180e12,
    memory_bytes=64 * GIB,
    memory_bandwidth=2400 * GB,
    network_bandwidth=8e9 / 8,   # 8 Gb/s -> 1 GB/s
)

TPU_V3 = AcceleratorSpec(
    name="tpu-v3",
    flops=420e12,
    memory_bytes=128 * GIB,
    memory_bandwidth=4800 * GB,
    network_bandwidth=16e9 / 8,  # 16 Gb/s -> 2 GB/s
)

#: spec registry by name: how CLI array strings and calibration exports
#: (whose per-hardware keys are spec names) resolve to concrete specs
KNOWN_SPECS = {
    TPU_V2.name: TPU_V2,
    TPU_V3.name: TPU_V3,
}

#: bfloat16, "Google's 16-bit floating point data format for training"
BFLOAT16_BYTES = 2

#: mini-batch size used throughout Section 6 (except Figure 7, which uses 128)
PAPER_BATCH = 512

#: the most boards :func:`group_from_runs` builds, summed over all runs:
#: 16x the paper's 256-board array, so a short request line or plan
#: document cannot make a server build and hash a million-member array
MAX_BOARDS = 4096

#: arrays kept per process, least recently used out.  An array is a pure
#: function of its ``(spec, count)`` runs and a frozen value, so every
#: request that names one array shares one group, and the digest the group
#: caches, as :data:`repro.hardware.cluster.TREE_CACHE_SIZE` shares pairing
#: trees.  The runs come from outside input (a request's or a plan
#: document's array), so the cache evicts.
ARRAY_CACHE_SIZE = 64


def heterogeneous_array(n_v2: int = 128, n_v3: int = 128) -> AcceleratorGroup:
    """The Section 6.2 array: 128 TPU-v2 + 128 TPU-v3 boards."""
    return group_from_runs(((TPU_V2, n_v2), (TPU_V3, n_v3)))


def homogeneous_array(n: int = 128) -> AcceleratorGroup:
    """The Section 6.3 array: 128 TPU-v3 boards."""
    return group_from_runs(((TPU_V3, n),))


def group_from_runs(
    runs: Iterable[Tuple[AcceleratorSpec, int]],
) -> AcceleratorGroup:
    """The array of ``count`` consecutive copies of each run's ``spec``.

    Raises ``ValueError`` on a count that is not a positive integer, or on
    counts summing past :data:`MAX_BOARDS`; both are checked before any
    member is built, and a refused array is never cached.  Equal runs
    return one shared group (see :data:`ARRAY_CACHE_SIZE`).
    """
    runs = list(runs)
    for _, count in runs:
        if type(count) is not int or count < 1:
            raise ValueError(f"board count {count!r} is not a positive integer")
    boards = sum(count for _, count in runs)
    if boards > MAX_BOARDS:
        raise ValueError(
            f"array of {boards} boards exceeds the limit of {MAX_BOARDS}")
    return _shared_group(tuple((spec, count) for spec, count in runs))


@functools.lru_cache(maxsize=ARRAY_CACHE_SIZE)
def _shared_group(
    runs: Tuple[Tuple[AcceleratorSpec, int], ...],
) -> AcceleratorGroup:
    members: List[AcceleratorSpec] = []
    for spec, count in runs:
        members += [spec] * count
    return AcceleratorGroup(tuple(members))


def parse_array(text: str) -> AcceleratorGroup:
    """Parse an array spec: 'hetero', 'homo', or 'name:count,name:count'.

    Raises ``ValueError`` on a spec it cannot read, or on one
    :func:`group_from_runs` refuses.  A text of more than
    :data:`MAX_BOARDS` components is refused before any is read: each
    names at least one board.
    """
    key = text.strip().lower()
    if key in ("hetero", "heterogeneous"):
        return heterogeneous_array()
    if key in ("homo", "homogeneous"):
        return homogeneous_array()
    parts = key.count(",") + 1
    if parts > MAX_BOARDS:
        raise ValueError(f"array of at least {parts} boards exceeds the "
                         f"limit of {MAX_BOARDS}")
    components = []
    for part in key.split(","):
        name, colon, count = part.partition(":")
        if not colon:
            raise ValueError(
                f"bad array component {part!r}; expected name:count")
        if name not in KNOWN_SPECS:
            raise ValueError(
                f"unknown accelerator {name!r}; known: {sorted(KNOWN_SPECS)}")
        if not count.strip().isdecimal():
            raise ValueError(f"bad count in {part!r}")
        components.append((KNOWN_SPECS[name], int(count)))
    return group_from_runs(components)
