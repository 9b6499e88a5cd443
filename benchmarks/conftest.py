"""Shared benchmark fixtures: artifact directory for reproduced figures."""

import pathlib
import sys

import pytest

from repro.ioutil import atomic_write_text

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"

# benchmarks import the scalar reference search from tests/reference_search.py
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a reproduced table/figure and echo it for the bench log.

    Written atomically (temp file + ``os.replace``): an interrupted bench
    run can never leave a truncated artifact behind for a later run — or
    the CI regression gate — to trip over.
    """
    path = results_dir / name
    atomic_write_text(path, text + "\n")
    print(f"\n[artifact: {path}]\n{text}")
