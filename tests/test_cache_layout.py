"""The disk-cache entry layout, across builds and under corruption.

An entry is ``{"checksum":"<sha256>",`` followed by the rest of the
document's canonical text, so the checksum is the SHA-256 of the bytes
after it.  Two builds may share one cache directory, so the layout is
pinned from both sides:

* every entry this build writes passes :func:`entry_checksum`, the rule
  every build applies to the parsed document;
* an entry in the indented layout of the earlier writer
  (``json.dumps(document, indent=2)``) still loads as a disk hit.  The
  fixtures in ``tests/fixtures/cache_indented/`` were written by that
  earlier build's ``PlanCache`` and are frozen.  Each is named by its
  request's key under ``REQUEST_SCHEMA_VERSION`` 3, which this build no
  longer looks up, so the layout tests copy it under today's key.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from repro.core.serialize import plan_to_json
from repro.hardware import heterogeneous_array
from repro.plan import plan_diff
from repro.service import PlanCache, PlanRequest, PlanService
from repro.service.cache import entry_checksum

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "cache_indented"
FIXTURE_MODELS = ("alexnet", "resnet18")


def request(model, array=None, batch=64):
    return PlanRequest(model=model, array=array or heterogeneous_array(2, 2),
                       batch=batch)


def fixture_of(model):
    """The frozen indented entry of ``model``'s request."""
    (path,) = [path for path in FIXTURES.glob("*.json")
               if json.loads(path.read_text())["network"] == model]
    return path


def write_entry(directory, req):
    """Plan ``req`` into a disk tier at ``directory``.

    Returns the entry's path and the planned execution.
    """
    with PlanService(cache=PlanCache(disk_dir=directory)) as svc:
        planned = svc.plan(req).planned
    return directory / f"{req.fingerprint()}.json", planned


def fresh_lookup(directory, key):
    cache = PlanCache(disk_dir=directory)
    planned, tier = cache.get_with_tier(key)
    return cache, planned, tier


class TestWrittenLayout:
    @pytest.mark.parametrize("model,array", [
        ("lenet", heterogeneous_array(2, 2)),
        ("resnet18", heterogeneous_array(4, 4)),
        ("alexnet", heterogeneous_array(16, 16)),
        ("trident", heterogeneous_array(1, 2)),
    ], ids=["lenet", "resnet18", "alexnet-32", "trident-3"])
    def test_entry_passes_entry_checksum(self, tmp_path, model, array):
        path, planned = write_entry(tmp_path, request(model, array))
        document = json.loads(path.read_text())
        assert document["checksum"] == entry_checksum(document)
        assert document["fingerprint"] == path.stem

    def test_checksum_then_canonical_text(self, tmp_path):
        req = request("resnet18")
        path, planned = write_entry(tmp_path, req)
        raw = path.read_bytes()
        text = plan_to_json(planned, fingerprint=req.fingerprint())
        document = json.loads(raw)
        assert raw == (f'{{"checksum":"{document["checksum"]}",'
                       f'{text[1:]}').encode("ascii")

    def test_written_entry_is_checked_on_its_bytes(self, tmp_path,
                                                   monkeypatch):
        """A clean entry needs no re-encoding: entry_checksum never runs."""
        req = request("resnet18")
        path, _ = write_entry(tmp_path, req)
        calls = []
        monkeypatch.setattr("repro.service.cache.entry_checksum",
                            lambda document: calls.append(document))
        cache, planned, tier = fresh_lookup(tmp_path, req.fingerprint())
        assert tier == "disk" and calls == []

    def test_reencoded_entry_is_checked_on_its_document(self, tmp_path):
        """Same content, other bytes (a hand edit that only reformats)."""
        req = request("alexnet")
        path, _ = write_entry(tmp_path, req)
        document = json.loads(path.read_text())
        path.write_text(json.dumps(document, indent=1))
        cache, planned, tier = fresh_lookup(tmp_path, req.fingerprint())
        assert tier == "disk"
        assert cache.stats.corrupt_total == 0


class TestIndentedFixtures:
    def test_fixtures_are_genuine_indented_entries(self):
        paths = sorted(FIXTURES.glob("*.json"))
        assert len(paths) == len(FIXTURE_MODELS)
        for path in paths:
            text = path.read_text()
            assert text.startswith('{\n  "format_version": 2,')
            document = json.loads(text)
            assert document["checksum"] == entry_checksum(document)

    @pytest.mark.parametrize("model", FIXTURE_MODELS)
    def test_indented_entry_is_a_disk_hit(self, tmp_path, model):
        req = request(model)
        source = fixture_of(model)
        target = tmp_path / f"{req.fingerprint()}.json"
        shutil.copy(source, target)
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
            response = svc.plan(req)
            assert response.source == "disk" and response.cache_hit
            assert svc.metrics.value("planner_runs") == 0
            assert svc.cache.stats.corrupt_total == 0
        # the hit carries the decisions a fresh plan makes
        with PlanService() as svc:
            fresh = svc.plan(req).planned
        assert plan_diff(response.planned.plan, fresh.plan) == []
        # read, never rewritten
        assert target.read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("model", FIXTURE_MODELS)
    def test_an_entry_keyed_by_schema_3_is_never_read(self, tmp_path, model):
        """A schema bump orphans every earlier entry: the request replans
        beside it and leaves it as it was."""
        req = request(model)
        source = fixture_of(model)
        shutil.copy(source, tmp_path)
        assert source.stem != req.fingerprint()
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
            response = svc.plan(req)
            assert response.source == "planned" and not response.cache_hit
            assert svc.metrics.value("planner_runs") == 1
        assert (tmp_path / source.name).read_bytes() == source.read_bytes()


class TestCorruptionIsQuarantined:
    @pytest.fixture
    def entry(self, tmp_path):
        req = request("resnet18")
        path, planned = write_entry(tmp_path, req)
        return path, path.read_bytes(), plan_to_json(planned)

    def test_flipped_bytes(self, tmp_path, entry):
        """A one-bit flip is quarantined, or it left the plan unchanged.

        A flip can leave the document's meaning intact: the last digit of
        a float whose neighbour parses to the same double, or the name of
        the checksum key (the entry then reads as one written before
        checksums, with an intact plan).  Such an entry may load, but only
        as the same plan.
        """
        path, raw, text = entry
        rng = random.Random(7)
        offsets = sorted(rng.sample(range(len(raw)), 64)) + [0, 20, len(raw) - 1]
        quarantined = 0
        for offset in offsets:
            flipped = bytearray(raw)
            flipped[offset] ^= 0x01
            path.write_bytes(bytes(flipped))
            cache, planned, tier = fresh_lookup(tmp_path, path.stem)
            if tier is None:
                assert cache.stats.corrupt_total == 1, offset
                corrupt = path.with_name(path.name + ".corrupt")
                assert corrupt.read_bytes() == bytes(flipped)
                assert not path.exists()
                corrupt.unlink()
                quarantined += 1
            else:
                assert plan_to_json(planned) == text, offset
        assert quarantined >= len(offsets) - 4

    def test_flipped_checksum_digit(self, tmp_path, entry):
        path, raw, _ = entry
        flipped = bytearray(raw)
        flipped[len('{"checksum":"')] ^= 0x01
        path.write_bytes(bytes(flipped))
        cache, planned, tier = fresh_lookup(tmp_path, path.stem)
        assert tier is None and cache.stats.corrupt_total == 1

    @pytest.mark.parametrize("keep", [0, 1, 100, 0.5, -1])
    def test_truncated_entry(self, tmp_path, entry, keep):
        """Cut the entry to ``keep`` bytes: a count, a fraction of its
        length, or all but the last byte (-1)."""
        path, raw, _ = entry
        path.write_bytes(raw[:int(len(raw) * keep) if 0 < keep < 1 else keep])
        cache, planned, tier = fresh_lookup(tmp_path, path.stem)
        assert tier is None and cache.stats.corrupt_total == 1
        assert path.with_name(path.name + ".corrupt").exists()
