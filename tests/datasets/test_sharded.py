"""Tests for the sharded dataset store (format 3 written, formats 1, 2 and
3 read) and the storage-layer satellites: streamed atomic saves,
format-version validation and suffix-tolerant loading."""

import gzip
import json
import os

import numpy as np
import pytest

from repro.datasets import (
    DatasetConfig,
    DatasetJobSpec,
    FeatureNormalizer,
    ShardedDatasetReader,
    generate_dataset,
    is_sharded_store,
    load_dataset,
    save_dataset,
)
from repro.datasets.sharded import (
    MANIFEST_NAME,
    file_sha256,
    shard_size_for,
    write_shard,
)
from repro.testing import faults
from repro.testing.faults import ENV_PLAN
from repro.topology import ring_topology
from tests.format1 import write_format1_file
from tests.format2 import write_format2_store


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(ring_topology(5),
                            DatasetConfig(num_samples=7, seed=11,
                                          small_queue_fraction=0.5))


@pytest.fixture(scope="module")
def normalizer(samples):
    return FeatureNormalizer().fit(samples)


def assert_bit_exact(originals, rebuilt):
    """Every array verbatim (not allclose) and every attribute equal."""
    assert len(rebuilt) == len(originals)
    for original, copy in zip(originals, rebuilt):
        np.testing.assert_array_equal(copy.delays, original.delays)
        for name in ("jitters", "losses"):
            if getattr(original, name) is not None:
                np.testing.assert_array_equal(getattr(copy, name),
                                              getattr(original, name))
        np.testing.assert_array_equal(copy.traffic.matrix,
                                      original.traffic.matrix)
        assert copy.pair_order == original.pair_order
        assert copy.routing.node_paths() == original.routing.node_paths()
        assert copy.queue_sizes() == original.queue_sizes()
        assert copy.topology.name == original.topology.name
        assert copy.metadata == original.metadata
        assert list(copy.topology.links()) == list(original.topology.links())


def edit_manifest(store, **changes):
    path = os.path.join(store, MANIFEST_NAME)
    with open(path) as handle:
        manifest = json.load(handle)
    for key, change in changes.items():
        manifest[key] = change(manifest[key]) if callable(change) else change
    with open(path, "w") as handle:
        json.dump(manifest, handle)


def overcount_first_shard(shards):
    shards[0]["num_samples"] += 1
    return shards


class TestShardedWriterReader:
    """Store-level behaviour.  Format 2 is no longer written; its cases read
    stores laid out by :func:`tests.format2.write_format2_store`."""

    def test_round_trip_with_shard_rolling(self, tmp_path, samples, normalizer):
        store = write_format2_store(samples, str(tmp_path / "store"), shards=3,
                                    normalizer=normalizer,
                                    metadata={"purpose": "test"})
        reader = ShardedDatasetReader(store)
        assert len(reader) == 7
        assert [shard["num_samples"] for shard in reader.shards] == [3, 3, 1]
        assert reader.metadata == {"purpose": "test"}
        assert reader.normalizer.means == normalizer.means
        # JSON floats survive via repr: format 2 reads back bit-exactly too.
        assert_bit_exact(samples, reader.read_all())

    def test_shard_files_and_manifest_layout(self, tmp_path, samples):
        """save_dataset's manifest is exactly the store index, with every
        shard's checksum stamped from the bytes on disk."""
        store = save_dataset(samples, str(tmp_path / "store"), shards=2)
        with open(os.path.join(store, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest == {
            "format_version": 3, "payload": "binary", "metadata": {},
            "normalizer": None, "total_samples": 7,
            "shards": [{"name": name, "num_samples": count,
                        "sha256": file_sha256(os.path.join(store, name))}
                       for name, count in (("shard-00000.npz", 4),
                                           ("shard-00001.npz", 3))]}

    def test_iteration_matches_read_all_and_restarts(self, tmp_path, samples):
        store = write_format2_store(samples, str(tmp_path / "store"), shards=4)
        reader = ShardedDatasetReader(store)
        first_pass = [s.delays for s in reader]
        second_pass = [s.delays for s in reader]  # fresh pass per iter()
        assert len(first_pass) == len(second_pass) == 7
        for a, b in zip(first_pass, second_pass):
            np.testing.assert_array_equal(a, b)

    def test_aborted_writer_leaves_no_manifest(self, tmp_path, samples,
                                               monkeypatch):
        """A save killed inside the second shard's commit (bytes written,
        not yet renamed) removes the first shard, the temp file and the
        directory it created."""
        monkeypatch.setenv(ENV_PLAN, json.dumps(
            [{"site": "sharded.shard.pre_replace", "kind": "fail",
              "match": {"name": "shard-00001.npz"}}]))
        store = str(tmp_path / "store")
        with pytest.raises(faults.InjectedFault):
            save_dataset(samples, store, shards=3)
        assert not is_sharded_store(store)
        assert os.listdir(tmp_path) == []
        with pytest.raises(FileNotFoundError):
            ShardedDatasetReader(store)

    def test_rewrite_is_atomic_at_the_manifest(self, tmp_path, samples):
        """Rewriting an existing store keeps the old generation fully
        readable until the new manifest lands: new shards use fresh names,
        a crashed rewrite leaves the old store intact with no new shard
        files, and a committed one swaps the contents and deletes the
        superseded shard files."""
        store = save_dataset(samples, str(tmp_path / "store"), shards=4)
        before = sorted(os.listdir(store))
        mid_rewrite = {}

        class CrashHalfway:
            def __len__(self):
                return len(samples)

            def __iter__(self):
                yield from samples[:4]
                mid_rewrite["new_files"] = sorted(
                    set(os.listdir(store)) - set(before))
                mid_rewrite["old_store"] = ShardedDatasetReader(store).read_all()
                raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError, match="simulated crash"):
            save_dataset(CrashHalfway(), store, shards=7)
        # Halfway through, new shards were on disk and the old store read.
        assert len(mid_rewrite["new_files"]) == 4
        assert_bit_exact(samples, mid_rewrite["old_store"])
        assert sorted(os.listdir(store)) == before
        assert_bit_exact(samples, ShardedDatasetReader(store).read_all())

        save_dataset(samples[:4], store, shards=1)
        reader = ShardedDatasetReader(store)
        assert len(reader) == 4
        on_disk = {n for n in os.listdir(store) if n.startswith("shard-")}
        assert on_disk == {shard["name"] for shard in reader.shards}

    def test_truncated_shard_detected(self, tmp_path, samples):
        store = write_format2_store(samples, str(tmp_path / "store"), shards=2)
        edit_manifest(store, shards=overcount_first_shard)
        with pytest.raises(ValueError, match="truncated or corrupted"):
            list(ShardedDatasetReader(store))

    def test_corrupted_shard_refused_naming_it(self, tmp_path, samples):
        store = write_format2_store(samples, str(tmp_path / "store"), shards=2)
        faults._corrupt_file(os.path.join(store, "shard-00001.jsonl.gz"))
        with pytest.raises(ValueError, match="failed checksum") as excinfo:
            list(ShardedDatasetReader(store))
        message = str(excinfo.value)
        assert "shard-00001.jsonl.gz" in message and "sha256" in message

    def test_validation(self, tmp_path, samples):
        with pytest.raises(ValueError):
            save_dataset(samples, str(tmp_path / "s"), shards=0)
        assert os.listdir(tmp_path) == []
        with pytest.raises(ValueError):
            shard_size_for(10, 0)
        assert shard_size_for(7, 3) == 3
        assert shard_size_for(0, 4) == 1

    def test_unknown_format_version_rejected(self, tmp_path, samples):
        store = save_dataset(samples, str(tmp_path / "store"), shards=2)
        edit_manifest(store, format_version=9)
        with pytest.raises(ValueError) as excinfo:
            ShardedDatasetReader(store)
        # The error must name every supported version and the store path.
        message = str(excinfo.value)
        assert "9" in message and "2" in message and "3" in message
        assert store in message


class TestBinaryPayload:
    """Format 3: zero-parse binary npz shard payloads."""

    def test_round_trip_is_bit_exact_with_shard_rolling(self, tmp_path, samples,
                                                        normalizer):
        store = save_dataset(samples, str(tmp_path / "store"), shards=3,
                             normalizer=normalizer,
                             metadata={"purpose": "test"})
        reader = ShardedDatasetReader(store)
        assert len(reader) == 7
        assert [shard["num_samples"] for shard in reader.shards] == [3, 3, 1]
        assert reader.metadata == {"purpose": "test"}
        assert reader.normalizer.means == normalizer.means
        # float64 arrays hit disk verbatim: exact equality, not allclose.
        assert_bit_exact(samples, reader.read_all())

    def test_shard_files_and_manifest_layout(self, tmp_path, samples):
        store = save_dataset(samples, str(tmp_path / "store"), shards=2)
        names = sorted(os.listdir(store))
        assert names == [MANIFEST_NAME, "shard-00000.npz", "shard-00001.npz"]
        # Shards really are npz archives: per-sample key prefixes + meta.
        with np.load(os.path.join(store, "shard-00000.npz"),
                     allow_pickle=False) as archive:
            keys = set(archive.files)
            assert "meta" in keys
            assert archive["meta"].shape == (4,)
            assert {k.split(".", 1)[0] for k in keys if k != "meta"} \
                == {"s00000", "s00001", "s00002", "s00003"}

    def test_iteration_and_reread(self, tmp_path, samples):
        store = save_dataset(samples, str(tmp_path / "store"), shards=4)
        reader = ShardedDatasetReader(store)
        first_pass = [s.delays for s in reader]
        second_pass = [s.delays for s in reader]
        assert len(first_pass) == len(second_pass) == 7
        for a, b in zip(first_pass, second_pass):
            np.testing.assert_array_equal(a, b)

    def test_truncated_binary_shard_detected(self, tmp_path, samples):
        store = save_dataset(samples, str(tmp_path / "store"), shards=2)
        edit_manifest(store, shards=overcount_first_shard)
        with pytest.raises(ValueError, match="truncated or corrupted"):
            list(ShardedDatasetReader(store))

    def test_payload_validated(self, tmp_path, samples):
        """Only npz shards are written, and a job spec asking for the
        retired JSONL encoding is refused naming it."""
        with pytest.raises(ValueError, match="npz"):
            write_shard(str(tmp_path), "shard-00000.jsonl.gz", samples[:1])
        assert os.listdir(tmp_path) == []
        spec = DatasetJobSpec(topologies=("ring:4",))
        assert spec.to_dict()["payload"] == "binary"
        assert DatasetJobSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="JSONL shard writer"):
            DatasetJobSpec.from_dict({**spec.to_dict(), "payload": "jsonl"})

    def test_save_dataset_binary_round_trips(self, tmp_path, samples,
                                             normalizer):
        """A format-2 store streams into a format-3 one bit-exactly."""
        legacy = write_format2_store(samples, str(tmp_path / "legacy"),
                                     shards=2)
        store = save_dataset(ShardedDatasetReader(legacy),
                             str(tmp_path / "store"), normalizer=normalizer,
                             metadata={"k": 1}, shards=2)
        assert is_sharded_store(store)
        loaded, loaded_normalizer, metadata = load_dataset(store)
        assert metadata == {"k": 1}
        assert loaded_normalizer.means == normalizer.means
        assert_bit_exact(samples, loaded)


class TestStorageIntegration:
    def test_save_dataset_shards_option_round_trips(self, tmp_path, samples,
                                                    normalizer):
        store = save_dataset(samples, str(tmp_path / "store"),
                             normalizer=normalizer, metadata={"k": 1}, shards=2)
        assert is_sharded_store(store)
        assert ShardedDatasetReader(store).num_shards == 2
        loaded, loaded_normalizer, metadata = load_dataset(store)
        assert len(loaded) == len(samples)
        assert metadata == {"k": 1}
        assert loaded_normalizer.means == normalizer.means
        np.testing.assert_allclose(loaded[3].delays, samples[3].delays)

    def test_format1_unknown_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.json.gz")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"format_version": 7, "samples": []}, handle)
        with pytest.raises(ValueError) as excinfo:
            load_dataset(path)
        message = str(excinfo.value)
        assert "7" in message and "format 1" in message
        assert "format 2" in message and "format 3" in message

    def test_save_accepts_a_generator(self, tmp_path, samples):
        """An unsized iterator is buffered, then spread over the shards."""
        path = save_dataset((s for s in samples), str(tmp_path / "gen"),
                            shards=2)
        assert ShardedDatasetReader(path).num_shards == 2
        loaded, _, _ = load_dataset(path)
        assert_bit_exact(samples, loaded)

    def test_format1_file_round_trips(self, tmp_path, samples, normalizer):
        """A format-1 file (no longer written) still loads bit-exactly."""
        path = write_format1_file(samples, str(tmp_path / "fmt1.json.gz"),
                                  normalizer=normalizer, metadata={"a": "b"})
        loaded, loaded_normalizer, metadata = load_dataset(path)
        assert metadata == {"a": "b"}
        assert loaded_normalizer.means == normalizer.means
        assert_bit_exact(samples, loaded)

    @pytest.mark.parametrize("shards", [1, 2], ids=["one-shard", "sharded"])
    def test_failed_save_leaves_nothing_behind(self, tmp_path, samples, shards):
        class Exploding:
            def __len__(self):
                return 3

            def __iter__(self):
                yield from samples[:2]
                raise RuntimeError("boom")

        target = str(tmp_path / "crash")
        with pytest.raises(RuntimeError, match="boom"):
            save_dataset(Exploding(), target, shards=shards)
        assert os.listdir(tmp_path) == []  # no dataset, no .tmp residue
        # A manifest that fails to serialise after the samples were written
        # leaves nothing either.
        with pytest.raises(TypeError):
            save_dataset(samples, target, shards=shards,
                         metadata={"n": np.int64(3)})
        assert os.listdir(tmp_path) == []

    def test_load_checks_exact_path_before_suffixing(self, tmp_path, samples):
        # A dataset deliberately saved under a suffix-less name must load by
        # its exact path instead of erroring about '<name>.json.gz'.
        canonical = write_format1_file(samples[:2],
                                       str(tmp_path / "named.json.gz"))
        bare = str(tmp_path / "bare")
        os.replace(canonical, bare)
        loaded, _, _ = load_dataset(bare)
        assert len(loaded) == 2

    def test_missing_dataset_error_names_both_candidates(self, tmp_path):
        missing = str(tmp_path / "nope")
        with pytest.raises(FileNotFoundError) as excinfo:
            load_dataset(missing)
        assert missing in str(excinfo.value)
        assert missing + ".json.gz" in str(excinfo.value)

    def test_plain_directory_is_not_a_dataset(self, tmp_path):
        directory = tmp_path / "plain"
        directory.mkdir()
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_dataset(str(directory))

    def test_manifestless_directory_does_not_shadow_suffixed_file(self, tmp_path,
                                                                  samples):
        """The residue of an aborted sharded write (a directory with no
        manifest) must not shadow a good '<path>.json.gz' next to it."""
        write_format1_file(samples[:2], str(tmp_path / "data.json.gz"))
        (tmp_path / "data").mkdir()  # aborted-write residue
        loaded, _, _ = load_dataset(str(tmp_path / "data"))
        assert len(loaded) == 2

    def test_sharded_save_does_not_copy_sized_inputs(self, tmp_path, samples):
        """save_dataset(shards=N) must consume sized inputs as-is (no list()
        copy of a larger-than-RAM reader) — only unsized iterators buffer."""
        class CountingSequence:
            def __init__(self, items):
                self.items = items
                self.iterations = 0
            def __len__(self):
                return len(self.items)
            def __iter__(self):
                self.iterations += 1
                return iter(self.items)

        source = CountingSequence(samples)
        store = save_dataset(source, str(tmp_path / "sized"), shards=2)
        assert source.iterations == 1  # streamed straight through, once
        assert len(ShardedDatasetReader(store)) == len(samples)
