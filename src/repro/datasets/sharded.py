"""Sharded on-disk dataset store: binary npz shards plus a manifest.

Formats 2 and 3 of the dataset storage layer (format 1 is the single
``.json.gz`` blob that :mod:`repro.datasets.storage` still reads).  A
sharded store is a *directory*::

    store/
      manifest.json          <- format_version 3, shard index, normalizer
      shard-00000.npz        <- raw index/float arrays per sample
      shard-00001.npz
      ...

Every store is written as format 3: :func:`write_shard` is the one shard
writer and :func:`build_manifest` the one builder of the index, used by
:func:`~repro.datasets.storage.save_dataset`, the dataset factory and
:func:`~repro.datasets.factory.merge_catalogs` alike.  Format 2 — the same
layout with gzipped-JSONL shards (``shard-00000.jsonl.gz``, one
JSON-encoded Sample dict per line) — is no longer written but still read:
the reader picks the decoder from each shard's extension.

The binary payload stores every sample as a handful of typed arrays
(routing as offsets into one flat node-id vector, traffic as the dense
float64 matrix, targets verbatim) plus one small JSON string for the
non-array attributes, so streamed epochs read samples with **zero JSON
parsing of numeric data** — ``np.load`` hands the arrays straight back.
Round trips are bit-exact in both formats (JSON floats survive via repr).

:class:`ShardedDatasetReader` is an iterable that decodes one sample at a
time, which is what the streaming training pipeline
(:mod:`repro.datasets.prefetch`) consumes to run epochs in O(window) memory
instead of O(dataset).

Crash safety mirrors the trainer's checkpointing: every shard is written to
a ``.tmp`` name and :func:`os.replace`-d into place when complete, and the
manifest — written last — is the commit point.  A killed writer leaves at
worst orphaned shard files and no *new* manifest, never a store that reads
back truncated.

Integrity goes beyond crash atomicity: every shard's SHA-256 is computed
over the finished ``.tmp`` bytes and stamped into its manifest record, and
:class:`ShardedDatasetReader` re-hashes each shard the first time it reads
it (per reader instance), refusing silently rotten bytes with an error
naming the file and both digests.  Shard bytes are a deterministic function
of their samples (npz archives carry no timestamps), which is what lets the
fault-tolerance tests assert byte-identical stores across crash/recover
runs.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import os
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.testing.faults import fault_point

from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sample import Sample
from repro.routing.scheme import RoutingScheme
from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "MANIFEST_NAME",
    "SHARD_EXTENSION",
    "ShardedDatasetReader",
    "build_manifest",
    "is_sharded_store",
    "shard_size_for",
    "write_shard",
    "file_sha256",
]

MANIFEST_NAME = "manifest.json"

#: File extension of every shard this package writes (format 3).
SHARD_EXTENSION = ".npz"

SUPPORTED_FORMAT_VERSIONS = (2, 3)


def _encode_sample(sample: Sample) -> Tuple[dict, str]:
    """Encode one sample as (typed arrays, JSON string of the rest).

    The arrays carry everything numeric — node/link structure, routing as
    one flat node vector plus per-path offsets, the dense traffic matrix
    and the target vectors — in their natural dtypes; the JSON string keeps
    only the small non-array attributes (topology name, node labels and
    scheduling disciplines, sample metadata).
    """
    topology = sample.topology
    nodes = topology.nodes()
    node_specs = [topology.node_spec(node) for node in nodes]
    links = topology.links()
    node_paths = sample.routing.node_paths()
    arrays = {
        "node_ids": np.asarray(nodes, dtype=np.int64),
        "queue_sizes": np.asarray([spec.queue_size for spec in node_specs],
                                  dtype=np.int64),
        "link_endpoints": np.asarray(
            [[link.source, link.target] for link in links],
            dtype=np.int64).reshape(-1, 2),
        "link_capacities": np.asarray([link.capacity for link in links],
                                      dtype=np.float64),
        "link_delays": np.asarray([link.propagation_delay for link in links],
                                  dtype=np.float64),
        "route_pairs": np.asarray(sample.routing.pairs(),
                                  dtype=np.int64).reshape(-1, 2),
        "route_offsets": np.cumsum(
            [0] + [len(path) for path in node_paths], dtype=np.int64),
        "route_nodes": (np.concatenate([np.asarray(p, dtype=np.int64)
                                        for p in node_paths])
                        if node_paths else np.zeros(0, dtype=np.int64)),
        "traffic": sample.traffic.matrix,
        "delays": sample.delays,
    }
    if sample.jitters is not None:
        arrays["jitters"] = sample.jitters
    if sample.losses is not None:
        arrays["losses"] = sample.losses
    meta = json.dumps({
        "name": topology.name,
        "labels": [spec.label for spec in node_specs],
        "scheduling": [spec.scheduling for spec in node_specs],
        "metadata": dict(sample.metadata),
    })
    return arrays, meta


def _decode_sample(get, available, meta_json: str) -> Sample:
    """Rebuild a :class:`Sample` from :func:`_encode_sample` arrays.

    ``get(field)`` returns the named array, ``available`` is the set of
    fields present (the optional target vectors may be absent).  The routing
    scheme is rebuilt without per-hop re-validation: the arrays were encoded
    from a scheme that was already validated against this very topology, so
    re-walking every hop on each streamed epoch would only re-prove what the
    writer established once.
    """
    meta = json.loads(meta_json)
    topology = Topology(name=meta.get("name", "topology"))
    for node_id, queue_size, label, scheduling in zip(
            get("node_ids"), get("queue_sizes"), meta["labels"], meta["scheduling"]):
        topology.add_node(int(node_id), queue_size=int(queue_size),
                          label=label, scheduling=scheduling)
    for (source, target), capacity, delay in zip(
            get("link_endpoints"), get("link_capacities"), get("link_delays")):
        topology.add_link(int(source), int(target), capacity=float(capacity),
                          propagation_delay=float(delay))
    offsets = get("route_offsets")
    route_nodes = get("route_nodes")
    paths = {}
    for k, (source, destination) in enumerate(get("route_pairs")):
        paths[(int(source), int(destination))] = \
            route_nodes[offsets[k]:offsets[k + 1]].tolist()
    return Sample(
        topology=topology,
        routing=RoutingScheme(topology, paths, validate=False),
        traffic=TrafficMatrix(get("traffic")),
        delays=get("delays"),
        jitters=get("jitters") if "jitters" in available else None,
        losses=get("losses") if "losses" in available else None,
        metadata=meta.get("metadata", {}),
    )


def file_sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes (streamed, constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _commit_shard(directory: str, name: str) -> str:
    """Hash the finished ``.tmp`` shard and rename it into place.

    Returns the shard's hex SHA-256 (of exactly the bytes that now live
    under the final name).  The :func:`fault_point` lets the chaos suite
    kill the writer *between* finishing the bytes and the rename — the
    window where crash atomicity is earned.
    """
    temporary = os.path.join(directory, name + ".tmp")
    digest = file_sha256(temporary)
    fault_point("sharded.shard.pre_replace", name=name)
    os.replace(temporary, os.path.join(directory, name))
    return digest


def _write_binary_shard(directory: str, name: str,
                        encoded: List[Tuple[dict, str]]) -> str:
    """Atomically write one format-3 npz shard from encoded samples.

    One npz archive per shard: sample ``i``'s arrays live under the key
    prefix ``s{i:05d}.`` and the per-sample JSON strings stack into one
    unicode "meta" array (also the sample count).  Written to a ``.tmp``
    name and :func:`os.replace`-d into place, so a killed writer never
    leaves a partially written shard under the final name.  Returns the
    committed shard's hex SHA-256.
    """
    temporary = os.path.join(directory, name + ".tmp")
    archive = {}
    metas = []
    for i, (arrays, meta) in enumerate(encoded):
        prefix = f"s{i:05d}."
        for key, value in arrays.items():
            archive[prefix + key] = value
        metas.append(meta)
    archive["meta"] = np.array(metas)
    with open(temporary, "wb") as handle:
        np.savez(handle, **archive)
    return _commit_shard(directory, name)


def write_shard(directory: str, name: str, samples) -> dict:
    """Write one complete, self-contained format-3 shard file atomically.

    The one shard writer of the package: :func:`repro.datasets.storage.
    save_dataset` writes a store as a run of these, and the dataset factory's
    worker processes each commit one whole work unit as one.  The file
    appears under ``directory/name`` only when fully written (temp +
    ``os.replace``), so concurrent writers of *different* names never
    interfere and a killed writer leaves at worst a ``.tmp`` residue.

    Returns the shard's manifest record
    ``{"name": ..., "num_samples": ..., "sha256": ...}``.  ``name`` must
    carry the :data:`SHARD_EXTENSION` — the reader dispatches its decoder
    on it.
    """
    if not name.endswith(SHARD_EXTENSION):
        raise ValueError(
            f"shard name '{name}' lacks the '{SHARD_EXTENSION}' extension")
    samples = list(samples)
    digest = _write_binary_shard(
        directory, name, [_encode_sample(s) for s in samples])
    return {"name": name, "num_samples": len(samples), "sha256": digest}


def build_manifest(shards: List[dict],
                   normalizer: Optional[FeatureNormalizer] = None,
                   metadata: Optional[dict] = None,
                   catalog: Optional[dict] = None) -> dict:
    """The store index over ``shards`` — the one builder of a manifest.

    ``shards`` are :func:`write_shard` records, in read order.  The format
    follows the shard files: 3 (binary) when every shard is npz, which is
    all this package writes; a merge that carries over legacy gzipped-JSONL
    shards keeps describing them as format 2 (all JSONL) or a ``"mixed"``
    payload.  The dataset factory adds its provenance ``catalog`` block.
    """
    legacy = sum(not shard["name"].endswith(SHARD_EXTENSION) for shard in shards)
    payload = ("binary" if not legacy
               else "jsonl" if legacy == len(shards) else "mixed")
    manifest = {
        "format_version": 2 if payload == "jsonl" else 3,
        "payload": payload,
        "metadata": dict(metadata) if metadata else {},
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "total_samples": sum(shard["num_samples"] for shard in shards),
        "shards": list(shards),
    }
    if catalog is not None:
        manifest["catalog"] = catalog
    return manifest


def is_sharded_store(path: str) -> bool:
    """True when ``path`` is a directory holding a sharded-store manifest."""
    return os.path.isdir(path) and os.path.isfile(os.path.join(path, MANIFEST_NAME))


def _write_manifest(path: str, manifest: dict) -> None:
    """Atomically (re)write the manifest — the store's commit point.

    The temp name carries the writer's pid: concurrent ``--resume`` runs
    committing the same store (coordinated per *unit* by claim files, but
    free to interleave manifest commits) must not rename each other's
    half-written temp file out from under the replace.  A manifest that
    fails to serialise leaves no temp file behind."""
    target = os.path.join(path, MANIFEST_NAME)
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise
    os.replace(temporary, target)


class ShardedDatasetReader:
    """Stream samples back out of a sharded store, one at a time.

    The reader is a sized iterable: ``len(reader)`` is the manifest's total
    and every ``iter(reader)`` starts a fresh pass over the shards (one pass
    per training epoch).  Iteration decodes one :class:`Sample` at a
    time, so only O(1) samples are ever live — the
    property the out-of-core training path is built on.

    With ``verify_checksums=True`` (the default) each shard's bytes are
    re-hashed the **first** time this reader instance touches it and
    compared to the SHA-256 stamped in the manifest; a mismatch raises
    :class:`ValueError` naming the file and both digests instead of
    silently decoding rotten data.  Verification costs one extra pass over
    the shard's (compressed) bytes on the first epoch only — later epochs
    decode straight from disk — and is skipped for shards whose manifest
    record predates checksums.
    """

    def __init__(self, path: str, verify_checksums: bool = True) -> None:
        if not is_sharded_store(path):
            raise FileNotFoundError(
                f"no sharded dataset store at '{path}' (expected a directory "
                f"containing {MANIFEST_NAME})")
        self.path = path
        self.verify_checksums = verify_checksums
        self._verified_shards: set = set()
        with open(os.path.join(path, MANIFEST_NAME), "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        version = manifest.get("format_version")
        if version not in SUPPORTED_FORMAT_VERSIONS:
            supported = " and ".join(str(v) for v in SUPPORTED_FORMAT_VERSIONS)
            raise ValueError(
                f"unsupported sharded-store format_version {version!r} "
                f"in '{path}' (this reader understands versions {supported}: "
                f"2 = gzipped-JSONL shards, 3 = binary npz shards)")
        self._manifest = manifest
        self.metadata: dict = manifest.get("metadata", {})
        self.normalizer: Optional[FeatureNormalizer] = (
            FeatureNormalizer.from_dict(manifest["normalizer"])
            if manifest.get("normalizer") else None)

    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> List[dict]:
        """The manifest's shard index: ``[{"name", "num_samples"}, ...]``."""
        return list(self._manifest["shards"])

    @property
    def num_shards(self) -> int:
        return len(self._manifest["shards"])

    def __len__(self) -> int:
        return int(self._manifest["total_samples"])

    def _checked_source(self, shard: dict, shard_path: str):
        """The shard's decode source: its path, or verified in-memory bytes.

        First touch of a checksummed shard reads the whole file once,
        compares digests, and hands the already-read bytes to the decoder
        (so verification never costs a second disk pass); later touches —
        and shards without a recorded checksum — decode from the path.
        """
        expected = shard.get("sha256")
        if (not self.verify_checksums or expected is None
                or shard["name"] in self._verified_shards):
            return shard_path
        with open(shard_path, "rb") as handle:
            blob = handle.read()
        actual = hashlib.sha256(blob).hexdigest()
        if actual != expected:
            raise ValueError(
                f"shard '{shard_path}' failed checksum verification: "
                f"manifest records sha256 {expected} but the file hashes to "
                f"{actual} — the shard was corrupted after commit; "
                "regenerate it (factory stores: `repro-net generate "
                "--resume` quarantines and re-executes the unit)")
        self._verified_shards.add(shard["name"])
        return io.BytesIO(blob)

    def __iter__(self) -> Iterator[Sample]:
        for shard in self._manifest["shards"]:
            shard_path = os.path.join(self.path, shard["name"])
            source = self._checked_source(shard, shard_path)
            if shard["name"].endswith(".npz"):
                count = yield from self._iter_binary_shard(source)
            else:
                count = yield from self._iter_jsonl_shard(source)
            if count != shard["num_samples"]:
                raise ValueError(
                    f"shard '{shard['name']}' of '{self.path}' holds {count} "
                    f"samples but the manifest records {shard['num_samples']} "
                    "(truncated or corrupted shard)")

    @staticmethod
    def _iter_jsonl_shard(source):
        count = 0
        with gzip.open(source, "rt", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                yield Sample.from_dict(json.loads(line))
                count += 1
        return count

    @staticmethod
    def _iter_binary_shard(source):
        with np.load(source, allow_pickle=False) as archive:
            available = set(archive.files)
            metas = archive["meta"]
            for i in range(len(metas)):
                prefix = f"s{i:05d}."
                yield _decode_sample(
                    lambda field, prefix=prefix: archive[prefix + field],
                    {name[len(prefix):] for name in available
                     if name.startswith(prefix)},
                    str(metas[i]))
        return len(metas)

    def read_all(self) -> List[Sample]:
        """Materialise the whole store as a list (the non-streaming path)."""
        return list(self)


def shard_size_for(num_samples: int, shards: int) -> int:
    """Shard size that spreads ``num_samples`` over exactly ``shards`` files."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return max(1, math.ceil(num_samples / shards))
