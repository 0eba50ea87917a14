"""Persisting datasets (samples plus their normaliser) to disk.

:func:`save_dataset` writes one format: a **format-3** sharded store
directory (see :mod:`repro.datasets.sharded`) of binary npz shards plus a
manifest.  :func:`load_dataset` reads it and the two retired formats,
which are no longer written:

* **format 1** — one gzipped JSON file (``.json.gz``) holding every sample;
* **format 2** — a sharded store of gzipped-JSONL shards.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
from typing import Iterable, List, Optional, Tuple

from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sample import Sample
from repro.datasets.sharded import (
    MANIFEST_NAME,
    SHARD_EXTENSION,
    ShardedDatasetReader,
    _write_manifest,
    build_manifest,
    is_sharded_store,
    shard_size_for,
    write_shard,
)

__all__ = ["save_dataset", "load_dataset"]


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def save_dataset(samples: Iterable[Sample], path: str,
                 normalizer: Optional[FeatureNormalizer] = None,
                 metadata: Optional[dict] = None,
                 shards: int = 1) -> str:
    """Write ``samples`` (and optionally their normaliser) as a format-3
    store directory at ``path`` spread over ``shards`` shard files.

    Shards are written one chunk at a time through :func:`write_shard`, so
    at most one shard's worth of samples is held at a time, and the
    manifest — written last — is the commit point.  Rewriting an existing
    store is atomic at the manifest: the new shards get a fresh
    ``shard-<token>-`` name prefix so they never collide with a shard the
    live manifest references, and the superseded files are deleted only
    after the new manifest lands.  A failure removes every file this call
    wrote (and the directory, when it created it), so it leaves the old
    store — or nothing — behind.

    Returns the path written.
    """
    # Spreading over exactly N shards needs the sample count up front;
    # sized inputs (lists, readers) are used as-is, only unsized iterators
    # are buffered.
    try:
        count = len(samples)
    except TypeError:
        samples = list(samples)
        count = len(samples)
    size = shard_size_for(count, shards)
    created = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    prefix = (f"shard-{os.urandom(4).hex()}-" if is_sharded_store(path)
              else "shard-")
    stream = iter(samples)
    names: List[str] = []
    records: List[dict] = []
    try:
        while chunk := list(itertools.islice(stream, size)):
            names.append(f"{prefix}{len(names):05d}{SHARD_EXTENSION}")
            records.append(write_shard(path, names[-1], chunk))
        _write_manifest(path, build_manifest(records, normalizer=normalizer,
                                             metadata=metadata))
    except BaseException:
        for name in names:
            _remove_quietly(os.path.join(path, name))
            _remove_quietly(os.path.join(path, name + ".tmp"))
        if created:
            try:
                os.rmdir(path)
            except OSError:
                pass
        raise
    for name in set(os.listdir(path)) - set(names) - {MANIFEST_NAME}:
        if name.startswith("shard-"):
            _remove_quietly(os.path.join(path, name))
    return path


def _resolve_dataset_path(path: str) -> str:
    """The existing dataset path: the exact path first, then ``.json.gz``.

    Checking the given path *first* means a file deliberately named without
    the suffix loads fine, and a missing dataset produces an error naming
    every candidate that was tried rather than a confusing message about a
    suffixed path the user never typed.  Only a loadable exact path — a
    file, or a directory that really is a sharded store — takes precedence:
    a manifest-less directory (e.g. the residue of an aborted sharded
    write) must not shadow a good ``<path>.json.gz`` next to it.
    """
    if os.path.isfile(path) or is_sharded_store(path):
        return path
    if not path.endswith(".json.gz"):
        suffixed = path + ".json.gz"
        if os.path.isfile(suffixed):
            return suffixed
        if os.path.isdir(path):
            raise FileNotFoundError(
                f"'{path}' is a directory but holds no sharded-store manifest "
                f"(and no '{suffixed}' exists)")
        raise FileNotFoundError(
            f"no dataset at '{path}' (also tried '{suffixed}')")
    raise FileNotFoundError(f"no dataset file at '{path}'")


def load_dataset(path: str) -> Tuple[List[Sample], Optional[FeatureNormalizer], dict]:
    """Load a dataset: a format-3 or format-2 store, or a format-1 file.

    Returns ``(samples, normalizer_or_None, metadata)``.  Sharded stores
    are materialised in full here — for out-of-core training iterate a
    :class:`~repro.datasets.sharded.ShardedDatasetReader` (or pass
    ``dataset_path=`` to ``RouteNetTrainer.fit``) instead.
    """
    path = _resolve_dataset_path(path)
    if os.path.isdir(path):
        reader = ShardedDatasetReader(path)
        return reader.read_all(), reader.normalizer, dict(reader.metadata)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("format_version", 1)
    if version != 1:
        raise ValueError(
            f"unsupported dataset format_version {version!r} in '{path}': "
            f"this build reads format 1 (single .json.gz blob), format 2 "
            f"(sharded store, gzipped-JSONL shards) and format 3 (sharded "
            f"store, binary npz shards)")
    samples = [Sample.from_dict(entry) for entry in payload["samples"]]
    normalizer = (FeatureNormalizer.from_dict(payload["normalizer"])
                  if payload.get("normalizer") else None)
    return samples, normalizer, payload.get("metadata", {})
