"""Build format-2 sharded stores (gzipped-JSONL shards) for reader tests.

The package writes only format-3 (npz) stores, but still reads format 2.
These helpers lay a store out the way the retired JSONL writer did: one
JSON-encoded Sample dict per line in ``shard-NNNNN.jsonl.gz`` files, plus a
manifest stamping each shard's sample count and SHA-256.
"""

import gzip
import json
import os

from repro.datasets.sharded import MANIFEST_NAME, file_sha256, shard_size_for


def write_jsonl_shard(directory, name, samples):
    """Write one gzipped-JSONL shard; return its manifest record."""
    path = os.path.join(directory, name)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for sample in samples:
            json.dump(sample.to_dict(), handle)
            handle.write("\n")
    return {"name": name, "num_samples": len(samples),
            "sha256": file_sha256(path)}


def write_format2_store(samples, path, shards=1, normalizer=None,
                        metadata=None):
    """Spread ``samples`` over ``shards`` JSONL shards at ``path``."""
    samples = list(samples)
    size = shard_size_for(len(samples), shards)
    os.makedirs(path, exist_ok=True)
    records = [write_jsonl_shard(path, f"shard-{index:05d}.jsonl.gz",
                                 samples[start:start + size])
               for index, start in enumerate(range(0, len(samples), size))]
    manifest = {
        "format_version": 2,
        "payload": "jsonl",
        "metadata": dict(metadata or {}),
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "total_samples": len(samples),
        "shards": records,
    }
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return path
