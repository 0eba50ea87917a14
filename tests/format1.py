"""Build format-1 dataset files (one gzipped JSON blob) for reader tests.

The package writes only format-3 (npz) stores, but still reads format 1.
This helper lays a file out the way the retired single-file writer did:
one gzipped JSON object holding the format version, the metadata, the
normaliser and every JSON-encoded Sample dict.
"""

import gzip
import json


def write_format1_file(samples, path, normalizer=None, metadata=None):
    """Write ``samples`` as a format-1 ``.json.gz`` file at ``path``."""
    payload = {
        "format_version": 1,
        "metadata": dict(metadata or {}),
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "samples": [sample.to_dict() for sample in samples],
    }
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path
