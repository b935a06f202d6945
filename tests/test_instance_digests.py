"""Every default grid walks the same instances, in the same order, as when
tests/golden/instance_digests.json was recorded.

An instance count alone misses a generator change that swaps or reorders
instances: that moves the first failing witness and the instances actually
checked. So the golden holds, per registry entry, the count of its default
grid's instances and a SHA-256 over their encoded lines,
json.dumps(_encode(inst), sort_keys=True) each followed by a newline.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fprod.fproduct import grid_walk
from fprod.verifier import _REGISTRY, _encode

GOLDEN = Path(__file__).parent / "golden" / "instance_digests.json"


def instance_digest(check_id: str) -> dict:
    entry = _REGISTRY[check_id]
    digest = hashlib.sha256()
    count = 0
    with grid_walk():
        for inst in entry.instances(entry.default_grid):
            digest.update(json.dumps(_encode(inst), sort_keys=True).encode() + b"\n")
            count += 1
    return {"count": count, "sha256": digest.hexdigest()}


def test_the_golden_names_every_registry_entry():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(_REGISTRY)


@pytest.mark.parametrize("check_id", sorted(_REGISTRY))
def test_default_grid_instance_stream_matches_golden(check_id):
    assert instance_digest(check_id) == json.loads(GOLDEN.read_text())[check_id]
