"""JSON instance files and report serialization.

Instance schema (all structure kinds optional per factor; a command errors
if a kind it needs is missing):

    {
      "index_set": ["1", "2"],
      "factors": [
        {"points": ["0", "1"],
         "opens": [["0"], ["0", "1"]],
         "filter": [["0"]],
         "uniformity_base": [[["0", "0"], ["1", "1"]]]}
      ],
      "index_filter": {"generators": [["1"]], "trivial": false}
    }

Subsets are arrays of element labels sorted lexicographically; relations are
arrays of [x, y] label pairs. Reports never carry timestamps in their body.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Sequence

from .filters import Filter, generate_filter, trivial_filter
from .foundations import InputError, SetFamily, SubsetMask, Universe
from .fproduct import Factor, ProductSpec
from .topology import Topology, generate_topology
from .uniformity import Relation


# _BYTE_BITS[b] holds the bits of byte b as eight 0/1 bytes, least significant first
_BYTE_BITS = tuple(bytes(b >> i & 1 for i in range(8)) for b in range(256))


def _selected(labels: Sequence[str], bits: int) -> Iterator[str]:
    """The labels at the set bits, in code order: the mask's bytes expand through
    _BYTE_BITS into one 0/1 selector per code, which itertools.compress reads in C."""
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return itertools.compress(labels, b"".join(map(_BYTE_BITS.__getitem__, raw)))


def mask_to_labels(mask: SubsetMask, universe: Universe) -> list[str]:
    return sorted(_selected(universe.labels, mask.bits))


def labels_to_mask(labels: Any, universe: Universe) -> SubsetMask:
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputError(f"a subset must be a list of labels, got {labels!r}")
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate labels in subset {labels!r}")
    return SubsetMask.of(universe.size, (universe.index_of(x) for x in labels))


def family_to_json(fam: SetFamily, universe: Universe) -> list[list[str]]:
    return [mask_to_labels(m, universe) for m in fam.members]


def family_from_json(data: Any, universe: Universe) -> SetFamily:
    if not isinstance(data, list):
        raise InputError("a set family must be a list of subsets")
    return SetFamily.of(universe.size, (labels_to_mask(s, universe) for s in data))


def filter_to_dict(fil: Filter, universe: Universe) -> dict:
    if fil.trivial:
        return {"generators": [], "trivial": True}
    return {"generators": [mask_to_labels(fil.core, universe)], "trivial": False}


def filter_from_dict(data: Any, universe: Universe) -> Filter:
    if not isinstance(data, dict):
        raise InputError("a filter must be an object with generators/trivial")
    unknown = set(data) - {"generators", "trivial"}
    if unknown:
        raise InputError(f"unknown filter keys: {sorted(unknown)}")
    trivial = data.get("trivial", False)
    if not isinstance(trivial, bool):
        raise InputError("filter 'trivial' must be a boolean")
    generators = data.get("generators", [])
    if trivial:
        if generators:
            raise InputError("a trivial filter takes no generators")
        return trivial_filter(universe.size)
    return generate_filter(family_from_json(generators, universe))  # InputError when not a base


def relation_to_pairs(rel: Relation, universe: Universe) -> list[list[str]]:
    return [[universe.labels[x], universe.labels[y]] for x, y in rel.pair_list()]


def relation_from_pairs(data: Any, universe: Universe) -> Relation:
    if not isinstance(data, list):
        raise InputError("a relation must be a list of [x, y] label pairs")
    pairs = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2):
            raise InputError(f"a relation pair must be [x, y], got {item!r}")
        pairs.append((universe.index_of(item[0]), universe.index_of(item[1])))
    return Relation.from_pairs(universe.size, pairs)


def factor_to_dict(factor: Factor) -> dict:
    out: dict = {"points": list(factor.universe.labels)}
    if factor.topology is not None:
        out["opens"] = family_to_json(factor.topology.base, factor.universe)
    if factor.filter is not None:
        out["filter"] = [mask_to_labels(factor.filter.core, factor.universe)]
    if factor.uniformity_base is not None:
        n = factor.universe.size
        out["uniformity_base"] = [
            relation_to_pairs(Relation(n, m), factor.universe)
            for m in factor.uniformity_base.members
        ]
    return out


def factor_from_dict(data: Any) -> Factor:
    if not isinstance(data, dict):
        raise InputError("a factor must be an object")
    unknown = set(data) - {"points", "opens", "filter", "uniformity_base"}
    if unknown:
        raise InputError(f"unknown factor keys: {sorted(unknown)}")
    if "points" not in data:
        raise InputError("a factor needs a 'points' list")
    points = data["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InputError("factor 'points' must be a list of labels")
    universe = Universe(tuple(points))
    topo: Topology | None = None
    if "opens" in data:
        fam = family_from_json(data["opens"], universe)
        topo = generate_topology(fam)  # raises InputError when not a base
    fil: Filter | None = None
    if "filter" in data:
        gens = data["filter"]
        fam = family_from_json(gens, universe)
        if len(fam) == 0:
            raise InputError("a factor filter needs at least one generator")
        fil = generate_filter(fam)
    ubase: SetFamily | None = None
    if "uniformity_base" in data:
        rels = data["uniformity_base"]
        if not isinstance(rels, list) or not rels:
            raise InputError("a factor uniformity base must be a nonempty list of relations")
        masks = [relation_from_pairs(r, universe).pairs for r in rels]
        ubase = SetFamily.of(universe.size ** 2, masks)
    return Factor(universe, topology=topo, filter=fil, uniformity_base=ubase)


def spec_to_dict(spec: ProductSpec) -> dict:
    out: dict = {
        "index_set": list(spec.index_universe.labels),
        "factors": [factor_to_dict(f) for f in spec.factors],
    }
    if spec.index_filter is not None:
        out["index_filter"] = filter_to_dict(spec.index_filter, spec.index_universe)
    return out


def parse_instance(data: Any) -> ProductSpec:
    if not isinstance(data, dict):
        raise InputError("an instance must be a JSON object")
    unknown = set(data) - {"index_set", "factors", "index_filter"}
    if unknown:
        raise InputError(f"unknown instance keys: {sorted(unknown)}")
    if "index_set" not in data or "factors" not in data:
        raise InputError("an instance needs 'index_set' and 'factors'")
    index_set = data["index_set"]
    if not isinstance(index_set, list) or not all(isinstance(x, str) for x in index_set):
        raise InputError("'index_set' must be a list of labels")
    index_universe = Universe(tuple(index_set))
    factors_data = data["factors"]
    if not isinstance(factors_data, list):
        raise InputError("'factors' must be a list")
    parsed: dict[str, Factor] = {}  # one parse per distinct factor, kept for this call only
    factors = []
    for f in factors_data:
        key = repr(f)  # the factor's text: == would take True for 1 and 1.0
        if key not in parsed:
            parsed[key] = factor_from_dict(f)
        factors.append(parsed[key])
    index_filter = None
    if "index_filter" in data and data["index_filter"] is not None:
        index_filter = filter_from_dict(data["index_filter"], index_universe)
    return ProductSpec(index_universe, factors, index_filter)


def product_point_label(code: int, spec: ProductSpec) -> str:
    """The label of one product point: its factor labels in factor order."""
    coords = spec.indexing.decode_point(code)
    parts = [f.universe.labels[c] for f, c in zip(spec.factors, coords)]
    return "(" + ",".join(parts) + ")"


def product_point_from_label(label: str, spec: ProductSpec) -> int:
    raw = label.strip()
    if raw.startswith("(") and raw.endswith(")"):
        raw = raw[1:-1]
    parts = raw.split(",")
    if len(parts) != len(spec.factors):
        raise InputError(f"point {label!r} needs {len(spec.factors)} coordinates")
    coords = [f.universe.index_of(p.strip()) for f, p in zip(spec.factors, parts)]
    return spec.indexing.encode_point(coords)


def product_point_labels(spec: ProductSpec) -> list[str]:
    """Every point's product_point_label in code order, in one pass.

    Factor 0's digit varies fastest, so the product runs over the factors in
    reverse and each coordinate tuple is read back to front.
    """
    columns = [f.universe.labels for f in reversed(spec.factors)]
    return ["(" + ",".join(reversed(coords)) + ")" for coords in itertools.product(*columns)]


def product_subset_to_labels(mask: SubsetMask, points: Sequence[str]) -> list[str]:
    """A product subset as sorted point labels, read from a product_point_labels table."""
    return sorted(_selected(points, mask.bits))


_encode_scalar = json.JSONEncoder().encode


def to_json(value: Any) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte; keys must be str.

    The stdlib uses its C encoder only without indent, so an indented dump
    sends every list item through Python generators. Here a list of strings
    (the labels of a subset) is one join over encode_basestring_ascii, and
    only the containers above it are walked in Python.
    """
    return _indented(value, "\n")


def _indented(value: Any, newline: str) -> str:
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        try:
            body = sep.join(map(encode_basestring_ascii, value))
        except TypeError:  # an item is not a string
            body = sep.join([_indented(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [encode_basestring_ascii(k) + ": " + _indented(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _encode_scalar(value)
