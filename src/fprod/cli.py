"""Command-line entry point.

Exit codes are a stable contract: 0 for an expected outcome, 1 when a
verification run hits a counterexample or a search finds no witness in its
whole grid, 2 for malformed input, 3 when an instance budget ran out before
the grid was exhausted. Errors go to stderr as one line `error: <code>: <message>`.
JSON output wraps the deterministic body under "report" and puts timing
under "meta" so reports can be compared byte-for-byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Sequence

from . import serialize
from .filters import d_complements_family
from .foundations import InputError, ResourceLimitError, SubsetMask, Universe
from .fproduct import (
    ProductSpec,
    all_projections_continuous,
    f_filter,
    f_topology,
    f_uniformity,
)
from .topology import enumerate_topologies, find_disjoint_dense
from .verifier import (
    FACTOR_PRESETS,
    InstanceGrid,
    default_grid,
    enumerate_filters,
    grid_fields,
    search_counterexample,
    verify_proposition,
)

_CHECK_PROPS = ("hausdorff", "t1", "dense", "resolvable", "continuous-projections")


def _emit(args: argparse.Namespace, body: dict, started: float) -> None:
    if getattr(args, "json", False):
        payload = {"report": body, "meta": {"elapsed_seconds": round(time.monotonic() - started, 6)}}
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = _render_text(body)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_text(body: dict) -> str:
    kind = body.get("kind")
    lines: list[str] = []
    if kind == "verify" or kind == "search":
        if kind == "verify":
            verdict = "PASS" if body["passed"] else "COUNTEREXAMPLE"
        else:
            verdict = "NONE-FOUND" if body["passed"] else "WITNESS-FOUND"
        lines.append(
            f"{'prop' if kind == 'verify' else 'claim'} {body['prop']}: {verdict} "
            f"checked={body['checked']} complete={'yes' if body['complete'] else 'no'}"
        )
        for note in body["degenerate_notes"]:
            lines.append(f"note: {note}")
        if body["witness"] is not None:
            lines.append("witness:")
            lines.append(json.dumps(body["witness"], indent=2, sort_keys=True))
    elif kind == "check":
        lines.append(f"check {body['prop']}: {str(body['verdict']).lower()}")
        for key, value in sorted(body.get("detail", {}).items()):
            if isinstance(value, list) and all(isinstance(v, str) for v in value):
                lines.append(f"{key.replace('_', ' ')}: {' and '.join(value)}")
            else:
                lines.append(f"{key.replace('_', ' ')}: {json.dumps(value, sort_keys=True)}")
    elif kind == "enumerate":
        lines.append(f"{body['what']} of size {body['size']}: {body['count']}")
        if "note" in body:
            lines.append(f"note: {body['note']}")
        for item in body.get("items", []):
            lines.append(f"item: {json.dumps(item, sort_keys=True)}")
    else:
        lines.append(json.dumps(body, indent=2, sort_keys=True))
    return "\n".join(lines)


def _load_instance(path: str) -> ProductSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"instance file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"instance file is not valid JSON: {exc}") from None
    return serialize.parse_instance(data)


def _grid_from_args(args: argparse.Namespace, check_id: str, claim: bool = False) -> InstanceGrid:
    """The check's default grid with the flags applied; a flag the check does not read exits 2."""
    default = default_grid(check_id, claim)
    updates: dict = {}
    if args.index_size is not None:
        updates["index_sizes"] = (args.index_size,)
    if args.factor_size is not None:
        updates["factor_universe_max"] = args.factor_size
    if args.factors is not None:
        updates["factor_source"] = "fixed"
        updates["factor_preset"] = args.factors
    if args.filters is not None:
        if args.filters in ("all", "proper", "trivial"):
            updates["filter_source"] = args.filters
        else:
            updates["filter_source"] = "named"
            updates["named_filters"] = tuple(
                name.strip() for name in args.filters.split(";") if name.strip()
            )
    if args.budget is not None:
        updates["max_instances"] = args.budget
    grid = dataclasses.replace(default, **updates) if updates else default
    unread = sorted(set(updates) - grid_fields(check_id, grid))
    if unread:
        raise InputError(f"{check_id} does not read {', '.join(unread)} from the grid")
    return grid


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    report = verify_proposition(args.prop, _grid_from_args(args, args.prop))
    _emit(args, {**report.to_dict(), "kind": "verify"}, started)
    if not report.complete:
        return 3
    return 0 if report.passed else 1


def _cmd_search(args: argparse.Namespace) -> int:
    started = time.monotonic()
    report = search_counterexample(args.claim, _grid_from_args(args, args.claim, claim=True))
    _emit(args, {**report.to_dict(), "kind": "search"}, started)
    if not report.complete:
        return 3
    return 0 if not report.passed else 1


def _cmd_check(args: argparse.Namespace) -> int:
    started = time.monotonic()
    spec = _load_instance(args.instance)
    prop = args.prop
    detail: dict = {}
    if prop == "continuous-projections":
        verdict = all_projections_continuous(spec)
    else:
        t = f_topology(spec)
        if prop == "hausdorff":
            pair = t.inseparable_pair()
            verdict = pair is None
            if pair is not None:
                detail["inseparable_pair"] = [serialize.product_point_label(x, spec) for x in pair]
        elif prop == "t1":
            verdict = t.is_t1()
        elif prop == "dense":
            if args.set is None:
                raise InputError("check dense needs --set")
            codes = [
                serialize.product_point_from_label(p, spec)
                for p in args.set.split(";")
                if p.strip()
            ]
            mask = SubsetMask.of(spec.indexing.total, codes)
            verdict = t.is_dense(mask)
            points = serialize.product_point_labels(spec)
            detail["set"] = serialize.product_subset_to_labels(mask, points)
        elif prop == "resolvable":
            if args.n is None:
                raise InputError("check resolvable needs --n")
            found = find_disjoint_dense(t, args.n)
            verdict = found is not None
            if found is not None:
                points = serialize.product_point_labels(spec)
                detail["dense_family"] = [
                    serialize.product_subset_to_labels(m, points) for m in found
                ]
        else:
            raise InputError(f"unknown check {prop!r}; known: {_CHECK_PROPS}")
    body = {"kind": "check", "prop": prop, "verdict": verdict, "detail": detail}
    _emit(args, body, started)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    started = time.monotonic()
    spec = _load_instance(args.instance)
    what = args.what
    points = serialize.product_point_labels(spec)

    def labels(mask: SubsetMask) -> list[str]:
        return serialize.product_subset_to_labels(mask, points)

    body: dict = {"kind": "construct", "what": what, "points": points}
    if what == "f-topology":
        t = f_topology(spec)
        body["base"] = [labels(m) for m in t.base]
        if len(points) <= 12:
            body["opens"] = [labels(m) for m in t.opens()]
    elif what == "f-filter":
        fil = f_filter(spec)
        body["trivial"] = fil.trivial
        body["minimal"] = labels(fil.core)
    elif what == "f-uniformity":
        u = f_uniformity(spec)
        body["base"] = [[[points[x], points[y]] for x, y in u.minimal_entourage().pair_list()]]
    else:
        raise InputError(f"unknown construction {what!r}")
    _emit(args, body, started)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    what = args.what
    size = args.size
    body: dict = {"kind": "enumerate", "what": what, "size": size}
    uni = Universe.points(size)
    if what == "filters":
        fils = enumerate_filters(size, include_trivial=True)
        body["count"] = len(fils)
        body["items"] = [serialize.filter_to_dict(f, uni) for f in fils]
    elif what == "topologies":
        topos = enumerate_topologies(size)
        body["count"] = len(topos)
        body["items"] = [
            {"opens": serialize.family_to_json(t.opens(), uni)} for t in topos
        ]
    elif what == "d-complements":
        if args.d is None:
            raise InputError("enumerate d-complements needs --d")
        fam, note = d_complements_family(size, args.d)
        body["count"] = len(fam)
        body["items"] = serialize.family_to_json(fam, uni)
        body["note"] = note
    else:
        raise InputError(f"unknown enumeration {what!r}")
    _emit(args, body, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fprod",
        description="Constructions and exhaustive checks for filter-indexed product "
        "topologies, filters, and uniformities on finite spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a product structure from an instance file")
    p_construct.add_argument("--instance", required=True)
    p_construct.add_argument("--what", required=True,
                             choices=("f-topology", "f-filter", "f-uniformity"))
    p_construct.add_argument("--out")
    p_construct.set_defaults(handler=_cmd_construct, json=True)

    p_check = sub.add_parser("check", help="evaluate a predicate on a constructed product")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--prop", required=True, choices=_CHECK_PROPS)
    p_check.add_argument("--set", help="semicolon-separated product points, e.g. '0,0;1,0'")
    p_check.add_argument("--n", type=int, help="number of disjoint dense sets for resolvable")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--out")
    p_check.set_defaults(handler=_cmd_check)

    p_verify = sub.add_parser("verify", help="run the verifier grid for one proposition")
    p_verify.add_argument("--prop", required=True)
    _add_grid_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_search = sub.add_parser("search", help="search a grid for a counterexample to a claim")
    p_search.add_argument("--claim", required=True)
    _add_grid_flags(p_search)
    p_search.set_defaults(handler=_cmd_search)

    p_enum = sub.add_parser("enumerate", help="print canonical enumerations with counts")
    p_enum.add_argument("--what", required=True,
                        choices=("filters", "topologies", "d-complements"))
    p_enum.add_argument("--size", required=True, type=int)
    p_enum.add_argument("--d", type=int, help="cardinal bound for d-complements")
    p_enum.add_argument("--json", action="store_true")
    p_enum.add_argument("--out")
    p_enum.set_defaults(handler=_cmd_enumerate)

    return parser


def _add_grid_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--index-size", type=int)
    sub_parser.add_argument("--factor-size", type=int)
    sub_parser.add_argument("--factors", choices=FACTOR_PRESETS)
    sub_parser.add_argument(
        "--filters",
        help="'all', 'proper', 'trivial', or semicolon-separated cores like '1;1,2;trivial'",
    )
    sub_parser.add_argument("--budget", type=int, help="instance budget; exceeding it exits 3")
    sub_parser.add_argument("--json", action="store_true")
    sub_parser.add_argument("--out")


_parser: argparse.ArgumentParser | None = None


def _shared_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main() call, not at import.

    Building it costs more than a small command, and in-process callers run
    many commands; parse_args returns a fresh namespace, so reuse keeps no state.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: resource: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
