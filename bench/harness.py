"""Workloads, passes and the correctness gate of the fprod benchmark.

Every operation is one `fprod` command run in-process through the public
entry point `fprod.cli.main`, with its standard output captured. Load is a
closed loop with a single caller: the next operation starts only after the
previous one returned. The operation lists are fixed by size; the workload
seed only permutes their order within a pass, so reports and gate results are
the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
EXPECTED_FILE = BENCH_DIR / "expected.json"


class SetupError(RuntimeError):
    """The checkout does not hold the fprod sources the benchmark measures."""


def import_fprod():
    """Import fprod from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "fprod" / "__init__.py").is_file():
        raise SetupError(f"no fprod package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fprod
    import fprod.cli

    if Path(fprod.__file__).resolve().parent != (SRC / "fprod").resolve():
        raise SetupError(f"fprod was imported from {fprod.__file__}, not from {SRC}")
    return fprod


def fill_caches() -> None:
    """The enumerations every CLI invocation that walks a grid pays for once."""
    from fprod.topology import enumerate_topologies
    from fprod.uniformity import enumerate_uniformity_bases
    from fprod.verifier import enumerate_filters

    for n in range(1, 5):
        enumerate_topologies(n)
        enumerate_filters(n)
    enumerate_uniformity_bases(2)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Op:
    """One fprod command; `key` names it in the gate data and in traces."""

    key: str
    argv: tuple[str, ...]


PROPS = (
    "E2.9", "P2.1", "P2.10", "P2.3", "P2.5", "P2.7", "P2.8",
    "P3.1", "P4.1", "P4.2", "P4.3", "P4.5", "P5.2", "P5.ind",
)
CLAIMS = (
    "equalizer-dense-for-all-proper-filters",
    "hausdorff-for-all-filters",
    "projection-filter-identity-for-all-filters",
)

_DISCRETE2 = {"points": ["0", "1"], "opens": [["0"], ["1"]]}
_SIERPINSKI = {"points": ["0", "1"], "opens": [["0"], ["0", "1"]]}
_DISCRETE3 = {"points": ["0", "1", "2"], "opens": [["0"], ["1"], ["2"]]}
_DISCRETE_UNIFORM2 = {"points": ["0", "1"], "uniformity_base": [[["0", "0"], ["1", "1"]]]}


def _instance(factor: dict, k: int, pinned: bool) -> dict:
    index_filter = (
        {"generators": [["1"]], "trivial": False}
        if pinned
        else {"generators": [], "trivial": True}
    )
    return {
        "index_set": [str(i + 1) for i in range(k)],
        "factors": [factor] * k,
        "index_filter": index_filter,
    }


def construct_instances() -> dict[str, dict]:
    """Instance files of the `construct` workload, by file stem."""
    out = {}
    for name, factor, k in (
        ("discrete2", _DISCRETE2, 7),
        ("sierpinski", _SIERPINSKI, 8),
        ("discrete3", _DISCRETE3, 4),
    ):
        with_filter = {**factor, "filter": [["0"]]}
        for pinned in (False, True):
            out[f"{name}^{k}-{'pin1' if pinned else 'trivial'}"] = _instance(with_filter, k, pinned)
    for k in (5, 6):
        out[f"uniform2^{k}-trivial"] = _instance(_DISCRETE_UNIFORM2, k, False)
    return out


def _construct_ops() -> list[Op]:
    ops = []
    for stem in construct_instances():
        path = str(WORK_DIR / f"{stem}.json")
        whats = ("f-uniformity",) if stem.startswith("uniform") else ("f-topology", "f-filter")
        for what in whats:
            ops.append(Op(f"construct {what} {stem}", ("construct", "--instance", path, "--what", what)))
    return ops


_DEEP = (
    ("verify", "--prop", "P3.1", "--index-size", "4", "--factors", "discrete3"),
    ("verify", "--prop", "P2.3", "--index-size", "4", "--factors", "discrete2"),
    ("verify", "--prop", "P2.7", "--index-size", "4"),
    ("verify", "--prop", "P4.2", "--index-size", "4"),
    ("search", "--claim", "equalizer-dense-for-all-proper-filters",
     "--index-size", "4", "--factors", "discrete3"),
)

WORKLOADS = ("catalog", "construct", "deep")


def workload_ops(name: str) -> list[Op]:
    """The fixed operation list of a workload, in canonical order."""
    if name == "catalog":
        return [Op(f"verify {p}", ("verify", "--prop", p, "--json")) for p in PROPS] + [
            Op(f"search {c}", ("search", "--claim", c, "--json")) for c in CLAIMS
        ]
    if name == "construct":
        return _construct_ops()
    if name == "deep":
        return [Op(" ".join(argv[:1] + argv[2:]), argv + ("--json",)) for argv in _DEEP]
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


def prepare(name: str) -> list[Op]:
    """Write the workload's input files and return its operations."""
    if name == "construct":
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        for stem, data in construct_instances().items():
            (WORK_DIR / f"{stem}.json").write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return workload_ops(name)


# ---------------------------------------------------------------------------
# passes


@dataclass
class Outcome:
    op: Op
    exit_code: int | None
    stdout: str
    seconds: float


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[Outcome]

    @property
    def slowest_op_s(self) -> float:
        return max(o.seconds for o in self.outcomes)


def run_op(op: Op, main) -> Outcome:
    buf = io.StringIO()
    code: int | None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(op.argv))
    except SystemExit as exc:  # argparse rejects malformed flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        print(f"bench: {op.key} raised {exc!r}", file=sys.stderr)
        code = None
    seconds = time.perf_counter() - started
    return Outcome(op, code, buf.getvalue(), seconds)


def run_pass(ops: list[Op], rng: random.Random, on_op=None) -> PassResult:
    """Run every operation once, in an order drawn from rng; outputs are gated later."""
    from fprod.cli import main

    order = list(ops)
    rng.shuffle(order)
    outcomes = []
    started = time.perf_counter()
    for k, op in enumerate(order):
        if on_op is not None:
            on_op(k, op)
        outcomes.append(run_op(op, main))
    return PassResult(time.perf_counter() - started, outcomes)


# ---------------------------------------------------------------------------
# correctness gate


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _minimal_neighbourhoods(points: list[str], base: list[list[str]]) -> list:
    """Each point with the intersection of the emitted base members through it."""
    order = sorted(points)
    bit = {p: 1 << i for i, p in enumerate(order)}
    masks = [sum(bit[p] for p in member) for member in base]
    full = (1 << len(order)) - 1
    out = []
    for p in order:
        acc = full
        for m in masks:
            if m & bit[p]:
                acc &= m
        out.append([p, [q for q in order if acc & bit[q]]])
    return out


def _minimal_entourage(base: list[list[list[str]]]) -> list:
    rels = [{tuple(pair) for pair in rel} for rel in base]
    return sorted(set.intersection(*rels)) if rels else []


def summarize(op: Op, exit_code: int | None, stdout: str) -> dict:
    """The structure of an operation's result that must not change.

    Presentation is left out: the echoed grid, the order of base members and
    which base presents a structure. A construction is reduced to its
    minimal-neighbourhood vector, filter core or minimal entourage.
    """
    out: dict = {"exit": exit_code}
    body = json.loads(stdout)["report"]
    if op.argv[0] == "construct":
        what = body["what"]
        if what == "f-topology":
            out["points"] = len(body["points"])
            out["minimal_neighbourhoods"] = _digest(_minimal_neighbourhoods(body["points"], body["base"]))
        elif what == "f-filter":
            out["trivial"] = body["trivial"]
            out["core"] = _digest(sorted(body["minimal"]))
        else:
            out["points"] = len(body["points"])
            out["minimal_entourage"] = _digest(_minimal_entourage(body["base"]))
        return out
    out.update(
        passed=body["passed"],
        complete=body["complete"],
        checked=body["checked"],
        witness=None if body["witness"] is None else _digest(body["witness"]),
    )
    return out


def load_expected() -> dict[str, dict]:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def gate(outcome: Outcome, expected: dict[str, dict]) -> str | None:
    """None when the outcome matches the recorded seed result, else the reason."""
    want = expected.get(outcome.op.key)
    if want is None:
        return "no recorded result"
    if outcome.exit_code != want["exit"]:
        return f"exit code {outcome.exit_code}, expected {want['exit']}"
    try:
        got = summarize(outcome.op, outcome.exit_code, outcome.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    if diff:
        return "mismatch in " + ", ".join(f"{k}: {got.get(k)!r} != {want.get(k)!r}" for k in diff)
    return None


def count_failures(result: PassResult, expected: dict[str, dict]) -> int:
    failed = 0
    for outcome in result.outcomes:
        reason = gate(outcome, expected)
        if reason is not None:
            failed += 1
            print(f"bench: FAILED {outcome.op.key}: {reason}", file=sys.stderr)
    return failed


def record_expected() -> None:
    """Rewrite expected.json from one pass of every workload at this commit.

    Only for a commit whose results are known to be right; the gate exists to
    catch every later change of them.
    """
    import_fprod()
    fill_caches()
    expected = {}
    for name in WORKLOADS:
        result = run_pass(prepare(name), random.Random(0))
        for o in result.outcomes:
            expected[o.op.key] = summarize(o.op, o.exit_code, o.stdout)
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/harness.py --record")
    record_expected()
