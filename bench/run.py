"""The fprod benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload catalog|construct|deep --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics:

    setup_s       median over fresh interpreters of importing fprod and
                  fprod.cli and filling the enumeration caches
    wall_s        median wall time of one warm pass over the workload
    slowest_op_s  median over passes of the pass's longest operation
    peak_rss_mb   ru_maxrss of this fresh process after set-up and one pass

With --trace 1 it alternates untraced passes with passes during which
fprod's public functions are wrapped from outside (see tracing.py), and
reports the per-layer metrics in tracing.METRICS, each with the end-to-end
metric it should move, and the tracing overhead. The spans of the last traced
pass go to .bench_work/trace-<workload>.tsv.

Timed passes repeat until another would overrun --seconds; there is always at
least one. Every operation's output is checked against expected.json; the
share that fails is printed as failed_share, counted in the "failed" field of
the last output line, and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time

import harness
import tracing

SETUP_PROBES_PER_PASS = 3
PROBE_TIMEOUT_S = 60
END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MiB"}


class Run:
    """Counts attempted and failed operations across every pass of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.ops = harness.prepare(workload)
        self.expected = harness.load_expected()
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0

    def gate(self, result: harness.PassResult) -> None:
        self.attempted += len(result.outcomes)
        self.failed += harness.count_failures(result, self.expected)

    def passes(self, seconds: float, on_op=None, before=None, after=None, min_passes: int = 1) -> list[harness.PassResult]:
        """Passes until another one would end after `seconds`; at least `min_passes`.

        `before()` and `after(result)` run around each pass, outside its timing.
        """
        results = []
        started = time.perf_counter()
        while True:
            if before is not None:
                before()
            results.append(harness.run_pass(self.ops, self.rng, on_op))
            if after is not None:
                after(results[-1])
            self.gate(results[-1])
            elapsed = time.perf_counter() - started
            if len(results) >= min_passes and elapsed + statistics.median(r.wall_s for r in results) > seconds:
                return results

    def setup_probe(self) -> float:
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "probe.py")],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=harness.ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise harness.SetupError(f"set-up probe exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(run: Run, seconds: float) -> tuple[dict[str, float], list[str]]:
    harness.fill_caches()
    left = tracing.installed_wrappers()
    if left:
        raise harness.SetupError(f"tracing wrappers installed during untraced timing: {left}")
    setups: list[float] = []
    peak_kb: list[int] = []

    def probe_setup() -> None:
        # spread over the run, so that one slow spell of the machine moves few samples
        setups.extend(run.setup_probe() for _ in range(SETUP_PROBES_PER_PASS))

    def after(result: harness.PassResult) -> None:
        if not peak_kb:  # this process is fresh: it has set up and run one pass
            peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB on Linux

    results = run.passes(seconds, before=probe_setup, after=after)
    slowest = max(results[0].outcomes, key=lambda o: o.seconds).op.key
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.wall_s for r in results),
        "slowest_op_s": statistics.median(r.slowest_op_s for r in results),
        "peak_rss_mb": peak_kb[0] / 1024,
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters, {SETUP_PROBES_PER_PASS} before each pass",
        f"wall_s: median of {len(results)} passes of {len(run.ops)} operations: "
        + " ".join(f"{r.wall_s:.3f}" for r in results),
        f"slowest_op_s: median of {len(results)} passes; first pass's slowest: {slowest}",
        "peak_rss_mb: ru_maxrss of this process after set-up and its first pass",
    ]
    return metrics, notes


def traced(run: Run, seconds: float) -> tuple[dict[str, float], list[str]]:
    setup = tracing.Tracer()
    setup.install()
    try:
        harness.fill_caches()
    finally:
        setup.uninstall()
    enumerate_s = tracing.SpanSummary(setup).total_s.get("topology.enumerate_topologies", 0.0)

    # Untraced and traced passes alternate, so that both meet the same spells
    # of a busy machine; each traced pass gets a fresh tracer, and the last
    # one's spans are written out.
    tracer: tracing.Tracer | None = None
    last: tuple[tracing.Tracer, harness.PassResult] | None = None
    untraced: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict[str, float]] = []

    def before() -> None:
        nonlocal tracer
        tracer = tracing.Tracer() if len(untraced) > len(traced_walls) else None
        if tracer is not None:
            tracer.install()
        elif tracing.installed_wrappers():
            raise harness.SetupError("tracing wrappers installed during an untraced pass")

    def on_op(k: int, op: harness.Op) -> None:
        if tracer is not None:
            tracer.request_id = k  # the operation's position in the pass

    def after(result: harness.PassResult) -> None:
        nonlocal last
        if tracer is None:
            untraced.append(result.wall_s)
            return
        tracer.uninstall()
        traced_walls.append(result.wall_s)
        out_bytes = sum(len(o.stdout.encode("utf-8")) for o in result.outcomes)
        per_pass.append(tracing.pass_metrics(tracing.SpanSummary(tracer), len(tracer.distinct), out_bytes))
        last = (tracer, result)

    run.passes(seconds, on_op, before, after, min_passes=2)
    metrics = tracing.median_metrics(per_pass)
    metrics["topology.enumerate_s"] = enumerate_s
    metrics["tracing.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    path = harness.WORK_DIR / f"trace-{run.workload}.tsv"
    last[0].write(path, [o.op.key for o in last[1].outcomes])
    notes = [
        f"{len(untraced)} untraced and {len(traced_walls)} traced passes, alternating; "
        f"per-layer values are medians over traced passes",
        f"spans of the last traced pass: {path.relative_to(harness.ROOT)}",
    ]
    return {name: metrics[name] for name, *_ in tracing.METRICS}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fprod benchmark")
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        harness.import_fprod()
        run = Run(args.workload, args.seed)
        if args.trace:
            metrics, notes = traced(run, args.seconds)
            units = tracing.UNITS
        else:
            metrics, notes = end_to_end(run, args.seconds)
            units = END_TO_END
    except (harness.SetupError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    failed_share = run.failed / run.attempted
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        target = f"  (should move: {tracing.TARGETS[name]})" if args.trace else ""
        print(f"{run.workload} {name} = {shown} {units[name]}{target}")
    print(f"{run.workload} failed_share = {failed_share:.6g} ratio ({run.failed} of {run.attempted} operations)")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
