"""Walk the deep grids of tests/deep_grids.json through `python -m fprod.cli`, and
assert that each passes with its instance count.

Each row is the argv of one `fprod verify` run and the instance count its
report must give. The grids are deeper than tier-1 walks (P2.7, P2.8 and
P4.5 take two to nine seconds each on a shared 2-CPU machine), so they run
outside it, with fprod importable (installed, or from the source tree):

    PYTHONPATH=src python tests/deep_grids.py

exits 0 when every grid exits 0 with a passed report that checked its count,
and 1 otherwise. Each row's line gives its wall time and the peak resident set
of its process, and the last line the total wall time. tests/test_verifier.py
plans every row without walking it and checks the planned count against the
same table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TABLE = Path(__file__).parent / "deep_grids.json"


def run_row(argv: list[str]) -> tuple[int, str, str, float, float]:
    """Exit code, stdout, stderr, wall seconds and peak RSS in MiB of one run.

    The child is reaped by os.wait4, whose rusage is that child's alone; the
    RUSAGE_CHILDREN maximum would carry over from the largest earlier row.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), wall, usage.ru_maxrss / 1024


def main() -> int:
    ok, total = True, 0.0
    for row in json.loads(TABLE.read_text(encoding="utf-8")):
        argv, count = row["argv"], row["checked"]
        code, stdout, stderr, wall, rss = run_row([sys.executable, "-m", "fprod.cli", *argv, "--json"])
        total += wall
        if code != 0:
            print(f"{' '.join(argv)}: exit {code}: {stderr.strip()}")
            ok = False
            continue
        report = json.loads(stdout)["report"]
        good = report["passed"] and report["checked"] == count
        print(f"{' '.join(argv)}: passed={report['passed']}, checked={report['checked']} "
              f"(want {count}), {wall:.2f} s, {rss:.1f} MiB peak RSS")
        ok = ok and good
    print(f"total: {total:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
