"""Walk the deep grids of tests/deep_grids.json through the installed `fprod` console
script, and assert that each passes with its instance count.

Each row is the argv of one `fprod verify` run and the instance count its
report must give. The grids are deeper than tier-1 walks (P2.7, P2.8 and
P4.5 take about ten seconds each), so they run outside it:

    python tests/deep_grids.py

exits 0 when every grid exits 0 with a passed report that checked its count,
and 1 otherwise. tests/test_verifier.py plans every row without
walking it and checks the planned count against the same table.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

TABLE = Path(__file__).parent / "deep_grids.json"


def main() -> int:
    fprod = shutil.which("fprod")
    if fprod is None:
        print("no fprod console script on PATH; install the package first", file=sys.stderr)
        return 1
    ok = True
    for row in json.loads(TABLE.read_text(encoding="utf-8")):
        argv, count = row["argv"], row["checked"]
        start = time.perf_counter()
        run = subprocess.run([fprod, *argv, "--json"], capture_output=True, text=True)
        wall = time.perf_counter() - start
        if run.returncode != 0:
            print(f"{' '.join(argv)}: exit {run.returncode}: {run.stderr.strip()}")
            ok = False
            continue
        report = json.loads(run.stdout)["report"]
        good = report["passed"] and report["checked"] == count
        print(f"{' '.join(argv)}: passed={report['passed']}, checked={report['checked']} "
              f"(want {count}), {wall:.1f} s")
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
