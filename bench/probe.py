"""Set-up time in a fresh interpreter, run as a child of run.py.

Prints {"setup_s": ...}: the time to import fprod and fprod.cli and fill the
enumeration caches, which every fprod command that walks a grid pays.
"""

from __future__ import annotations

import json
import time

import harness

if __name__ == "__main__":
    started = time.perf_counter()
    harness.import_fprod()
    harness.fill_caches()
    print(json.dumps({"setup_s": time.perf_counter() - started}))
