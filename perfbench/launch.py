"""Launch ``python -m repro <args>`` with two stamps, for the benchmark.

Usage: ``python perfbench/launch.py STAMP.json <repro arguments...>``

Equivalent to ``python -m repro <arguments>`` except that it writes
``STAMP.json`` with

* ``started`` / ``imported`` -- ``time.monotonic()`` before and right
  after the program's modules for the verb are imported (the end of
  set-up);
* ``finished`` -- ``time.monotonic()`` when the verb returned;
* ``exit`` -- the verb's exit code;
* ``peak_rss_kb`` -- the largest peak RSS of this process and every
  descendant it waited for (pool workers included).

On Linux ``time.monotonic()`` is one system-wide clock, so the parent
subtracts its own launch stamp from these.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    started = time.monotonic()
    stamp_path, argv = sys.argv[1], sys.argv[2:]
    # The modules each verb needs before it does any work.
    if argv and argv[0] == "serve":
        import repro.service.server  # noqa: F401
    else:
        import repro.harness.bench  # noqa: F401
    imported = time.monotonic()
    from repro.cli import main as repro_main

    code = 1
    try:
        code = repro_main(argv)
    finally:
        finished = time.monotonic()
        peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        tmp = stamp_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"started": started, "imported": imported,
                       "finished": finished, "exit": code,
                       "peak_rss_kb": peak}, fh)
        os.replace(tmp, stamp_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
