"""The library-only workload, in a process of its own.

    python3 perfbench/batch.py INPUTS_JSON

For each delay of the batch it calls ``stability_verdict``, ``simulate`` and
``classify_dynamics`` and writes no files.  It prints one JSON line with the
records and the wall and CPU seconds of the batch, import excluded.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    inp = workloads.load_inputs(Path(argv[0]).read_text(encoding="utf-8"))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records = workloads.run_batch(inp, workloads.library_api())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    print(json.dumps({"records": records, "wall_s": wall, "cpu_s": cpu}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
