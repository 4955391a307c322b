"""Set-up probe, run in a fresh interpreter by run.py and timed from outside.

Usage: python3 perfbench/setup_probe.py WORKERS

Imports bicausal from the checkout's src/ and, when WORKERS > 1, starts a
process pool the way run_sweep does and waits until every worker has
answered, then exits.
"""

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

if __name__ == "__main__":
    workers = int(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bicausal  # noqa: F401
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(os.getpid) for _ in range(workers)]:
                future.result()
