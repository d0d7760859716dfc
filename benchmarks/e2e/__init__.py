"""End-to-end serving benchmark with a per-layer host-time ledger.

Four seeded workloads play through ``ServiceClient`` on a planned,
compiled ``ClusterRouter``; see ``README.md`` in this directory and run
``python -m benchmarks.e2e --help``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def use_checkout_sources() -> bool:
    """Pin one thread and put the checkout's ``src`` first on ``sys.path``.

    Call before anything imports numpy (its BLAS pool sizes itself at
    import).  Returns False when the checkout holds no ``repro`` sources.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True
