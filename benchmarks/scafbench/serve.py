"""Start a serving process for scafbench, optionally with layer spans.

Two modes, both run from a fresh interpreter so that the time they
report is the cold start a user pays::

    python serve.py [--spans DIR] serve ARGS...
        Install the layer wrappers when --spans is given, then run
        ``repro serve ARGS...`` (the daemon of the daemon-hit workload).

    python serve.py ready [--cache-dir DIR]
        Construct the in-process service the suite and edit-stream
        workloads use, print ``time.monotonic()`` at the moment it is
        constructed, then close it and exit.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

WORKERS = 2


def ready(argv) -> int:
    cache_dir = None
    if argv[:1] == ["--cache-dir"]:
        cache_dir = argv[1]
    from repro.service import DependenceService, ServiceConfig
    service = DependenceService(ServiceConfig(
        workers=WORKERS, executor="process", cache_dir=cache_dir))
    print(repr(time.monotonic()), flush=True)
    service.close()
    return 0


def main(argv) -> int:
    if argv[:1] == ["ready"]:
        return ready(argv[1:])
    if argv[:1] == ["--spans"]:
        import spans
        spans.install(Path(argv[1]))
        argv = argv[2:]
    from repro.cli import main as repro_main
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
