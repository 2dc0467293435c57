"""Time one cold set-up of a workload in this fresh interpreter.

    python3 perfbench/cold_setup.py <workload> <seed>

Set-up is the import of ``strahler`` (and ``strahler.cli``) from ``src/``
next to this directory, which no earlier import in this interpreter has
loaded, plus the workload's input generation.  Prints the seconds taken.
Only this file's imports and the benchmark's ``workloads`` module are loaded
before the clock starts.
"""

import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    if any(m == "strahler" or m.startswith("strahler.") for m in sys.modules):
        raise SystemExit("error: strahler was imported before the clock started")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import strahler
    import strahler.cli

    WORKLOADS[name]().setup(strahler, seed)
    seconds = perf_counter() - start
    if Path(strahler.__file__).resolve().parent != (SRC / "strahler").resolve():
        raise SystemExit(f"error: strahler imported from {strahler.__file__}, not from {SRC}")
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
