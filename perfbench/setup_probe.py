"""Time one cold set-up of a benchmark workload and print the seconds.

Set-up is importing cshlab, generating the workload's inputs from the seed
and computing their a priori bounds, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]), workloads.load_reference())
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
