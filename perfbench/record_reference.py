"""Record the seed-0 root sets that the benchmark checks answers against.

Runs the degree_table and system_homotopy cases at seed 0 (the acceptance
inputs) and writes every root's point and Morse data to reference.json.
Re-record only when a change to cshlab is meant to change a root set.

    python3 perfbench/record_reference.py
"""

import json
import os
import sys

from run import SRC, THREAD_ENV


def main() -> None:
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    doc = {}
    for workload in ("degree_table", "system_homotopy"):
        doc[workload] = {}
        for case in workloads.build(workload, 0, None):
            answer = case.run()
            problems = case.check(answer)
            if problems:
                raise SystemExit(f"{case.name}: {problems}")
            roots = answer.roots if workload == "degree_table" else answer.slices[0].roots
            doc[workload][case.name] = {"roots": workloads.reference_roots(roots)}
            print(f"{case.name}: {len(roots)} roots", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
