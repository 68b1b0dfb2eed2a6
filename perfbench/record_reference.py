#!/usr/bin/env python3
"""Record the seed-0 reference outputs the correctness gate compares with.

    python3 perfbench/record_reference.py

Runs one operation of every workload at seed 0, at full and at smoke size,
and rewrites perfbench/reference.json. Run it only on a commit whose outputs
are known good: every later benchmark run at seed 0 fails an operation whose
output differs from what this records.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / "reference"
    workdir.mkdir(exist_ok=True)
    references = {}
    try:
        for size, smoke in (("full", False), ("smoke", True)):
            references[size] = {}
            for name, cls in sorted(workloads.WORKLOADS.items()):
                workload = cls(run.import_docksim(), 0, smoke, workdir)
                output = workload.collect(workload.op())
                problems = workload.check(output)
                if problems:
                    print(f"{name} ({size}): {problems}", file=sys.stderr)
                    return 1
                ref = workload.reference_of(output)
                if ref is not None:
                    references[size][name] = ref
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
