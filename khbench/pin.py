"""Write pinned.json: the stdout of every corpus job of every workload.

    python3 khbench/pin.py

Run from the root of a source checkout.  A corpus job passes only if its
stdout matches the pinned text byte for byte, so re-pin only for a change
that alters an output on purpose and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, Runner
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    pinned = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            if job.generated or job.key in pinned:
                continue
            name = job.diagram.split(":", 1)[1]
            r = runner.run(["-m", "pkh.cli", job.cmd, f"src/pkh/corpus_data/{name}.json",
                            *job.args], "job")
            if r["rc"] != 0:
                print(f"{job.key}: exit code {r['rc']}", file=sys.stderr)
                return 1
            pinned[job.key] = r["stdout"]
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
