"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py

Runs each workload once per seed variant through the CLI and writes
perfbench/references.json.  Re-record only in a change whose purpose is to
change these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, _import_pontus
from workloads import N_VARIANTS, REFERENCES, WORKLOADS, Workload


def main():
    _import_pontus()

    refs = {name: {} for name in WORKLOADS}
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    try:
        for name in WORKLOADS:
            for seed in range(N_VARIANTS):  # seed v is the first seed of variant v
                wl = Workload(name, seed, Path(work_dir), jobs=len(os.sched_getaffinity(0)))
                wl.write_configs()
                for call in wl.calls():
                    if call.key in refs[name]:
                        continue
                    if call.run() != 0:
                        raise SystemExit(f"{name} {call.key}: exit {call.code}\n{call.stderr}")
                    refs[name][call.key] = wl.outputs(call)
                    print(f"recorded {name} {call.key}: {len(refs[name][call.key])} ops",
                          file=sys.stderr)
                if name == "figure_runs":
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
