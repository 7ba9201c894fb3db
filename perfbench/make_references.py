#!/usr/bin/env python3
"""Regenerate references.json: one digest per sweep and grid parameter.

    python3 perfbench/make_references.py [SWEEP ...]

Run it only when fgdist's outputs are meant to change; a change that claims
a speed-up must leave the stored references as they are.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

OUT = HERE / "out"
PATH = HERE / "references.json"


def main(names) -> int:
    OUT.mkdir(exist_ok=True)
    refs = json.loads(PATH.read_text()) if PATH.exists() else {}
    for name in names or workloads.SWEEPS:
        sweep = workloads.SWEEPS[name]
        refs[name] = {}
        for param in sweep.grid:
            csv_text, fit = sweep.output(sweep.run(param, OUT), OUT)
            refs[name][param] = workloads.digest(csv_text, fit)
        print(f"{name}: {len(sweep.grid)} references", flush=True)
        PATH.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
