"""Write perfbench/goldens.json from the program as it stands.

Run it only at a commit whose outputs are trusted, since every later run is
checked against what it writes:

    python3 perfbench/capture_goldens.py

classify is not pinned here: its gate checks each verdict against the
input's class and re-evaluates every witness, so a fix that turns an
`Unknown` into a certificate still passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    goldens: dict = {"basis": {}, "sweep": {}, "cli": {}}
    for op in workloads.WORKLOADS["basis"](None):
        goldens["basis"][op.label] = workloads.basis_digest(op.run())
        op.reset()
    for op in workloads.WORKLOADS["sweep"](None):
        v = op.run()
        if op.kind == "sample":
            goldens["sweep"][op.label] = float(v.min_eigenvalue_seen).hex()
        else:
            goldens["sweep"][op.label] = v.kind
    for op in workloads.WORKLOADS["cli"](None):
        code, stdout = op.run()
        goldens["cli"][op.label] = {"code": code, "stdout": stdout.decode()}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
