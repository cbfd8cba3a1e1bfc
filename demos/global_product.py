#!/usr/bin/env python3
"""Global bookkeeping: the component count of the equivariant moduli stack
is the product of the local type sets over the branch points.

Runs the `global` subcommand on a three-point configuration mixing the
rank-one series with the SL_4 involutions.
"""

import json
import os
import subprocess
import sys
import tempfile

CONFIG = {
    "schema_version": "1",
    "branch_points": [
        {"name": "x0", "group": {"label": "A", "rank": 1}, "order": 5,
         "action": {"kind": "trivial"}},
        {"name": "x1", "group": {"label": "A", "rank": 3}, "order": 2,
         "action": {"kind": "sl-involution", "variant": "J-prime"}},
        {"name": "x2", "group": {"label": "A", "rank": 1}, "order": 3,
         "action": {"kind": "trivial"}},
    ],
}

print("config:")
print(json.dumps(CONFIG, indent=2))
print()
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    result = subprocess.run(
        [sys.executable, "-m", "parahoric.cli", "global", "--config", path],
        capture_output=True, text=True, check=True,
    )
    print(result.stdout)

    out = subprocess.run(
        [sys.executable, "-m", "parahoric.cli", "global", "--config", path,
         "--format", "json"],
        capture_output=True, text=True, check=True,
    )
parsed = json.loads(out.stdout)
counts = [bp["type_count"] for bp in parsed["branch_points"]]
assert parsed["pi0"] == counts[0] * counts[1] * counts[2] == 3 * 2 * 2
print(f"pi0 = {parsed['pi0']} = {' * '.join(map(str, counts))}")
