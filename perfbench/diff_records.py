"""List the ops whose output bytes differ between two benchmark records.

Usage: python3 perfbench/diff_records.py RECORD_A RECORD_B

Records are the JSON files ``run.py`` writes under ``.perfbench/records/``.
An op is listed when the set of its output sha256 values over a record's
samples differs between the two records, or when it ran in only one.  The listing
is informational: byte stability is recorded, not gated.
"""

import json
import sys


def output_hashes(path: str) -> dict[str, set]:
    with open(path) as fh:
        record = json.load(fh)
    return {op["name"]: {r.get("sha256") for r in op["samples"]} for op in record["ops"]}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = (output_hashes(p) for p in sys.argv[1:])
    changed = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    for name in changed:
        print(f"output bytes changed: {name}")
    print(f"{len(changed)} of {len(a.keys() | b.keys())} ops changed bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
