"""Compare two benchmark results written with ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the two results come from different hosts, as
judged by :data:`bench_util.HOST_KEYS`; otherwise prints each shared
metric with the new value as a share of the base.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_util import HOST_KEYS, comparable  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    differ = comparable(base["provenance"], new["provenance"])
    if differ:
        for key in differ:
            print(f"refused: {key} differs: {base['provenance'].get(key)!r} "
                  f"vs {new['provenance'].get(key)!r}", file=sys.stderr)
        print(f"results from different hosts ({', '.join(HOST_KEYS)}) "
              "are not comparable", file=sys.stderr)
        return 2
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            continue
        share = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:<40} {b['value']:>14.6g} {n['value']:>14.6g} {b['unit']:<6} x{share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
