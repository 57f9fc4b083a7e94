"""Record ``reference.json``: the outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Records, for the program at the current source tree, each registry
program's derived-IR fingerprint, pass statuses and block-pass verdict,
and every T-table cell's cache and TLB statistics.  The table cells are
recorded under two seeds, which must agree: the seed draws array data,
and the data is drawn so the access trace does not depend on it.
Record at the commit whose behaviour is the reference, and commit the
file with the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_util import SRC, in_fork  # noqa: E402

sys.path.insert(0, str(SRC))


def compile_reference() -> dict:
    import wl_compile

    wl_compile.setup()
    out = {}
    for name in wl_compile.PROGRAMS:
        got = in_fork(lambda: wl_compile.derive_once(name, False))
        if name == "givens" and not got["matches_fig10"]:
            raise SystemExit("givens derivation differs from Fig. 10")
        out[name] = {k: got[k] for k in ("fingerprint", "statuses", "blocked")}
        print(f"{name}: {got['wall_s']:.2f}s", file=sys.stderr)
    return out


def tables_reference() -> dict:
    import wl_tables

    variants = wl_tables.setup()
    capture = wl_tables.TraceCapture()
    seen: dict = {}
    for seed in (1, 2):
        for cell in wl_tables.cells(seed):
            _, cache, tlb = wl_tables.measure_cell(variants, cell, seed, capture)
            got = {"cache": cache, "tlb": tlb}
            if seen.setdefault(cell["id"], got) != got:
                raise SystemExit(f"{cell['id']}: statistics depend on the seed")
    return seen


def main() -> None:
    doc = {"compile": compile_reference(), "tables": tables_reference()}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
