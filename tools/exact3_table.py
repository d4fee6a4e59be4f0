"""Build the exact-synthesis table that `boolopt.min_gate_network` reads.

    python tools/exact3_table.py OUT

For each basis in `boolopt.TABLE_BASES` and every fully specified function
of 0..TABLE_MAX_INPUTS inputs, runs the exhaustive search at
SEARCH_MAX_GATES and writes the networks to OUT as JSON. The package's copy
is `src/gateforge/exact3.json`; rebuild it whenever the search changes an
answer. It imports the package from the `src/` beside this script, needs
only the standard library, and writes the same bytes on every run. It
runs in one process, about a minute on a 2-vCPU machine. The format is in
docs/exact_synthesis.md.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from gateforge.boolopt import (  # noqa: E402
    SEARCH_MAX_GATES,
    TABLE_BASES,
    TABLE_MAX_INPUTS,
    BoolFunction,
    _encode_network,
    _search,
)
from gateforge.netlist import GateKind  # noqa: E402


def build() -> dict:
    bases = {}
    for basis in sorted(TABLE_BASES):
        kinds = tuple(GateKind(k) for k in basis.split(","))
        by_arity = []
        for n in range(TABLE_MAX_INPUTS + 1):
            entries = []
            for table in range(1 << (1 << n)):
                found = _search(BoolFunction(n, table), kinds, SEARCH_MAX_GATES)
                entries.append(None if found is None else _encode_network(found))
            by_arity.append(entries)
        bases[basis] = by_arity
    return {"cap": SEARCH_MAX_GATES, "bases": bases}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    text = json.dumps(build(), indent=1, sort_keys=True) + "\n"
    with open(argv[0], "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
