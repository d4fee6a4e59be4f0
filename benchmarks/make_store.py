"""Write the store a one-sample README quick start leaves.

Usage: python3 benchmarks/make_store.py DIR

Runs `gateforge bench` at V2 with one sample per seed task, replying with
each reference, into DIR/store. The store-less workloads time cold opens
of this store; building it here keeps the build out of their process's
peak memory.
"""

from __future__ import annotations

import sys

from run import load_gateforge


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    gf = load_gateforge()
    import workloads

    root = argv[0]
    script, store = workloads.quick_start_setup(gf, root)
    rc, _, _ = workloads.quick_start(gf, root, script, store, 1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
