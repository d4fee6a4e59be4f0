"""Self-test of the benchmark's output checks.

Usage (from the repository root): python3 benchmarks/selftest.py

Feeds each workload's checker genuine output, which must pass, and then
tampered output, which must raise the error share above zero. Exit status
0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import load_gateforge  # noqa: E402


def main() -> int:
    gf = load_gateforge()
    import refnet
    import workloads as w

    cases: list[tuple[str, bool, int, int]] = []   # name, tampered, failed, attempted

    # learn: a results document as the sweep writes it.
    task_dir = Path(gf.taskpack.builtin_task_dir())
    refs = {t: refnet.load_task(str(task_dir / t)) for t in w.SEED_TASKS}
    declared = {t: (m["human_reference"]["gate_count"], m["human_reference"]["delay"])
                for t, (m, _, _) in refs.items()}
    n = 4
    rows = [{"task_id": t, "n": n, "c": n, "best_gate_count": g, "best_delay": d}
            for t, (g, d) in declared.items()]
    good = json.dumps({"tasks": rows})
    attempted = n * len(rows)
    cases.append(("learn genuine", False,
                  w.check_learn_results(good, good, n, declared), attempted))
    one_failed = json.dumps({"tasks": [dict(rows[0], c=n - 1)] + rows[1:]})
    cases.append(("learn c < n", True,
                  w.check_learn_results(one_failed, None, n, declared), attempted))
    larger = json.dumps({"tasks": [dict(rows[0], best_gate_count=99)] + rows[1:]})
    cases.append(("learn best G differs from the reference", True,
                  w.check_learn_results(larger, None, n, declared), attempted))
    cases.append(("learn results file changed between sweeps", True,
                  w.check_learn_results(good + " ", good, n, declared), attempted))

    # evaluate: the plan's own statuses, then one flipped and one missing.
    plan = w.make_plan(1, refs)
    observed = {k: (p.status, p.attempts) for k, p in plan.items()}
    cases.append(("evaluate genuine", False,
                  w.check_statuses(observed, plan), len(plan)))
    key = next(iter(plan))
    flipped = dict(observed)
    flipped[key] = ("failed" if observed[key][0] == "verified" else "verified",
                    observed[key][1])
    cases.append(("evaluate status flipped", True,
                  w.check_statuses(flipped, plan), len(plan)))
    missing = dict(observed)
    del missing[key]
    cases.append(("evaluate sample missing", True,
                  w.check_statuses(missing, plan), len(plan)))

    # oracle: a real network and cover, then broken copies.
    kind = gf.netlist.GateKind
    full = ("and", "or", "not", "xor", "nand")
    sizes = w.formula_sizes(full, w.ORACLE_CAP)
    f = gf.boolopt.BoolFunction(3, 0xAA & 0xCC)          # x0 and x1
    bound = w.formula_bound(sizes, f.table, f.dont_care)
    result = gf.boolopt.min_gate_network(f, frozenset(kind(k) for k in full),
                                         w.ORACLE_CAP)
    cases.append(("oracle network genuine", False,
                  int(not w.check_network(gf, f, full, bound, result)), 1))
    netlist, report = result
    wrong = replace(netlist, gates=tuple(replace(g, kind=kind.OR)
                                         for g in netlist.gates))
    cases.append(("oracle network with a gate changed", True,
                  int(not w.check_network(gf, f, full, bound, (wrong, report))), 1))
    cases.append(("oracle None although a formula fits", True,
                  int(not w.check_network(gf, f, full, bound, None)), 1))
    g = gf.boolopt.BoolFunction(4, 0b1110_1000_1000_0001, 0b0001_0000_0000_0000)
    cover = gf.boolopt.quine_mccluskey(g)
    cases.append(("oracle cover genuine", False, int(not w.check_cover(g, cover)), 1))
    short = replace(cover, cubes=cover.cubes[1:])
    cases.append(("oracle cover with a cube dropped", True,
                  int(not w.check_cover(g, short)), 1))

    ok = True
    for name, tampered, failed, attempted in cases:
        share = failed / attempted
        good_case = share > 0 if tampered else share == 0
        ok &= good_case
        print(f"{'ok  ' if good_case else 'FAIL'} {name:45s} error_share "
              f"{share:.4f} ({failed} of {attempted})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
