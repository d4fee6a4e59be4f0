"""Command-line interface.

Subcommands: run (one task), bench (sampled sweep with ablation profiles),
store (inspect / verify / compact / seed the knowledge store), report
(re-render a results file) and tasks (list or validate task packs).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

from .backends import create_backend
from .jsonfields import is_json, json_fields, take_all
from .knowledge import AdmissionError, KnowledgeStore, StoreError
from .metrics import MetricWeights
from .orchestrator import (RunConfig, run_benchmark, run_task, summarize,
                           verify_reference)
from .taskpack import (
    ReferenceMismatchError,
    builtin_task_dir,
    emit_report,
    load_report,
    load_task_packs,
    task_pack_dirs,
)


def _load_config(args, profile: str | None, overrides: dict) -> RunConfig:
    """The run config from --config and the command's own options. A
    --config file that cannot be read, or a value the config refuses, is a
    usage error of the command (exit 2)."""
    try:
        doc: dict = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not is_json(doc, dict):
                raise ValueError("--config must hold a JSON object")
            # RunConfig refuses keys it has no field for.
            take_all(doc, args.config, json_fields(
                RunConfig, weights=(dict[str, float],)))
        weights_doc = doc.pop("weights", None)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        if "pass_ks" in doc:
            doc["pass_ks"] = tuple(doc["pass_ks"])
        if weights_doc:
            doc["weights"] = MetricWeights(**weights_doc)
        if profile:
            return RunConfig.from_profile(profile, **doc)
        return RunConfig(**doc)
    except OSError as exc:
        args.parser.error(f"cannot read --config {args.config}: {exc.strerror}")
    except (TypeError, ValueError) as exc:
        args.parser.error(f"invalid run config: {exc}")


def _load_packs(paths, out) -> tuple[list, int]:
    """The packs at `paths` that load (`load_task_packs`), and how many do
    not; each that does not prints one `<dir> FAIL: <reason>` line to `out`."""
    packs, failures = load_task_packs(paths)
    for path, exc in failures:
        print(f"{path} FAIL: {exc}", file=out)
    return packs, len(failures)


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend",
                   help="scripted:<script.json> or an http(s) chat endpoint "
                        "(may also come from the config file)")
    p.add_argument("--model", help="model identifier for http backends")
    p.add_argument("--config", help="JSON file mirroring the run config")
    p.add_argument("--store", help="knowledge store directory "
                                   "(default: fresh temporary store)")


def _resolve_backend(args, cfg: RunConfig):
    """The backend the selector names. No selector, a script that cannot
    be read or does not hold rules, an unknown selector and an http
    endpoint without a model are usage errors of the command (exit 2)."""
    selector = args.backend or cfg.backend
    if not selector:
        args.parser.error("no backend: pass --backend or set it in the config")
    try:
        return create_backend(selector, args.model or cfg.model)
    except OSError as exc:
        args.parser.error(f"cannot read backend {selector}: {exc.strerror}")
    except ValueError as exc:
        args.parser.error(f"invalid backend: {exc}")


def _pack_dirs(args) -> list[str]:
    """The pack directories under --tasks (default: the built-in set). A
    --tasks that cannot be listed is a usage error (exit 2); one that holds
    no pack ends the command (exit 1)."""
    root = args.tasks or builtin_task_dir()
    try:
        paths = task_pack_dirs(root)
    except OSError as exc:
        args.parser.error(f"cannot read --tasks {root}: {exc.strerror}")
    if not paths:
        raise SystemExit(f"no task packs under {root}")
    return paths


def _store_dir(args) -> contextlib.AbstractContextManager[str]:
    """The --store directory, or a fresh temporary one removed on exit."""
    if args.store:
        return contextlib.nullcontext(args.store)
    return tempfile.TemporaryDirectory(prefix="gateforge-store-")


def _open_store(args, option: str, root: str, create: bool = True,
                verify: bool = True) -> KnowledgeStore:
    """The store in directory `root`, given as `option`. A non-directory, a
    store that does not load, or unless `create` a missing directory or one
    holding no store, is a usage error (exit 2) and creates nothing."""
    try:
        # listdir raises unless root is an existing directory.
        if create or "index.jsonl" in os.listdir(root):
            return KnowledgeStore(root, verify=verify)
        why = "not a store (no index.jsonl)"
    except OSError as exc:
        why = exc.strerror
    except AdmissionError as exc:
        why = f"{exc} (`gateforge store verify --dir {root}` lists all)"
    except StoreError as exc:
        why = str(exc)
    args.parser.error(f"cannot open {option} {root}: {why}")


def _cmd_run(args) -> int:
    cfg = _load_config(args, None, {"samples_per_task": 1})
    loaded, failures = _load_packs([args.task], sys.stderr)
    if failures:
        return 1
    task = loaded[0]
    backend = _resolve_backend(args, cfg)
    with _store_dir(args) as root:
        store = _open_store(args, "--store", root)
        run = run_task(task, cfg, backend, store)
        summarize(task, [run], store)
    print(f"task {task.id}: {run.status} "
          f"(revisions used: {run.revisions_used})")
    if run.result is not None:
        r = run.result
        sei = f"{r.sei:.4f}" if r.sei is not None else "n/a"
        print(f"  G={r.gate_count} D={r.delay} sei={sei}")
    if run.netlist_text and args.emit_netlist:
        print(run.netlist_text, end="")
    if run.error:
        print(f"  error: {run.error}", file=sys.stderr)
    return 0 if run.status == "verified" else 1


def _cmd_bench(args) -> int:
    overrides = {
        "samples_per_task": args.n,
        "pass_ks": tuple(args.k) if args.k else None,
        "workers": args.workers,
    }
    cfg = _load_config(args, args.profile, overrides)
    tasks, failures = _load_packs(_pack_dirs(args), sys.stderr)
    if failures:
        return 1
    backend = _resolve_backend(args, cfg)
    with _store_dir(args) as root:
        store = _open_store(args, "--store", root)
        report = run_benchmark(tasks, cfg, backend, store, profile=args.profile)
    machine = emit_report(report, "machine")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(machine)
        print(f"results written to {args.out}")
    else:
        print(machine, end="")
    if args.table:
        print(emit_report(report, "table"), end="")
    if report.wall_seconds is not None:
        print(f"wall time: {report.wall_seconds:.2f}s", file=sys.stderr)
    return 0


def _cmd_store(args) -> int:
    # `verify` checks every pattern, stamp or no stamp, and lists each bad
    # one instead of failing on the first; a clean store is stamped. Only
    # `seed` creates a store that is not there.
    store = _open_store(args, "--dir", args.dir,
                        create=args.action == "seed",
                        verify=not args.no_verify and args.action != "verify")
    if args.action == "seed":
        try:
            n = store.seed_baseline()
        except StoreError as exc:
            args.parser.error(f"cannot seed --dir {args.dir}: {exc}")
        print(f"seeded {n} baseline entries")
        return 0
    if args.action == "inspect":
        for e in store.entries(include_archived=args.all):
            line = f"#{e.id:<4} {e.kind:15s} {e.name:24s} {e.status}"
            if e.kind == "circuit-pattern":
                sei = f"{e.sei:.4f}" if e.sei is not None else "n/a"
                line += (f"  G={e.gate_count} D={e.delay} sei={sei} "
                         f"io={e.inputs}/{e.outputs} tags={','.join(e.tags)}")
            else:
                line += f"  class={e.error_class}"
            print(line)
        return 0
    if args.action == "verify":
        problems = store.verify_all()
        for p in problems:
            print(f"FAIL {p}")
        print(f"{len(store.entries())} primary entries, "
              f"{len(problems)} problem(s)")
        return 1 if problems else 0
    if args.action == "compact":
        removed = store.compact()
        print(f"removed {removed} archived entr{'y' if removed == 1 else 'ies'}")
        return 0
    raise AssertionError(args.action)


def _cmd_report(args) -> int:
    try:
        with open(args.results, encoding="utf-8") as fh:
            report = load_report(fh.read())
    except OSError as exc:
        args.parser.error(f"cannot read --results {args.results}: "
                          f"{exc.strerror}")
    except ValueError as exc:
        args.parser.error(f"invalid results file: {exc}")
    print(emit_report(report, args.format), end="")
    return 0


def _cmd_tasks(args) -> int:
    packs, failures = _load_packs(_pack_dirs(args), sys.stdout)
    if args.action == "list":
        for t in packs:
            ref = (f"G={t.reference.gate_count} D={t.reference.delay}"
                   if t.reference else "no reference")
            print(f"{t.id:16s} {t.difficulty:8s} {t.circuit_class:14s} {ref}")
        return 1 if failures else 0
    if args.action == "validate":
        for t in packs:
            try:
                result = verify_reference(t)
                print(f"{t.id:16s} ok (G={result.gate_count}, "
                      f"D={result.delay})")
            except ReferenceMismatchError as exc:
                failures += 1
                print(f"{t.id:16s} FAIL: {exc}")
        return 1 if failures else 0
    raise AssertionError(args.action)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gateforge",
        description="Gate-level netlist generation and benchmarking")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one task end to end")
    p.add_argument("--task", required=True, help="task pack directory")
    p.add_argument("--emit-netlist", action="store_true",
                   help="print the verified netlist")
    _add_backend_args(p)
    p.set_defaults(func=_cmd_run, parser=p)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--tasks", help="directory of task packs "
                                   "(default: built-in seed set)")
    p.add_argument("--n", type=int, help="samples per task")
    p.add_argument("--k", type=int, action="append",
                   help="pass@k values (repeatable)")
    p.add_argument("--profile", choices=("V0", "V1", "V2"),
                   help="retrieval ablation profile")
    p.add_argument("--workers", type=int,
                   help="threads shared by the samples of one task; results "
                        "files and store contents are identical for any count")
    p.add_argument("--out", help="write machine-readable results here")
    p.add_argument("--table", action="store_true",
                   help="also print the summary table")
    _add_backend_args(p)
    p.set_defaults(func=_cmd_bench, parser=p)

    p = sub.add_parser("store", help="knowledge store maintenance")
    p.add_argument("action", choices=("seed", "inspect", "verify", "compact"))
    p.add_argument("--dir", required=True, help="store directory")
    p.add_argument("--all", action="store_true",
                   help="include archived entries in inspect")
    p.add_argument("--no-verify", action="store_true",
                   help="skip load-time re-verification of the records "
                        "the store's stamp does not cover")
    p.set_defaults(func=_cmd_store, parser=p)

    p = sub.add_parser("report", help="re-render a results file")
    p.add_argument("--results", required=True)
    p.add_argument("--format", choices=("machine", "table"), default="table")
    p.set_defaults(func=_cmd_report, parser=p)

    p = sub.add_parser("tasks", help="list or validate task packs")
    p.add_argument("action", choices=("list", "validate"))
    p.add_argument("--tasks", help="directory of task packs "
                                   "(default: built-in seed set)")
    p.set_defaults(func=_cmd_tasks, parser=p)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
