import json
import shutil
import tempfile
import time

import pytest
from conftest import store_contents

from gateforge import cli
from gateforge.cli import main
from gateforge.knowledge import AdmissionError, KnowledgeStore
from gateforge.taskpack import (
    TaskSchemaError,
    builtin_task_dir,
    builtin_task_packs,
    discover_task_packs,
)


@pytest.fixture(scope="module")
def script_path(tmp_path_factory):
    tasks = builtin_task_packs()
    doc = {
        "rules": [
            {"contains": f"Task: {t.id}",
             "replies": [f"```\n{t.reference_netlist}```"]}
            for t in tasks
        ],
        "default": ["no idea"],
    }
    path = tmp_path_factory.mktemp("script") / "script.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_tasks_list(capsys):
    assert main(["tasks", "list"]) == 0
    out = capsys.readouterr().out
    assert "full_adder" in out and "seq101" in out


def test_tasks_validate(capsys):
    assert main(["tasks", "validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_tasks_validate_reports_a_mismatch_and_lets_a_bug_propagate(
        capsys, tmp_path, monkeypatch):
    tasks = tmp_path / "tasks"
    shutil.copytree(f"{builtin_task_dir()}/full_adder", tasks / "full_adder")
    ref = tasks / "full_adder" / "reference.nl"
    ref.write_text(ref.read_text().replace("or g5", "and g5"))
    assert main(["tasks", "validate", "--tasks", str(tasks)]) == 1
    out = capsys.readouterr().out
    assert "full_adder" in out and "FAIL" in out
    assert "fails its own testbench" in out

    def broken(task):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "verify_reference", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["tasks", "validate", "--tasks", str(tasks)])


def test_tasks_validate_reports_a_bad_pack_and_checks_the_rest(
        capsys, tmp_path):
    def negative_lsb(meta_path):
        meta = json.loads(meta_path.read_text())
        meta["ports"][0]["lsb"] = -1
        meta_path.write_text(json.dumps(meta))

    def spec_as_directory(meta_path):
        (meta_path.parent / "spec.txt").unlink()
        (meta_path.parent / "spec.txt").mkdir()

    cases = [
        (negative_lsb, "task.json.ports[0].lsb: must be an integer >= 0, "
                       "with a top bit index of at most 18 digits"),
        (spec_as_directory, "spec.txt: cannot be read: Is a directory"),
        (lambda meta_path: meta_path.write_text("{"),
         "task.json: must be valid JSON (line 1 column 2: Expecting "
         "property name enclosed in double quotes)"),
        (lambda meta_path: (meta_path.parent / "spec.txt").write_bytes(
            b"\xff\xfe"),
         "spec.txt: must be UTF-8 text (byte 0: invalid start byte)"),
    ]
    for n, (corrupt, message) in enumerate(cases):
        tasks = tmp_path / str(n) / "tasks"
        for task_id in ("and3", "xnor2"):
            shutil.copytree(f"{builtin_task_dir()}/{task_id}", tasks / task_id)
        corrupt(tasks / "and3" / "task.json")
        assert main(["tasks", "validate", "--tasks", str(tasks)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{tasks / 'and3'} FAIL: {message}",
                         "xnor2            ok (G=2, D=2)"]
        with pytest.raises(TaskSchemaError) as exc:
            discover_task_packs(tasks)
        assert str(exc.value) == f"{tasks / 'and3'}: {message}"


def test_tasks_validate_gives_a_reference_the_reviewers_interface_rule(
        capsys, tmp_path):
    tasks = tmp_path / "tasks"
    shutil.copytree(f"{builtin_task_dir()}/and3", tasks / "and3")
    ref = tasks / "and3" / "reference.nl"
    ref.write_text(ref.read_text().replace("output y)", "output y, output z)")
                   .replace("endmodule", "  assign z = a;\nendmodule"))
    assert main(["tasks", "validate", "--tasks", str(tasks)]) == 1
    assert capsys.readouterr().out == (
        "and3             FAIL: and3: reference rejected: interface mismatch: "
        "[interface] port not in the task interface: output z (1 bit(s), "
        "lsb 0)\n")


@pytest.mark.parametrize("command", ["tasks validate", "tasks list",
                                     "bench"])
def test_a_second_pack_with_one_id_is_refused(capsys, script_path, tmp_path,
                                              command):
    tasks = tmp_path / "tasks"
    for name in ("and3", "and3_copy", "xnor2"):
        shutil.copytree(f"{builtin_task_dir()}/{name.split('_copy')[0]}",
                        tasks / name)
    fail = (f"{tasks / 'and3_copy'} FAIL: task id 'and3' is also the id of "
            f"{tasks / 'and3'}")
    argv = [*command.split(), "--tasks", str(tasks)]
    if command == "bench":
        argv += ["--n", "1", "--backend", f"scripted:{script_path}",
                 "--store", str(tmp_path / "store")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    if command == "tasks validate":
        assert captured.out.splitlines() == [
            fail, "and3             ok (G=2, D=2)",
            "xnor2            ok (G=2, D=2)"]
    elif command == "tasks list":
        assert captured.out.splitlines()[0] == fail
    else:
        assert (captured.out, captured.err) == ("", fail + "\n")
        assert not (tmp_path / "store").exists()
    with pytest.raises(TaskSchemaError) as exc:
        discover_task_packs(tasks)
    assert str(exc.value) == (f"{tasks / 'and3_copy'}: task id 'and3' is also "
                              f"the id of {tasks / 'and3'}")


def test_pass_at_1_is_reported_whichever_ks_a_sweep_ran(
        capsys, script_path, tmp_path):
    out_path = tmp_path / "results.json"
    assert main(["bench", "--backend", f"scripted:{script_path}",
                 "--n", "3", "--k", "3", "--profile", "V0",
                 "--out", str(out_path), "--table"]) == 0
    table = capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert [(t["c"], t["pass_at"]) for t in doc["tasks"]] == [
        (3, {"3": 1.0})] * 9
    assert doc["difficulty_pass_at_1"] == {
        "easy": 1.0, "hard": 1.0, "medium": 1.0}
    assert "pass@1=1.000" in table and "nan" not in table
    metric_line = next(line for line in table.splitlines()
                       if line.startswith("pass@1 "))
    assert metric_line.split()[1:] == ["1.000"] * 4


def test_report_skips_the_pass_at_1_of_a_row_no_sweep_can_give(
        capsys, tmp_path):
    doc = json.loads(json.dumps(RESULTS))
    good = doc["tasks"][0]
    doc["tasks"] = [good, good | {"task_id": "empty", "n": 0, "c": 0},
                    good | {"task_id": "overcount", "n": 2, "c": 3},
                    good | {"task_id": "three", "n": 3, "c": 1,
                            "pass_at": {"3": 1.0}}]
    path = tmp_path / "results.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--results", str(path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    pass_at_1 = {line.split()[0]: line.split()[3]
                 for line in captured.out.splitlines() if "c/n=" in line}
    assert pass_at_1 == {"xnor2": "pass@1=1.000", "empty": "pass@1=-",
                         "overcount": "pass@1=-", "three": "pass@1=0.333"}
    # The overall pass@1 is the mean of the two rows that have one.
    metric_line = next(line for line in captured.out.splitlines()
                       if line.startswith("pass@1 "))
    assert metric_line.split()[-1] == "0.667"


def test_report_computes_each_difficulty_column_from_the_rows(capsys,
                                                              tmp_path):
    # An older sweep that ran without k=1 stored pass@1 as 0.0 per difficulty.
    doc = json.loads(json.dumps(RESULTS))
    good = doc["tasks"][0] | {"n": 3, "c": 3, "pass_at": {"3": 1.0}}
    doc["tasks"] = [good, good | {"task_id": "mux2", "c": 1},
                    good | {"task_id": "alu1", "difficulty": "hard", "c": 0,
                            "pass_at": {"3": 0.0}, "best_gate_count": None,
                            "best_delay": None, "best_sei": None,
                            "status": "failed"}]
    doc["difficulty_pass_at_1"] = {"easy": 0.0, "hard": 0.0}
    doc["difficulty_sei"] = {"easy": 0.0, "hard": 0.5}
    path = tmp_path / "results.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--results", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:3]] == [
        ["metric", "easy", "hard", "overall"],
        ["pass@1", "0.667", "0.000", "0.444"],
        ["sei", "0.2500", "0.0000", "0.2500"]]


@pytest.mark.parametrize("command", ["run", "bench", "tasks list"])
def test_a_bad_pack_is_one_fail_line_not_a_traceback(
        capsys, script_path, tmp_path, command):
    tasks = tmp_path / "tasks"
    for task_id in ("and3", "xnor2"):
        shutil.copytree(f"{builtin_task_dir()}/{task_id}", tasks / task_id)
    (tasks / "and3" / "task.json").write_text("{")
    fail = (f"{tasks / 'and3'} FAIL: task.json: must be valid JSON (line 1 "
            "column 2: Expecting property name enclosed in double quotes)")
    backend = ["--backend", f"scripted:{script_path}",
               "--store", str(tmp_path / "store")]
    if command == "run":
        assert main(["run", "--task", str(tasks / "and3"), *backend]) == 1
    elif command == "bench":
        assert main(["bench", "--tasks", str(tasks), "--n", "1",
                     *backend]) == 1
    else:
        assert main(["tasks", "list", "--tasks", str(tasks)]) == 1
    captured = capsys.readouterr()
    if command == "tasks list":
        assert captured.out.splitlines() == [
            fail, "xnor2            easy     combinational  G=2 D=2"]
    else:
        assert (captured.out, captured.err) == ("", fail + "\n")
    assert not (tmp_path / "store").exists()


def test_run_single_task(capsys, script_path, tmp_path):
    rc = main(["run", "--task", f"{builtin_task_dir()}/full_adder",
               "--backend", f"scripted:{script_path}",
               "--store", str(tmp_path / "store"), "--emit-netlist"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "module full_adder" in out


@pytest.mark.parametrize("task_id", [t.id for t in builtin_task_packs()])
def test_run_and_bench_learn_the_same_entries(capsys, script_path, tmp_path,
                                              task_id):
    pack = f"{builtin_task_dir()}/{task_id}"
    assert main(["run", "--task", pack, "--backend", f"scripted:{script_path}",
                 "--store", str(tmp_path / "run")]) == 0
    shutil.copytree(pack, tmp_path / "tasks" / task_id)
    assert main(["bench", "--tasks", str(tmp_path / "tasks"), "--n", "1",
                 "--backend", f"scripted:{script_path}",
                 "--store", str(tmp_path / "bench")]) == 0
    run_records, run_patterns = store_contents(tmp_path / "run")
    bench_records, bench_patterns = store_contents(tmp_path / "bench")
    assert run_records
    # Provenance names the command: `run` leaves no run id, `bench` "bench".
    assert {rec.pop("run_id") for rec in run_records} == {""}
    assert {rec.pop("run_id") for rec in bench_records} == {"bench"}
    assert run_records == bench_records
    assert run_patterns == bench_patterns


def test_a_store_is_an_index_and_its_stamp(capsys, script_path, tmp_path):
    """Every command that writes a store leaves the log and its stamp, and
    no temporary file."""
    pack = f"{builtin_task_dir()}/full_adder"
    shutil.copytree(pack, tmp_path / "tasks" / "full_adder")
    backend = ["--backend", f"scripted:{script_path}"]
    assert main(["run", "--task", pack, *backend,
                 "--store", str(tmp_path / "run")]) == 0
    assert main(["bench", "--tasks", str(tmp_path / "tasks"), "--n", "2",
                 *backend, "--store", str(tmp_path / "bench")]) == 0
    assert main(["store", "seed", "--dir", str(tmp_path / "seed")]) == 0
    assert main(["store", "compact", "--dir", str(tmp_path / "bench")]) == 0
    for name in ("run", "bench", "seed"):
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
            "index.jsonl", "index.verified"]


def edit_first_record(index, **fields):
    """Rewrite the first record of the log `index` with `fields` set."""
    first, rest = index.read_text().split("\n", 1)
    index.write_text(json.dumps({**json.loads(first), **fields}) + "\n"
                     + rest)


def test_run_and_bench_remove_their_temporary_store(capsys, script_path,
                                                    tmp_path, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    pack = f"{builtin_task_dir()}/xnor2"
    assert main(["run", "--task", pack,
                 "--backend", f"scripted:{script_path}"]) == 0
    shutil.copytree(pack, tmp_path / "tasks" / "xnor2")
    assert main(["bench", "--tasks", str(tmp_path / "tasks"), "--n", "1",
                 "--backend", f"scripted:{script_path}"]) == 0
    assert list(temp.iterdir()) == []


def test_run_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"default": ["nope"]}))
    rc = main(["run", "--task", f"{builtin_task_dir()}/xnor2",
               "--backend", f"scripted:{bad}",
               "--store", str(tmp_path / "store")])
    assert rc == 1


def test_bench_writes_results_and_report_rerenders(capsys, script_path,
                                                   tmp_path):
    out_path = tmp_path / "results.json"
    rc = main(["bench", "--backend", f"scripted:{script_path}",
               "--n", "2", "--k", "1", "--k", "2", "--profile", "V2",
               "--store", str(tmp_path / "store"),
               "--out", str(out_path), "--table"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "pass@1" in table and "tier:" in table
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert len(doc["tasks"]) >= 9
    assert doc["config"]["profile"] == "V2"

    rc = main(["report", "--results", str(out_path), "--format", "table"])
    assert rc == 0
    assert "pass@1" in capsys.readouterr().out


def test_store_subcommands(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    assert main(["store", "seed", "--dir", store_dir]) == 0
    assert main(["store", "inspect", "--dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "half_adder" in out
    assert main(["store", "verify", "--dir", store_dir]) == 0
    assert main(["store", "compact", "--dir", store_dir]) == 0
    # A pattern record without an index is valid; only verification
    # refuses it, so an unverified inspect shows it.
    edit_first_record(tmp_path / "store" / "index.jsonl", sei=None)
    capsys.readouterr()
    assert main(["store", "inspect", "--no-verify", "--dir", store_dir]) == 0
    assert "sei=n/a" in capsys.readouterr().out.split("\n")[0]


def test_store_verify_stamps_a_clean_store_and_inspect_writes_nothing(
        capsys, tmp_path):
    store_dir = tmp_path / "store"
    stamp = store_dir / "index.verified"
    assert main(["store", "seed", "--dir", str(store_dir)]) == 0
    stamped = stamp.read_bytes()
    stamp.unlink()
    assert main(["store", "inspect", "--dir", str(store_dir)]) == 0
    assert not stamp.exists()
    assert main(["store", "verify", "--dir", str(store_dir)]) == 0
    assert stamp.read_bytes() == stamped
    assert main(["store", "inspect", "--dir", str(store_dir)]) == 0
    assert stamp.read_bytes() == stamped
    # A store with a problem is not stamped.
    edit_first_record(store_dir / "index.jsonl",
                      netlist_text="module broken;\n")
    stamp.unlink()
    assert main(["store", "verify", "--dir", str(store_dir)]) == 1
    assert not stamp.exists()


def test_store_verify_lists_problems_instead_of_failing_at_load(
        capsys, tmp_path):
    store_dir = tmp_path / "store"
    assert main(["store", "seed", "--dir", str(store_dir)]) == 0
    capsys.readouterr()
    edit_first_record(store_dir / "index.jsonl",
                      netlist_text="module broken;\n")
    assert main(["store", "verify", "--dir", str(store_dir)]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL ") == 1
    assert "no longer parses" in out
    assert "1 problem(s)" in out


def test_a_forged_signature_kind_is_refused_at_open_and_listed(capsys,
                                                              tmp_path):
    store_dir = tmp_path / "store"
    assert main(["store", "seed", "--dir", str(store_dir)]) == 0
    edit_first_record(store_dir / "index.jsonl", signature_kind="sampled")
    with pytest.raises(AdmissionError, match="^and2: stored signature_kind "
                       "'sampled' does not match measured 'exact'$"):
        KnowledgeStore(store_dir)
    capsys.readouterr()
    assert main(["store", "verify", "--dir", str(store_dir)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL ")]
    assert len(fails) == 1 and fails[0].startswith("FAIL and2: ")


def test_identical_sweeps_leave_identical_bytes_across_a_clock_change(
        script_path, tmp_path, monkeypatch):
    """The quick-start sweep, three times into fresh stores, each under
    another wall clock, the last on four workers: the index and the
    results file must be the same bytes every time."""
    gmtime = time.gmtime
    outputs = []
    for name, clock, workers in (("a", 0, 1), ("b", 86_400, 1),
                                 ("c", 172_800, 4)):
        monkeypatch.setattr(time, "gmtime",
                            lambda secs=None, at=clock: gmtime(at))
        store, out = tmp_path / f"store-{name}", tmp_path / f"{name}.json"
        assert main(["bench", "--backend", f"scripted:{script_path}",
                     "--n", "3", "--profile", "V2",
                     "--workers", str(workers), "--store", str(store),
                     "--out", str(out)]) == 0
        outputs.append(((store / "index.jsonl").read_bytes(),
                        out.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_config_file_round_trip(capsys, script_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "samples_per_task": 1,
        "max_revisions": 1,
        "weights": {"alpha": 1.0, "beta": 1.0},
    }))
    out_path = tmp_path / "r.json"
    rc = main(["bench", "--backend", f"scripted:{script_path}",
               "--config", str(cfg), "--store", str(tmp_path / "store"),
               "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["max_revisions"] == 1
    assert doc["config"]["samples_per_task"] == 1


def test_backend_selector_from_config_file(capsys, script_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "samples_per_task": 1,
        "backend": f"scripted:{script_path}",
    }))
    rc = main(["run", "--task", f"{builtin_task_dir()}/xnor2",
               "--config", str(cfg), "--store", str(tmp_path / "store")])
    assert rc == 0
    assert "verified" in capsys.readouterr().out


@pytest.mark.parametrize("command,args,config,message", [
    ("bench", ["--n", "1", "--k", "5"], None,
     "every k must satisfy 1 <= k <= samples_per_task"),
    ("bench", ["--k", "0"], None,
     "every k must satisfy 1 <= k <= samples_per_task"),
    ("bench", ["--n", "0"], None, "samples_per_task must be >= 1"),
    ("bench", ["--workers", "0"], None, "workers must be >= 1"),
    ("bench", ["--profile", "V2"], {"retrieval_limit": 0},
     "retrieval_limit must be >= 1"),
    ("bench", [], {"max_prompt_chars": 0}, "max_prompt_chars must be >= 1"),
    ("run", [], {"max_tokens": 0}, "max_tokens must be >= 1"),
    ("bench", [], {"temperature": -1}, "temperature must be >= 0"),
    ("bench", [], {"weights": {"alpha": 0}},
     "alpha, beta and epsilon must be positive"),
    ("run", [], {"weights": {"alpha": 0}},
     "alpha, beta and epsilon must be positive"),
    ("run", [], {"samples_per_tsk": 3},
     "unexpected keyword argument 'samples_per_tsk'"),
    ("bench", [], [1], "--config must hold a JSON object"),
    ("run", [], {"temperature": "hot"}, "temperature: must be a number"),
    ("bench", [], {"pass_ks": [True]}, "pass_ks: must be a list of integers"),
], ids=["k-above-n", "k-zero", "n-zero", "workers-zero",
        "retrieval-limit-zero", "max-prompt-chars-zero", "max-tokens-zero",
        "temperature-negative", "bench-weights", "run-weights", "unknown-key",
        "not-an-object", "temperature-string", "pass-ks-bool"])
def test_bad_run_config_values_are_usage_errors(
        capsys, script_path, tmp_path, command, args, config, message):
    argv = [command, "--backend", f"scripted:{script_path}",
            "--store", str(tmp_path / "store"), *args]
    if command == "run":
        argv += ["--task", f"{builtin_task_dir()}/xnor2"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge {command}: error: invalid run config: " in err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("config,reason", [
    ("missing.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing", "directory"])
def test_an_unreadable_config_file_is_a_usage_error(
        capsys, script_path, tmp_path, command, config, reason):
    config = str(tmp_path / config)
    argv = [command, "--backend", f"scripted:{script_path}",
            "--store", str(tmp_path / "store"), "--config", config]
    if command == "run":
        argv += ["--task", f"{builtin_task_dir()}/xnor2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge {command}: error: cannot read --config {config}: " \
        f"{reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "store").exists()


TASKS_COMMANDS = ["bench", "tasks list", "tasks validate"]


@pytest.mark.parametrize("command", TASKS_COMMANDS)
@pytest.mark.parametrize("tasks,reason", [
    ("missing", "No such file or directory"),
    ("file.txt", "Not a directory"),
], ids=["missing", "file"])
def test_an_unlistable_tasks_dir_is_a_usage_error(
        capsys, script_path, tmp_path, command, tasks, reason):
    (tmp_path / "file.txt").write_text("not a directory")
    tasks = str(tmp_path / tasks)
    argv = [*command.split(), "--tasks", tasks]
    if command == "bench":
        argv += ["--backend", f"scripted:{script_path}",
                 "--store", str(tmp_path / "store")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge {command.split()[0]}: error: cannot read --tasks " \
        f"{tasks}: {reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command", TASKS_COMMANDS)
def test_a_tasks_dir_without_packs_ends_the_command(
        capsys, tmp_path, command):
    (tmp_path / "notes").mkdir()
    # bench has no backend: it must stop on the packs before resolving one.
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--tasks", str(tmp_path)])
    assert exc.value.code == f"no task packs under {tmp_path}"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("script,backend,message", [
    (None, "scripted:{tmp}/missing.json",
     "cannot read backend scripted:{tmp}/missing.json: "
     "No such file or directory"),
    ("{", "scripted:{tmp}/script.json",
     "invalid backend: Expecting property name enclosed in double quotes"),
    ("[]", "scripted:{tmp}/script.json",
     "invalid backend: script {tmp}/script.json must hold a JSON object"),
    ('{"rules": [{"contains": "x"}]}', "scripted:{tmp}/script.json",
     "invalid backend: script {tmp}/script.json: rules[0] needs a "
     "'replies' list"),
    ('{"default": "no idea"}', "scripted:{tmp}/script.json",
     "invalid backend: script {tmp}/script.json: 'default' must be a list"),
    ('{"rules": [{"contains": 5, "replies": ["x"]}]}',
     "scripted:{tmp}/script.json", "invalid backend: script "
     "{tmp}/script.json: rules[0] needs a 'contains' string or null"),
    ('{"rules": [{"replies": [7]}]}', "scripted:{tmp}/script.json",
     "invalid backend: script {tmp}/script.json: rules[0] needs a "
     "'replies' list of strings"),
    ('{"identity": ["a"], "default": []}', "scripted:{tmp}/script.json",
     "invalid backend: script {tmp}/script.json: 'identity' must be a "
     "string"),
    (None, "carrier-pigeon:coop",
     "invalid backend: unknown backend selector: carrier-pigeon:coop"),
    (None, "http://localhost:9/v1",
     "invalid backend: http backends need a model identifier"),
], ids=["missing-script", "unparsable-script", "list-script",
        "rule-without-replies", "default-not-a-list", "contains-integer",
        "reply-integer", "identity-list", "unknown-selector",
        "http-without-model"])
def test_bad_backend_selectors_are_usage_errors(
        capsys, tmp_path, command, script, backend, message):
    if script is not None:
        (tmp_path / "script.json").write_text(script)
    argv = [command, "--backend", backend.format(tmp=tmp_path),
            "--store", str(tmp_path / "store")]
    if command == "run":
        argv += ["--task", f"{builtin_task_dir()}/xnor2"]
    else:
        argv += ["--n", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge {command}: error: {message.format(tmp=tmp_path)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command", ["run", "bench"])
def test_no_backend_anywhere_is_a_usage_error(capsys, tmp_path, command):
    argv = [command, "--store", str(tmp_path / "store")]
    if command == "run":
        argv += ["--task", f"{builtin_task_dir()}/xnor2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge {command}: error: no backend: pass --backend or set " \
        "it in the config" in err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("results,reason", [
    ("missing.json", "cannot read --results {path}: No such file or "
                     "directory"),
    (".", "cannot read --results {path}: Is a directory"),
], ids=["missing", "directory"])
def test_an_unreadable_results_file_is_a_usage_error(
        capsys, tmp_path, results, reason):
    path = str(tmp_path / results)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--results", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge report: error: {reason.format(path=path)}" in err
    assert "Traceback" not in err


RESULTS = {
    "schema_version": 1, "config": {"backend": "scripted"},
    "tasks": [{"task_id": "xnor2", "difficulty": "easy", "n": 1, "c": 1,
               "pass_at": {"1": 1.0}, "best_gate_count": 2, "best_delay": 2,
               "best_sei": 0.25, "status": "verified", "errors": 0}],
    "difficulty_pass_at_1": {"easy": 1.0}, "difficulty_sei": {"easy": 0.25},
    "overall_sei": 0.25,
    "tier": {"tier": "top", "benchmark_sei": 0.25, "in_gap": False,
             "bands": {"top": [0.2, 1.0]}},
}


def results_with(path: str, value) -> bytes:
    """RESULTS as a file's bytes, with the field at `path` (keys and list
    indices joined by '/') set to `value`."""
    doc = json.loads(json.dumps(RESULTS))
    *parents, last = [int(k) if k.isdigit() else k for k in path.split("/")]
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc).encode()


@pytest.mark.parametrize("content,reason", [
    (b"{", "Expecting property name enclosed in double quotes"),
    (b"[]", "must hold a JSON object"),
    (b'{"schema_version": 0}', "unsupported report schema version"),
    (b'{"schema_version": 1}', "missing or malformed field: 'tasks'"),
    (b'{"schema_version": 1, "tasks": [1]}', "missing or malformed field: "),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
    (results_with("tasks/0/best_sei", "x"), "missing or malformed field: "
     "'tasks[0].best_sei' must be a number or null"),
    (results_with("overall_sei", "x"),
     "missing or malformed field: 'overall_sei' must be a number"),
    (results_with("difficulty_pass_at_1/easy", "x"), "missing or malformed "
     "field: 'difficulty_pass_at_1' must be an object of numbers"),
    (results_with("difficulty_pass_at_1", [1.0]), "missing or malformed "
     "field: 'difficulty_pass_at_1' must be an object of numbers"),
    (results_with("tasks/0/pass_at/1", "x"), "missing or malformed field: "
     "'tasks[0].pass_at' must be an object of numbers"),
    (results_with("schema_version", True),
     "missing or malformed field: 'schema_version' must be an integer"),
    (results_with("tasks/0/pass_at", {"x": 1.0}), "missing or malformed "
     "field: 'tasks[0].pass_at' must be an object of numbers keyed by "
     "integers"),
], ids=["unparsable", "list", "old-schema", "no-tasks", "task-not-an-object",
        "not-utf-8", "best-sei-string", "overall-sei-string",
        "difficulty-pass-string", "difficulty-pass-list", "pass-at-string",
        "schema-version-bool", "pass-at-key-not-an-integer"])
def test_a_file_that_is_not_a_results_file_is_a_usage_error(
        capsys, tmp_path, content, reason):
    path = tmp_path / "results.json"
    path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--results", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge report: error: invalid results file: {reason}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench"])
def test_a_store_path_that_is_a_file_is_a_usage_error(
        capsys, script_path, tmp_path, command):
    store = tmp_path / "store.txt"
    store.write_text("not a directory")
    argv = [command, "--backend", f"scripted:{script_path}",
            "--store", str(store)]
    if command == "run":
        argv += ["--task", f"{builtin_task_dir()}/xnor2"]
    else:
        argv += ["--n", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge {command}: error: cannot open --store {store}: " \
        "Not a directory" in err
    assert "Traceback" not in err
    assert store.read_text() == "not a directory"


@pytest.mark.parametrize("action", ["seed", "inspect", "verify", "compact"])
def test_a_store_dir_that_is_a_file_is_a_usage_error(capsys, tmp_path,
                                                     action):
    store = tmp_path / "store.txt"
    store.write_text("not a directory")
    with pytest.raises(SystemExit) as exc:
        main(["store", action, "--dir", str(store)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge store: error: cannot open --dir {store}: " \
        "Not a directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("action", ["inspect", "verify", "compact"])
def test_only_seed_creates_a_missing_store_dir(capsys, tmp_path, action):
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(["store", action, "--dir", str(store)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge store: error: cannot open --dir {store}: " \
        "No such file or directory" in err
    assert not store.exists()
    assert main(["store", "seed", "--dir", str(store)]) == 0
    assert main(["store", action, "--dir", str(store)]) == 0


@pytest.mark.parametrize("action", ["inspect", "verify", "compact"])
@pytest.mark.parametrize("content", [[], ["notes.txt"]])
def test_a_directory_without_a_store_is_a_usage_error(capsys, tmp_path,
                                                      action, content):
    store = tmp_path / "store"
    store.mkdir()
    for name in content:
        (store / name).write_text("not a store")
    with pytest.raises(SystemExit) as exc:
        main(["store", action, "--dir", str(store)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge store: error: cannot open --dir {store}: " \
        "not a store (no index.jsonl)" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in store.iterdir()) == content


def open_store_argv(command, store, script_path):
    """A command that opens `store` (as --dir or --store) and learns."""
    if command == "inspect":
        return ["store", "inspect", "--dir", str(store)], "--dir"
    argv = [command, "--backend", f"scripted:{script_path}",
            "--store", str(store)]
    if command == "run":
        argv += ["--task", f"{builtin_task_dir()}/xnor2"]
    else:
        argv += ["--n", "1"]
    return argv, "--store"


@pytest.mark.parametrize("command", ["inspect", "run", "bench"])
def test_an_unparsable_index_is_a_usage_error(capsys, script_path, tmp_path,
                                              command):
    store = tmp_path / "store"
    store.mkdir()
    (store / "index.jsonl").write_text("garbage\n{}\n")
    argv, option = open_store_argv(command, store, script_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: cannot open {option} {store}: " \
        f"{store / 'index.jsonl'}:1: unparsable index record" in err
    assert "Traceback" not in err
    assert (store / "index.jsonl").read_text() == "garbage\n{}\n"


@pytest.mark.parametrize("field,value,need", [
    ("sei", "high", "a number or null"),
    ("tags", 5, "a list of strings"),
    ("kind", 7, "'circuit-pattern' or 'error-fix'"),
    ("kind", "weird", "'circuit-pattern' or 'error-fix'"),
    ("signature_kind", "weird",
     "'exact' or 'sampled' or 'sequential' or null"),
    ("name", 3, "a string"),
    ("status", "weird", "'primary' or 'archived'"),
], ids=["sei-string", "tags-integer", "kind-integer", "kind-unknown",
        "signature_kind-unknown", "name-integer", "status-unknown"])
def test_a_wrong_typed_index_record_is_a_usage_error(capsys, tmp_path, field,
                                                     value, need):
    store = tmp_path / "store"
    assert main(["store", "seed", "--dir", str(store)]) == 0
    index = store / "index.jsonl"
    edit_first_record(index, **{field: value})
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["store", "inspect", "--dir", str(store)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge store: error: cannot open --dir {store}: {index}:1: " \
        f"invalid index record: {field}: must be {need}" in err
    assert "Traceback" not in err


def test_a_non_utf8_byte_in_an_index_line_is_a_usage_error(capsys,
                                                           tmp_path):
    store = tmp_path / "store"
    assert main(["store", "seed", "--dir", str(store)]) == 0
    index = store / "index.jsonl"
    data = index.read_bytes()
    index.write_bytes(data.replace(b'"and2"', b'"and\xff2"', 1))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["store", "inspect", "--dir", str(store)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge store: error: cannot open --dir {store}: {index}:1: " \
        "unparsable index record: 'utf-8' codec can't decode byte 0xff " \
        "in position " in err
    assert "Traceback" not in err


def test_seeding_a_store_that_holds_entries_is_a_usage_error(capsys,
                                                             tmp_path):
    store = tmp_path / "store"
    assert main(["store", "seed", "--dir", str(store)]) == 0
    files = {p: p.read_bytes() for p in store.rglob("*") if p.is_file()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["store", "seed", "--dir", str(store)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gateforge store: error: cannot seed --dir {store}: " in err
    assert "Traceback" not in err
    assert {p: p.read_bytes() for p in store.rglob("*") if p.is_file()} \
        == files


@pytest.mark.parametrize("command", ["inspect", "run", "bench"])
def test_an_edited_pattern_file_is_a_usage_error_naming_store_verify(
        capsys, script_path, tmp_path, command):
    store = tmp_path / "store"
    assert main(["store", "seed", "--dir", str(store)]) == 0
    index = store / "index.jsonl"
    and2 = json.loads(index.read_text().split("\n", 1)[0])["netlist_text"]
    edit_first_record(index, netlist_text=and2.replace("and ", "or "))
    capsys.readouterr()
    argv, option = open_store_argv(command, store, script_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: cannot open {option} {store}: and2: netlist does not " \
        "match its stored functional signature (`gateforge store verify " \
        f"--dir {store}` lists all)" in err
    assert "Traceback" not in err
    assert main(["store", "verify", "--dir", str(store)]) == 1


def test_a_pattern_record_without_netlist_text_is_refused_at_load(capsys,
                                                                  tmp_path):
    """The record a store that kept each pattern's text in a file of its
    own wrote: it loads only unverified."""
    store = tmp_path / "store"
    assert main(["store", "seed", "--dir", str(store)]) == 0
    index = store / "index.jsonl"
    first, rest = index.read_text().split("\n", 1)
    record = json.loads(first)
    del record["netlist_text"]
    index.write_text(json.dumps(record) + "\n" + rest)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["store", "inspect", "--dir", str(store)])
    assert exc.value.code == 2
    assert f"cannot open --dir {store}: and2: pattern entry has no netlist " \
        f"text (`gateforge store verify --dir {store}` lists all)" \
        in capsys.readouterr().err
    assert main(["store", "verify", "--dir", str(store)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL and2: pattern entry has no netlist text",
        "9 primary entries, 1 problem(s)"]
    assert main(["store", "inspect", "--no-verify", "--dir", str(store)]) == 0
    assert "and2" in capsys.readouterr().out.splitlines()[0]
