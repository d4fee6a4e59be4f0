import json
import random
import shutil

import pytest
from conftest import unpack

from gateforge.metrics import MetricWeights, TierVerdict, classify_tier
from gateforge.netlist import Port, PortDir
from gateforge.orchestrator import verify_reference
from gateforge.parser import parse
from gateforge.simulator import (
    SimulationError,
    TestVector,
    check_vectors,
    pack_vectors,
    simulate_sequential,
)
from gateforge.taskpack import (
    BenchmarkReport,
    ReferenceMismatchError,
    TaskReportRow,
    TaskSchemaError,
    builtin_task_dir,
    builtin_task_packs,
    discover_task_packs,
    emit_report,
    load_report,
    load_task_pack,
)


def builtin(task_id: str):
    return load_task_pack(f"{builtin_task_dir()}/{task_id}")


def copy_pack(task_id: str, tmp_path, mutate_meta=None, mutate_tb=None):
    """Copy a seed pack. Each mutate edits a file's JSON document in place,
    or, given as a string, is the file's new text."""
    src = f"{builtin_task_dir()}/{task_id}"
    dst = tmp_path / task_id
    shutil.copytree(src, dst)
    for name, mutate in (("task.json", mutate_meta),
                         ("testbench.json", mutate_tb)):
        if isinstance(mutate, str):
            (dst / name).write_text(mutate)
        elif mutate:
            doc = json.loads((dst / name).read_text())
            mutate(doc)
            (dst / name).write_text(json.dumps(doc))
    return dst


def test_seed_full_adder_pack_loads():
    t = builtin("full_adder")
    assert t.difficulty == "medium"
    assert t.circuit_class == "combinational"
    assert len(unpack(t.testbench.packed)) == 8
    assert t.reference.gate_count == 5
    assert t.reference_sei() == pytest.approx(1 / 8)


def test_seed_set_spans_difficulties_and_classes():
    packs = builtin_task_packs()
    assert len(packs) >= 9
    assert {t.difficulty for t in packs} == {"easy", "medium", "hard"}
    assert {t.circuit_class for t in packs} == {"combinational", "sequential"}
    hard_ids = {t.id for t in packs if t.difficulty == "hard"}
    assert {"seq101", "adder4"} <= hard_ids
    for t in packs:
        if t.difficulty == "easy":
            assert 2 <= t.reference.gate_count <= 4


def test_every_seed_reference_verifies():
    for t in builtin_task_packs():
        result = verify_reference(t)
        assert result.correctness == 1.0
        assert result.gate_count == t.reference.gate_count
        assert result.delay == t.reference.delay


def test_unknown_port_in_vector_is_a_schema_violation(tmp_path):
    for i, key in enumerate(("ghost", "a[\u00b2]")):  # not a decimal index
        path = copy_pack("xnor2", tmp_path / str(i),
                         mutate_tb=lambda tb: tb["vectors"][0]["inputs"]
                         .update({key: 1}))
        with pytest.raises(TaskSchemaError) as exc:
            load_task_pack(path)
        assert str(exc.value) == \
            f"testbench.vectors[0]: unknown port bit '{key}'"


def test_clock_on_combinational_task_is_a_schema_violation(tmp_path):
    path = copy_pack("xnor2", tmp_path,
                     mutate_meta=lambda m: m.update({"clock": "a"}))
    with pytest.raises(TaskSchemaError, match="clock"):
        load_task_pack(path)


def test_sequential_task_requires_a_clock(tmp_path):
    for i, clock in enumerate((None, ["clk"])):
        path = copy_pack("counter2", tmp_path / str(i),
                         mutate_meta=lambda m: m.update({"clock": clock}))
        with pytest.raises(TaskSchemaError) as exc:
            load_task_pack(path)
        assert str(exc.value) == ("task.json.clock: sequential tasks need a "
                                  "1-bit input clock port")


def test_schema_version_is_checked(tmp_path):
    path = copy_pack("xnor2", tmp_path,
                     mutate_meta=lambda m: m.update({"schema_version": 99}))
    with pytest.raises(TaskSchemaError, match="schema_version"):
        load_task_pack(path)


def test_inconsistent_declared_sei_is_rejected(tmp_path):
    path = copy_pack("xnor2", tmp_path,
                     mutate_meta=lambda m: m["human_reference"]
                     .update({"sei": 0.9}))
    with pytest.raises(TaskSchemaError, match="does not match"):
        load_task_pack(path)


def test_checkless_testbench_is_rejected(tmp_path):
    def strip(tb):
        for v in tb["vectors"]:
            v["expected"] = {}

    path = copy_pack("xnor2", tmp_path, mutate_tb=strip)
    with pytest.raises(TaskSchemaError, match="checks"):
        load_task_pack(path)


def test_tampered_reference_is_detected(tmp_path):
    path = copy_pack("full_adder", tmp_path)
    bad = (path / "reference.nl").read_text().replace("or g5", "and g5")
    (path / "reference.nl").write_text(bad)
    with pytest.raises(ReferenceMismatchError, match="fails its own testbench"):
        verify_reference(load_task_pack(path))


def test_wrong_declared_gate_count_is_detected(tmp_path):
    path = copy_pack("full_adder", tmp_path,
                     mutate_meta=lambda m: m["human_reference"]
                     .update({"gate_count": 6, "sei": round(1 / 9, 6)}))
    with pytest.raises(ReferenceMismatchError, match="does not match measured"):
        verify_reference(load_task_pack(path))


def test_wrong_declared_register_count_is_detected(tmp_path):
    path = copy_pack("counter2", tmp_path,
                     mutate_meta=lambda m: m["human_reference"]
                     .update({"register_count": 1}))
    with pytest.raises(ReferenceMismatchError, match="does not match measured"):
        verify_reference(load_task_pack(path))


def test_a_pack_without_a_reference_netlist_fails_validation(tmp_path):
    path = copy_pack("and3", tmp_path)
    (path / "reference.nl").unlink()
    with pytest.raises(ReferenceMismatchError) as exc:
        verify_reference(load_task_pack(path))
    assert str(exc.value) == "and3: no reference netlist provided"


@pytest.mark.parametrize("task_id, edit, message", [
    ("and3", lambda text: text.replace("endmodule", ""),
     "and3: reference rejected: syntax: line 6 col 1 [syntax] "
     "missing 'endmodule'"),
    ("and3", lambda text: text.replace("output y)", "output y, output z)")
     .replace("endmodule", "  assign z = a;\nendmodule"),
     "and3: reference rejected: interface mismatch: [interface] port not in "
     "the task interface: output z (1 bit(s), lsb 0)"),
    ("and3", lambda text: text.replace("and g2", "dff g2"),
     "and3: reference rejected: registers in a combinational task: "
     "[interface] the task is combinational; remove dff instances"),
    ("seq101", lambda text: text.replace("w1, clk", "w1, x"),
     "seq101: reference clean parse and structural check: register g5 is "
     "not clocked by 'clk'"),
], ids=["no-endmodule", "extra-output", "register", "refused"])
def test_a_reference_gets_the_reviewers_review(tmp_path, task_id, edit,
                                               message):
    path = copy_pack(task_id, tmp_path)
    (path / "reference.nl").write_text(edit((path / "reference.nl")
                                            .read_text()))
    with pytest.raises(ReferenceMismatchError) as exc:
        verify_reference(load_task_pack(path))
    assert str(exc.value) == message


@pytest.mark.parametrize("numbers", [
    {"gate_count": -1, "delay": 3},
    {"gate_count": 3, "delay": -1},
    {"gate_count": 0, "delay": 0},
    {"gate_count": 2, "delay": 1, "register_count": -1},
    {"gate_count": 2, "delay": 1, "register_count": 3},
])
def test_out_of_range_reference_numbers_are_rejected(tmp_path, numbers):
    def replace_reference(meta):
        meta["human_reference"] = numbers

    path = copy_pack("xnor2", tmp_path, mutate_meta=replace_reference)
    with pytest.raises(TaskSchemaError, match="human_reference"):
        load_task_pack(path)


def _set_port(i, key, value):
    return lambda meta: meta["ports"][i].update({key: value})


def _set_reference(key, value):
    return lambda meta: meta["human_reference"].update({key: value})


@pytest.mark.parametrize("field,mutate", [
    ("ports[0].lsb", _set_port(0, "lsb", "x")),
    ("ports[0].lsb", _set_port(0, "lsb", -2)),
    ("ports[0].width", _set_port(0, "width", True)),
    ("ports[2].width", _set_port(2, "width", 1.0)),
    ("human_reference.gate_count", _set_reference("gate_count", 3.5)),
    ("human_reference.gate_count", _set_reference("gate_count", "3")),
    ("human_reference.delay", _set_reference("delay", True)),
    ("human_reference.register_count", _set_reference("register_count", 0.0)),
    ("human_reference.sei", _set_reference("sei", "0.066667")),
    ("tags", lambda meta: meta.update({"tags": "parity"})),
    ("tags", lambda meta: meta.update({"tags": [1, None]})),
    ("ports", lambda meta: meta.update({"ports": 5})),
    ("ports", lambda meta: meta.update({"ports": [3]})),
    ("ports[1].name", _set_port(1, "name", ["b"])),
    ("id", lambda meta: meta.update({"id": None})),
    ("schema_version", lambda meta: meta.update({"schema_version": True})),
    ("", "{"),
    ("", "[]"),
], ids=["lsb-string", "lsb-negative", "width-bool", "width-float",
        "gate-count-float", "gate-count-string", "delay-bool",
        "register-count-float", "sei-string", "tags-string", "tags-non-string",
        "ports-integer", "ports-integer-item", "name-list", "id-null",
        "schema-version-bool", "unparsable-json", "top-level-list"])
def test_non_integer_task_fields_are_schema_errors(tmp_path, field, mutate):
    path = copy_pack("adder2", tmp_path, mutate_meta=mutate)
    with pytest.raises(TaskSchemaError) as exc:
        load_task_pack(path)
    where = f"task.json.{field}" if field else "task.json"
    assert str(exc.value).startswith(f"{where}: must be")


@pytest.mark.parametrize("mutate_tb,message", [
    (lambda tb: tb.update({"cycles": True}), "testbench.json.cycles"),
    (lambda tb: tb["vectors"][0].update({"cycle": False}),
     "testbench.vectors[0].cycle"),
    (lambda tb: tb.update({"vectors": 5}), "testbench.json.vectors"),
    (lambda tb: tb["vectors"][1].update({"inputs": [1]}),
     "testbench.vectors[1].inputs"),
    (lambda tb: tb["vectors"][1].update({"expected": 5}),
     "testbench.vectors[1].expected"),
    ('{"cycles": 4,\n "vectors": [}', "testbench.json"),
    ("[]", "testbench.json"),
], ids=["cycles-bool", "cycle-bool", "vectors-integer", "inputs-list",
        "expected-integer", "unparsable-json", "top-level-list"])
def test_bool_cycle_counts_are_schema_errors(tmp_path, mutate_tb, message):
    path = copy_pack("counter2", tmp_path, mutate_tb=mutate_tb)
    with pytest.raises(TaskSchemaError) as exc:
        load_task_pack(path)
    assert str(exc.value).startswith(f"{message}: must be")


@pytest.mark.parametrize("name", ["task.json", "spec.txt", "testbench.json",
                                  "reference.nl"])
def test_non_utf8_pack_files_are_schema_errors(tmp_path, name):
    path = copy_pack("and3", tmp_path)
    (path / name).write_bytes(b"\xff\xfe")
    with pytest.raises(TaskSchemaError) as exc:
        load_task_pack(path)
    assert str(exc.value) == \
        f"{name}: must be UTF-8 text (byte 0: invalid start byte)"


def test_pack_files_are_read_with_universal_newlines(tmp_path):
    """`\\r\\n` and a lone `\\r` each end one line, as in text mode."""
    path = copy_pack("and3", tmp_path)
    (path / "spec.txt").write_bytes(b"Three-input AND.\r\nOutput y.\rEnd.\n")
    reference = (path / "reference.nl").read_text().replace("\n", "\r\n")
    (path / "reference.nl").write_bytes(reference.encode())
    task = load_task_pack(path)
    assert task.spec_text == "Three-input AND.\nOutput y.\nEnd.\n"
    assert task.reference_netlist == builtin("and3").reference_netlist
    (path / "task.json").write_bytes(b'{\r"id":\r\n}')
    with pytest.raises(TaskSchemaError) as exc:
        load_task_pack(path)
    assert str(exc.value) == \
        "task.json: must be valid JSON (line 3 column 1: Expecting value)"


@pytest.mark.parametrize("name", ["task.json", "spec.txt", "testbench.json",
                                  "reference.nl"])
def test_a_pack_file_that_cannot_be_read_is_a_schema_error(tmp_path, name):
    path = copy_pack("and3", tmp_path)
    (path / name).unlink()
    if name != "reference.nl":   # the one optional file
        with pytest.raises(TaskSchemaError) as exc:
            load_task_pack(path)
        assert str(exc.value) == f"missing {name}"
    (path / name).mkdir()
    with pytest.raises(TaskSchemaError) as exc:
        load_task_pack(path)
    assert str(exc.value) == f"{name}: cannot be read: Is a directory"


@pytest.mark.parametrize("ports, message", [
    ([{"name": "a", "dir": "in", "width": 65537}],
     "task.json.ports[0].width: must be an integer >= 1, with at most 65536 "
     "bits over all ports"),
    ([{"name": "a", "dir": "in", "width": 65535},
      {"name": "b", "dir": "in", "width": 2}],
     "task.json.ports[1].width: must be an integer >= 1, with at most 65536 "
     "bits over all ports"),
    ([{"name": "wire", "dir": "in"}],
     "task.json.ports[0].name: must be an identifier, not a keyword, that "
     "no other port has"),
    ([{"name": "a$b", "dir": "in"}],
     "task.json.ports[0].name: must be an identifier, not a keyword, that "
     "no other port has"),
    ([{"name": "a", "dir": "in", "lsb": 10**19}],
     "task.json.ports[0].lsb: must be an integer >= 0, with a top bit index "
     "of at most 18 digits"),
    # The top bit, 10**18, has 19 digits.
    ([{"name": "a", "dir": "in", "width": 2, "lsb": 10**18 - 1}],
     "task.json.ports[0].lsb: must be an integer >= 0, with a top bit index "
     "of at most 18 digits"),
], ids=["wide-port", "wide-ports", "keyword", "dollar", "long-lsb",
        "long-top-bit"])
def test_an_interface_no_netlist_can_declare_is_refused(tmp_path, ports,
                                                        message):
    path = copy_pack("and3", tmp_path,
                     mutate_meta=lambda m: m.update({"ports": ports}))
    with pytest.raises(TaskSchemaError) as exc:
        load_task_pack(path)
    assert str(exc.value) == message


def test_reference_index_weighs_registers():
    t = builtin("counter2")
    assert t.reference.register_count == 2
    assert t.reference_sei() == pytest.approx(1 / 5)
    assert t.reference_sei(MetricWeights(dff_weight=2.0)) == pytest.approx(1 / 7)


def test_discover_sorts_by_id(tmp_path):
    for tid in ("xnor2", "mux2", "and3"):
        copy_pack(tid, tmp_path)
    packs = discover_task_packs(tmp_path)
    assert [t.id for t in packs] == ["and3", "mux2", "xnor2"]


def test_interface_echo_mismatch_is_a_schema_violation(tmp_path):
    def corrupt(tb):
        tb["interface"]["a"]["width"] = 7

    path = copy_pack("xnor2", tmp_path, mutate_tb=corrupt)
    with pytest.raises(TaskSchemaError, match="interface"):
        load_task_pack(path)


def test_reference_tiers_key_is_ignored(tmp_path):
    def add_tiers(meta):
        meta["human_reference"]["tiers"] = {"top": "not numbers"}

    path = copy_pack("xnor2", tmp_path, mutate_meta=add_tiers)
    assert load_task_pack(path).reference == builtin("xnor2").reference


@pytest.mark.parametrize("task_id, mutate_tb, match", [
    ("and3", lambda tb: tb["vectors"][3]["inputs"].pop("b"),
     r"testbench\.json: vector 3: unassigned input bit\(s\): b"),
    ("seq101", lambda tb: tb["vectors"][0]["inputs"].pop("x"),
     r"testbench\.json: vector 0: unassigned input bit\(s\): x"),
    ("seq101", lambda tb: tb["vectors"][2].update(cycle=1),
     r"testbench\.json: vector 2: duplicate cycle 1"),
    ("seq101", lambda tb: tb["vectors"][-1].update(cycle=tb["cycles"]),
     r"testbench\.json: vector \d+: cycle 32 outside 0\.\.31"),
], ids=["combinational-unassigned-bit", "sequential-cycle-0-unassigned-bit",
        "sequential-duplicate-cycle", "sequential-cycle-past-the-end"])
def test_unsimulatable_testbench_is_refused_at_load(tmp_path, task_id,
                                                   mutate_tb, match):
    path = copy_pack(task_id, tmp_path, mutate_tb=mutate_tb)
    with pytest.raises(TaskSchemaError, match=match):
        load_task_pack(path)


SEQUENTIAL_REFUSALS = {
    "cycle-out-of-range": (lambda tb: tb["vectors"][-1].update(cycle=32),
                           "vector 31: cycle 32 outside 0..31"),
    "duplicate-cycle": (lambda tb: tb["vectors"][2].update(cycle=1),
                        "vector 2: duplicate cycle 1"),
    "no-cycle-0-vector": (lambda tb: tb["vectors"].pop(0),
                          "no vector at cycle 0 assigns input bit(s): x"),
    "cycle-0-unassigned-bit": (lambda tb: tb["vectors"][0]["inputs"].pop("x"),
                               "vector 0: unassigned input bit(s): x"),
    "driven-clock": (lambda tb: tb["vectors"][4]["inputs"].update(clk=1),
                     "vector 4: clock 'clk' is driven by the harness, "
                     "not by vectors"),
}


@pytest.mark.parametrize("case", sorted(SEQUENTIAL_REFUSALS))
def test_sequential_refusals_name_the_same_vector_in_simulator_and_load(
        tmp_path, case):
    mutate_tb, message = SEQUENTIAL_REFUSALS[case]
    task = builtin("seq101")
    with open(f"{task.path}/testbench.json", encoding="utf-8") as fh:
        tb = json.load(fh)
    mutate_tb(tb)
    vectors = [TestVector(v["inputs"], v["expected"], v["cycle"])
               for v in tb["vectors"]]
    netlist = parse(task.reference_netlist).netlist
    for clock in (task.clock, None):  # designated or inferred
        with pytest.raises(SimulationError) as exc:
            simulate_sequential(netlist, pack_vectors(vectors), tb["cycles"],
                                clock=clock)
        assert str(exc.value) == message
    with pytest.raises(TaskSchemaError) as exc:
        load_task_pack(copy_pack("seq101", tmp_path, mutate_tb=mutate_tb))
    assert str(exc.value) == f"testbench.json: {message}"


def test_bit_select_keys_name_canonical_bits(tmp_path):
    def scalar_as_bit(tb):
        for v in tb["vectors"]:
            v["inputs"]["a[0]"] = v["inputs"].pop("a")

    def port_as_padded_bits(tb):
        for v in tb["vectors"]:
            a = v["inputs"].pop("a")
            v["inputs"].update({"a[00]": a & 1, "a[01]": a >> 1})

    for task_id, mutate_tb in (("xnor2", scalar_as_bit),
                               ("adder2", port_as_padded_bits)):
        task = load_task_pack(copy_pack(task_id, tmp_path, mutate_tb=mutate_tb))
        assert task.testbench == builtin(task_id).testbench
        assert verify_reference(task).correctness == 1.0


def test_whole_port_integers_expand_to_bits():
    t = builtin("adder2")
    v = unpack(t.testbench.packed)[-1]
    assert set(v.inputs) == {"a[0]", "a[1]", "b[0]", "b[1]", "cin"}
    assert set(v.expected) == {"s[0]", "s[1]", "cout"}


# -- the packed reader against the per-bit reader it replaced -----------------

def reference_bits(doc, ports, direction, where):
    """Per-bit values of an `inputs` or `expected` object, keyed by
    Port.bit_name, as the per-bit reader built them."""
    side = "input" if direction is PortDir.IN else "output"
    bits = {}
    for key, value in doc.items():
        port, bit = ports.get(key), None
        if port is None and key.endswith("]") and "[" in key:
            base, _, idx = key[:-1].partition("[")
            if idx.isdecimal():
                port, bit = ports.get(base), int(idx)
        if port is None:
            raise TaskSchemaError(f"{where}: unknown port bit '{key}'")
        if port.direction is not direction:
            raise TaskSchemaError(f"{where}: '{key}' is not an {side} port")
        care = direction is PortDir.IN or (value is not None and value != "x")
        if bit is None:
            if not care:
                bits.update(dict.fromkeys(map(port.bit_name, range(port.width))))
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise TaskSchemaError(
                    f"{where}: value for '{port.name}' must be an integer")
            if value < 0 or value >= (1 << port.width):
                raise TaskSchemaError(
                    f"{where}: value {value} does not fit in {port.width} "
                    f"bit(s) of '{port.name}'")
            bits.update({port.bit_name(i): (value >> i) & 1
                         for i in range(port.width)})
            continue
        if not (port.lsb <= bit <= port.msb):
            raise TaskSchemaError(f"{where}: bit {bit} out of range for "
                                  f"'{port.name}'")
        if care and value not in (0, 1):
            raise TaskSchemaError(
                f"{where}: bit value must be 0 or 1" if direction is PortDir.IN
                else f"{where}: expected bit must be 0, 1, null or \"x\"")
        bits[port.bit_name(bit - port.lsb)] = int(value) if care else None
    return bits


def reference_vectors(pack) -> tuple[TestVector, ...]:
    """A pack's vectors as the per-bit reader loaded them, with its checks
    in its order: schema faults vector by vector, then a testbench that
    checks nothing, then check_vectors."""
    meta = json.loads((pack / "task.json").read_text())
    tb = json.loads((pack / "testbench.json").read_text())
    ports = {p["name"]: Port(p["name"], PortDir(p["dir"]), p.get("width", 1),
                             p.get("lsb", 0)) for p in meta["ports"]}
    combinational = meta["circuit_class"] == "combinational"
    vectors = []
    for i, doc in enumerate(tb["vectors"]):
        where = f"testbench.vectors[{i}]"
        if not isinstance(doc, dict):
            raise TaskSchemaError(f"{where}: vector must be an object")
        cycle = doc.get("cycle", 0)
        if not isinstance(cycle, int) or cycle < 0:
            raise TaskSchemaError(f"{where}.cycle: must be a non-negative "
                                  "integer")
        if combinational and cycle != 0:
            raise TaskSchemaError(f"{where}.cycle: combinational vectors "
                                  "must all have cycle 0")
        vectors.append(TestVector(
            reference_bits(doc.get("inputs", {}), ports, PortDir.IN, where),
            reference_bits(doc.get("expected", {}), ports, PortDir.OUT, where),
            cycle))
    if not any(e is not None for v in vectors for e in v.expected.values()):
        raise TaskSchemaError("testbench.json: no vector checks anything")
    names = {d: [p.bit_name(i) for p in ports.values() if p.direction is d
                 for i in range(p.width)] for d in PortDir}
    try:
        check_vectors(pack_vectors(vectors), names[PortDir.IN],
                      names[PortDir.OUT], meta.get("clock"),
                      None if combinational else tb["cycles"])
    except SimulationError as exc:
        raise TaskSchemaError(f"testbench.json: {exc}") from None
    return tuple(vectors)


def outcome(read, pack):
    """What `read` makes of a pack: its result, or its schema fault."""
    try:
        return read(pack)
    except TaskSchemaError as exc:
        return f"TaskSchemaError: {exc}"


def loaded_vectors(pack) -> tuple[TestVector, ...]:
    return unpack(load_task_pack(pack).testbench.packed)


def port_entries(rng, port, expected):
    """Keys and values that set a port: a whole-port value, bit keys (some
    with padded indices), or both, so one can override the other. Inputs
    always get every bit."""
    def value(bits):
        if expected and rng.random() < 0.3:
            return rng.choice([None, "x"])
        return rng.randrange(1 << bits)

    whole = rng.random() < 0.6
    entries = [(port["name"], value(port["width"]))] if whole else []
    for i in range(port["width"]):
        if not whole or rng.random() < 0.3:
            index = port["lsb"] + i
            key = (port["name"] if port["width"] == 1 and rng.random() < 0.5
                   else f"{port['name']}[{index:0{rng.choice([1, 2])}d}]")
            entries.append((key, value(1)))
    return entries


def random_pack(rng, tmp_path, name, sequential=False):
    ports = []
    for direction, count in (("in", rng.randint(1, 3)),
                             ("out", rng.randint(1, 2))):
        for _ in range(count):
            ports.append({"name": "abcdefg"[len(ports)], "dir": direction,
                          "width": rng.randint(1, 4),
                          "lsb": rng.choice([0, 0, 1, 4])})
    rng.shuffle(ports)
    inputs = [p for p in ports if p["dir"] == "in"]
    if sequential:
        ports.insert(rng.randrange(len(ports) + 1),
                     {"name": "clk", "dir": "in"})
    count = rng.randint(1, 10)
    cycles = count + rng.randint(0, 3)
    at = [0] + rng.sample(range(1, cycles), count - 1) if sequential \
        else [0] * count
    vectors = []
    for v, cycle in enumerate(at):
        driven = inputs if cycle == 0 else rng.sample(
            inputs, rng.randint(0, len(inputs)))
        ins = [e for p in driven for e in port_entries(rng, p, False)]
        outs = [e for p in ports if p["dir"] == "out" and rng.random() < 0.7
                for e in port_entries(rng, p, True)]
        rng.shuffle(ins)
        rng.shuffle(outs)
        doc = {"inputs": dict(ins), "expected": dict(outs)}
        if sequential or rng.random() < 0.3:
            doc["cycle"] = cycle
        vectors.append(doc)
    rng.shuffle(vectors)
    meta = {"schema_version": 1, "id": name, "title": name,
            "difficulty": "easy", "ports": ports,
            "circuit_class": "sequential" if sequential else "combinational"}
    if sequential:
        meta["clock"] = "clk"
    pack = tmp_path / name
    pack.mkdir()
    (pack / "task.json").write_text(json.dumps(meta))
    (pack / "spec.txt").write_text(name)
    (pack / "testbench.json").write_text(
        json.dumps({"cycles": cycles, "vectors": vectors}))
    return pack


def override(doc, first, second):
    """Whether some port's bits are set by a `first`-kind key and then again
    by a later `second`-kind key (whole port or bit)."""
    seen = set()
    for key in doc:
        port, kind = key.partition("[")[0], "bit" if "[" in key else "whole"
        if kind == second and (port, first) in seen:
            return True
        seen.add((port, kind))
    return False


def test_packed_reader_matches_the_per_bit_reference(tmp_path):
    rng = random.Random(13)
    loaded, docs = 0, []
    for n in range(80):
        pack = random_pack(rng, tmp_path, f"t{n}", sequential=n % 4 == 3)
        tb = json.loads((pack / "testbench.json").read_text())
        docs += [d for v in tb["vectors"] for d in (v["inputs"], v["expected"])]
        reference = outcome(reference_vectors, pack)
        task = outcome(load_task_pack, pack)
        if isinstance(reference, str):
            assert task == reference
            continue
        loaded += 1
        bench = task.testbench
        vectors = unpack(bench.packed)
        assert vectors == reference
        assert [(list(v.inputs), list(v.expected)) for v in vectors] \
            == [(list(v.inputs), list(v.expected)) for v in reference]
        if task.circuit_class == "combinational":
            packed = pack_vectors(reference)
            assert bench.packed == packed and bench.packed.keys == packed.keys
    assert loaded >= 60
    # The packs cover overrides both ways, don't-cares and padded indices.
    assert any(override(d, "whole", "bit") for d in docs)
    assert any(override(d, "bit", "whole") for d in docs)
    assert any(any(v is None or v == "x" for v in d.values()) for d in docs)
    assert any(any("[0" in k and not k.endswith("[0]") for k in d)
               for d in docs)


# Each fault edits vector `v`, or returns what replaces it, given one input
# port `i` and one output port `o` of the pack.
SCHEMA_FAULTS = {
    "not-an-integer": lambda v, i, o: v["inputs"].update({i["name"]: "1"}),
    "bool-port-value": lambda v, i, o: v["inputs"].update({i["name"]: True}),
    "bad-input-bit": lambda v, i, o: v["inputs"].update(
        {f"{i['name']}[{i['lsb']}]": 2}),
    "bad-expected-bit": lambda v, i, o: v["expected"].update(
        {f"{o['name']}[{o['lsb']}]": 2}),
    "bad-expected-port": lambda v, i, o: v["expected"].update(
        {o["name"]: "1"}),
    "does-not-fit": lambda v, i, o: v["inputs"].update(
        {i["name"]: 1 << i["width"]}),
    "negative": lambda v, i, o: v["inputs"].update({i["name"]: -1}),
    "unknown-key": lambda v, i, o: v["inputs"].update(
        {f"{i['name']}[x]": 1}),
    "wrong-direction": lambda v, i, o: v["expected"].update({i["name"]: 0}),
    "bit-out-of-range": lambda v, i, o: v["inputs"].update(
        {f"{i['name']}[{i['lsb'] + i['width']}]": 1}),
    "bit-below-lsb": lambda v, i, o: v["inputs"].update(
        {f"{i['name']}[{i['lsb'] - 1}]": 1} if i["lsb"] else {"q": 1}),
    "not-an-object": lambda v, i, o: [v],
    "negative-cycle": lambda v, i, o: v.update(cycle=-1),
    "nonzero-cycle": lambda v, i, o: v.update(cycle=1),
}


@pytest.mark.parametrize("fault", sorted(SCHEMA_FAULTS))
def test_schema_faults_win_over_an_earlier_unassigned_bit(tmp_path, fault):
    """A fault in the last vector is reported, with the reference's words,
    even when the first vector leaves an input bit unassigned."""
    rng = random.Random(fault)
    for n in range(10):
        pack = random_pack(rng, tmp_path, f"t{n}")
        meta = json.loads((pack / "task.json").read_text())
        tb = json.loads((pack / "testbench.json").read_text())
        i, o = (rng.choice([p for p in meta["ports"] if p["dir"] == d])
                for d in ("in", "out"))
        if n % 2:
            tb["vectors"][0]["inputs"].clear()
        last = tb["vectors"][-1]
        tb["vectors"][-1] = SCHEMA_FAULTS[fault](last, i, o) or last
        (pack / "testbench.json").write_text(json.dumps(tb))
        reference = outcome(reference_vectors, pack)
        assert reference.startswith("TaskSchemaError: testbench.vectors[")
        assert outcome(loaded_vectors, pack) == reference


@pytest.mark.parametrize("earlier", [
    lambda v: v["inputs"].update(cin=2),          # in the last input key
    lambda v: v["expected"].update(cout="1"),     # in an expected key
    lambda v: v["inputs"].update(q=1),            # in a key no other has
], ids=["later-key", "expected", "own-key-list"])
def test_the_first_faulty_vector_wins_whatever_key_holds_its_fault(
        tmp_path, earlier):
    """Vector 2's fault sits in a key read after `a`; vector 5's is in `a`,
    the first key. Vector 2 is named, with the reference's words."""
    def mutate(tb):
        earlier(tb["vectors"][2])
        tb["vectors"][5]["inputs"]["a"] = True

    pack = copy_pack("full_adder", tmp_path, mutate_tb=mutate)
    reference = outcome(reference_vectors, pack)
    assert reference.startswith("TaskSchemaError: testbench.vectors[2]: ")
    assert outcome(loaded_vectors, pack) == reference


@pytest.mark.parametrize("task_id", ["seq101", "counter2"])
def test_vectors_sharing_a_key_list_keep_their_own_cycles(tmp_path, task_id):
    pack = copy_pack(task_id, tmp_path)
    keys = load_task_pack(pack).testbench.packed.keys
    assert len({(ins, outs) for ins, outs, _ in keys}) == 1
    assert [cycle for _, _, cycle in keys] == list(range(len(keys)))
    assert keys == pack_vectors(reference_vectors(pack)).keys


def test_runnability_faults_use_the_reference_words(tmp_path):
    rng = random.Random(7)
    refused = 0
    for n in range(20):
        pack = random_pack(rng, tmp_path, f"t{n}")
        tb = json.loads((pack / "testbench.json").read_text())
        victim = rng.randrange(len(tb["vectors"]))
        key = rng.choice(list(tb["vectors"][victim]["inputs"]))
        del tb["vectors"][victim]["inputs"][key]
        (pack / "testbench.json").write_text(json.dumps(tb))
        reference = outcome(reference_vectors, pack)
        assert outcome(loaded_vectors, pack) == reference
        refused += "unassigned input bit(s)" in reference
    assert refused >= 10


# -- reports ------------------------------------------------------------------

def sample_report() -> BenchmarkReport:
    rows = (
        TaskReportRow("xnor2", "easy", 2, 2, {1: 1.0}, 2, 2, 0.25, "verified"),
        TaskReportRow("full_adder", "medium", 2, 0, {1: 0.0}, None, None,
                      None, "failed"),
    )
    return BenchmarkReport(
        rows=rows,
        difficulty_pass_at_1={"easy": 1.0, "medium": 0.0},
        difficulty_sei={"easy": 0.25, "medium": 0.0},
        overall_sei=(0.25 * 1e-5) ** 0.5,
        tier=classify_tier((0.25 * 1e-5) ** 0.5),
        config={"backend": "scripted"},
        wall_seconds=1.23,
    )


def test_machine_report_round_trips():
    report = sample_report()
    text = emit_report(report, "machine")
    loaded = load_report(text)
    assert emit_report(loaded, "machine") == text
    assert loaded.rows == report.rows
    assert loaded.overall_sei == report.overall_sei
    assert loaded.tier == report.tier


def test_machine_report_excludes_wall_time():
    a = sample_report()
    b = BenchmarkReport(a.rows, a.difficulty_pass_at_1, a.difficulty_sei,
                        a.overall_sei, a.tier, a.config, wall_seconds=999.0)
    assert emit_report(a, "machine") == emit_report(b, "machine")


def test_table_shows_only_present_difficulties():
    text = emit_report(sample_report(), "table")
    assert "easy" in text and "medium" in text and "hard" not in text
    assert "overall" in text


def test_table_flags_top_tier():
    rows = (TaskReportRow("t", "easy", 1, 1, {1: 1.0}, 5, 3, 0.115,
                          "verified"),)
    report = BenchmarkReport(rows, {"easy": 1.0}, {"easy": 0.115}, 0.115,
                             classify_tier(0.115), {})
    text = emit_report(report, "table")
    assert "tier: top" in text


def test_single_task_report_table():
    rows = (TaskReportRow("solo", "hard", 1, 1, {1: 1.0}, 5, 3, 0.125,
                          "verified"),)
    report = BenchmarkReport(rows, {"hard": 1.0}, {"hard": 0.125}, 0.125,
                             classify_tier(0.125), {})
    text = emit_report(report, "table")
    assert "hard" in text and "solo" in text


def test_gap_value_is_flagged_in_the_table():
    verdict = classify_tier(0.094)
    assert isinstance(verdict, TierVerdict) and verdict.in_gap
    rows = (TaskReportRow("t", "easy", 1, 1, {1: 1.0}, 5, 3, 0.094,
                          "verified"),)
    report = BenchmarkReport(rows, {"easy": 1.0}, {"easy": 0.094}, 0.094,
                             verdict, {})
    assert "gap" in emit_report(report, "table")
