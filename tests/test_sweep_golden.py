"""Scripted `gateforge bench` sweeps leave recorded results and stores.

Each sweep runs `gateforge.cli.main` in-process on the nine seed tasks,
into a fresh store, under every retrieval profile (V0, V1, V2), once at
n=1 with one worker and twice at n=N, with one worker and with four.
Three scripts supply the replies: the reference; the reference with an
inverter pair after its first gate, then the reference; and the padded
design only, which admits a 17-gate alu1 whose connected subsets pass
the enumeration cap. A scripted backend gives every sample of a task the
same replies, so a fourth backend answers even samples from the padded
script and odd samples from the reference script: its sweeps show the
order in which a task's samples are collected.

For each sweep one line of `data/sweep_golden.txt` holds the sha256 of
the results file, of the index records without their admission time and
netlist text, and of the circuit patterns' texts as (`<id>.nl`, text)
pairs in id order (`conftest.store_contents`). The last line holds the sha256 of the output of
`gateforge tasks validate`. Identical invocations must give byte-identical
results files and store contents for any worker count, so any change in
what a sweep decides, scores, admits or writes shows up as a line
mismatch.

To record the digests again, when a sweep's output is meant to change:

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
import threading
from pathlib import Path
from unittest import mock

from conftest import store_contents

from gateforge import cli
from gateforge.backends import ModelBackend, ScriptedBackend
from gateforge.taskpack import builtin_task_packs

DIGESTS = Path(__file__).resolve().parent / "data" / "sweep_golden.txt"
PROFILES = ("V0", "V1", "V2")
N = 20
RUNS = ((1, 1), (N, 1), (N, 4))   # (samples per task, workers)
FIRST_GATE = re.compile(r"^(\s*\w+ \w+\()([^,]+)(,.*)$", re.M)


def _fence(text: str) -> str:
    return f"```\n{text}```"


def padded(reference: str) -> str:
    """The reference with an inverter pair after its first gate: correct,
    but two gates worse."""
    header, body = reference.split("\n", 1)
    gate = FIRST_GATE.search(body)
    out = gate.group(2)
    body = (body[:gate.start()] + gate.group(1) + "spare_n0" + gate.group(3)
            + f"\n  not gspare1(spare_n1, spare_n0);"
              f"\n  not gspare2({out}, spare_n1);" + body[gate.end():])
    return f"{header}\n  wire spare_n0, spare_n1;\n{body}"


def scripts() -> dict[str, dict]:
    tasks = builtin_task_packs()

    def script(replies) -> dict:
        return {"rules": [{"contains": f"Task: {t.id}",
                           "replies": [_fence(r) for r in
                                       replies(t.reference_netlist)]}
                          for t in tasks],
                "default": ["no idea"]}

    return {"reference": script(lambda ref: [ref]),
            "padded-then-reference": script(lambda ref: [padded(ref), ref]),
            "padded": script(lambda ref: [padded(ref)])}


class BySample(ModelBackend):
    """Even samples answer from one backend, odd samples from another, so
    the samples of a task differ."""

    identity = "scripted"

    def __init__(self, even: ModelBackend, odd: ModelBackend):
        self.sides, self.current = (even, odd), threading.local()

    def start_sample(self, task_id: str, sample_index: int) -> None:
        self.current.side = self.sides[sample_index % 2]
        self.current.side.start_sample(task_id, sample_index)

    def complete(self, messages, params) -> str:
        return self.current.side.complete(messages, params)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet_main(argv: list[str]) -> str:
    """cli.main's stdout; stderr (the wall time) is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def sweep_line(root: Path, name: str, profile: str, n: int,
               workers: int) -> str:
    tag = f"{name}-{profile}-n{n}-w{workers}"
    store, results = root / tag, root / f"{tag}.json"
    backend = contextlib.nullcontext()
    if name == "by-sample":
        backend = mock.patch.object(cli, "create_backend", lambda *_: BySample(
            ScriptedBackend.from_file(f"{root}/padded.json"),
            ScriptedBackend.from_file(f"{root}/reference.json")))
    with backend:
        _quiet_main(["bench", "--backend", f"scripted:{root / name}.json",
                     "--profile", profile, "--n", str(n),
                     "--workers", str(workers), "--store", str(store),
                     "--out", str(results)])
    records, patterns = store_contents(store)
    return " ".join([tag, _sha(results.read_bytes()),
                     _sha(json.dumps(records, sort_keys=True).encode()),
                     _sha(json.dumps(patterns).encode())])


def golden_lines(root: Path) -> list[str]:
    docs = scripts()
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    # At n=1 the by-sample backend is the padded script.
    lines = [sweep_line(root, name, profile, n, workers)
             for name in [*docs, "by-sample"] for profile in PROFILES
             for n, workers in RUNS if name != "by-sample" or n > 1]
    return lines + [
        "tasks-validate " + _sha(_quiet_main(["tasks", "validate"]).encode())]


def test_sweeps_match_recorded_digests(tmp_path):
    assert golden_lines(tmp_path) == DIGESTS.read_text().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = golden_lines(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("\n".join(lines) + "\n")
