"""The pinned output digests of the workflow's console-script step, checked
in-process on every run of the suite.

The commands and their sha256 digests are read from
.github/workflows/tier1.yml, so they are kept in one place.  Each command
runs through cli.main into a temporary directory; a `.masked` digest is of
the JSON report with wall_time_ms dropped, made as the workflow's loop makes
it: json.dumps of the rest plus a newline.
"""

import hashlib
import json
import pathlib
import re
import shlex

import pytest

from perml1.cli import main

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
STEP = re.search(r"- name: Console script\n(.*?)\n\s*- name:", WORKFLOW.read_text(), re.S).group(1)
COMMANDS = {name: shlex.split(line)[1:] for line, name in
            re.findall(r"^\s*(perml1 .*--out \"\$RUNNER_TEMP/(\w+)\.\w+\")$", STEP, re.M)}
DIGESTS = re.findall(r"echo \"([0-9a-f]{64})  \$RUNNER_TEMP/(\w+)\.(\w+)\" \| sha256sum -c -", STEP)


def test_every_command_is_pinned():
    assert COMMANDS and sorted(COMMANDS) == sorted(name for _, name, _ in DIGESTS)


@pytest.mark.parametrize("digest, name, ext", DIGESTS, ids=[f"{name}.{ext}" for _, name, ext in DIGESTS])
def test_digest(digest, name, ext, tmp_path):
    argv = [arg.replace("$RUNNER_TEMP", str(tmp_path)) for arg in COMMANDS[name]]
    assert main(argv) == 0
    out = pathlib.Path(argv[argv.index("--out") + 1])
    if ext == "masked":
        report = json.loads(out.read_text())
        del report["wall_time_ms"]
        data = (json.dumps(report) + "\n").encode()
    else:
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
