"""Golden outputs: each row of golden.json is one sqhit command and what it
must print, byte for byte.

A row holds its ``argv``, the input ``files`` it reads (name to text), its
exit ``code``, its exact ``stderr``, and the SHA-256 and the number of
newlines of its stdout.  The test runs the row through ``cli.main`` in this
process, in a fresh directory that holds the row's files, so that argv and
stderr name relative paths only, and inside a fresh ``modules.Expansions``,
as a new process starts with an empty default context.  A row that fails
prints what the command did, in the row's own fields: to change an output
on purpose, paste them into the row and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sqhit import cli, modules

ROWS = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_golden(row, capsys, monkeypatch, tmp_path):
    for name, text in row.get("files", {}).items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    with modules.Expansions():
        code = cli.main(row["argv"])
    out, err = capsys.readouterr()
    actual = {"code": code, "stderr": err, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
              "stdout_lines": out.count("\n")}
    assert actual == {key: row[key] for key in actual}, f"{row['name']}: {json.dumps(actual)}"
