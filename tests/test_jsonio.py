"""The one reader of the JSON artifacts: every bad file is an input error
naming it, and no other module decodes JSON."""

import ast
import re
from pathlib import Path

import pytest

import leadkin
from leadkin.cli import main
from leadkin.errors import InputError
from leadkin.jsonio import read_json


@pytest.mark.parametrize(
    "data, message",
    [
        (None, "no such file"),
        (b"{\"a\": \xff}", r"not UTF-8 text \(invalid start byte\)"),
        (b"{\"a\": ", "not valid JSON: Expecting value"),
        (b"[" + b"1" * 5000 + b"]", "not valid JSON: Exceeds the limit"),
        (b"[" * 100000 + b"]" * 100000, "not valid JSON: maximum recursion depth"),
    ],
    ids=["missing", "undecodable", "truncated", "5000-digit-integer", "nested-100000-deep"],
)
def test_read_json_names_the_file_of_every_bad_document(tmp_path, data, message):
    path = tmp_path / "doc.json"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(InputError, match=rf"^document {re.escape(str(path))}: {message}"):
        read_json(path, "document")


@pytest.mark.parametrize("kind", ["config", "model"])
def test_json_past_python_limits_exits_2(tmp_path, capsys, kind):
    # the decoder raises ValueError and RecursionError here, not JSONDecodeError
    for i, text in enumerate(['{"seed": ' + "1" * 5000 + "}", "[" * 100000 + "]" * 100000]):
        path = tmp_path / f"{kind}-{i}.json"
        path.write_text(text)
        model, config = (path, []) if kind == "model" else (tmp_path / "absent.json", ["--config", str(path)])
        assert main([*config, "generate", "--model", str(model), "--output", str(tmp_path / "s.csv")]) == 2
        assert f"{path}: not valid JSON" in capsys.readouterr().err


def test_only_jsonio_decodes_or_encodes_json():
    """No module of the package but ``jsonio`` imports ``json`` or calls
    ``json.load(s)``/``json.dump(s)``, so every JSON input keeps one reader."""
    users = []
    for path in sorted(Path(leadkin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Attribute) and node.attr in ("load", "loads", "dump", "dumps"):
                modules = [node.value.id] if isinstance(node.value, ast.Name) else []
            else:
                continue
            if "json" in modules:
                users.append(f"{path.name}:{node.lineno}")
    assert users and all(user.startswith("jsonio.py:") for user in users), users
