"""Tests for the report of definitions with no caller outside tests/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from unused_defs import main, scan  # noqa: E402


def _write(root: Path, files: dict) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_classifies_callers(tmp_path):
    _write(
        tmp_path,
        {
            "src/repro/mod.py": (
                "LIMIT = 3\n"
                "def used():\n    return helper()\n"
                "def helper():\n    return LIMIT\n"
                "def tested():\n    pass\n"
                "def dead():\n    pass\n"
                "class Box:\n"
                "    def __len__(self):\n        return 0\n"
                "    def visit_Name(self, node):\n        pass\n"
                "    def shown(self):\n        pass\n"
            ),
            "src/repro/dram/model.py": "def substrate():\n    pass\n",
            "examples/demo.py": "from repro.mod import used\nused()\n",
            "tests/test_mod.py": "from repro.mod import tested\ntested()\n",
            "Makefile": "run:\n\tpython -c 'Box().shown()'\n",
        },
    )
    rows = scan(tmp_path)
    # The Makefile calls Box().shown(); dunders, AST visitor methods and
    # the substrate models are never listed.
    assert rows == [
        ("src/repro/mod.py", 6, "tested", "tests only"),
        ("src/repro/mod.py", 8, "dead", "no caller"),
    ]


def test_report_only(capsys):
    assert main() == 0
    out = capsys.readouterr().out
    assert out.startswith("### Definitions with no caller outside tests/")
