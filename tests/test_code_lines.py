"""The code-line rule of ``tools/code_lines.py``, the count that simplicity
targets are stated in: a line counts if it holds a token other than a
comment, and docstrings do not count."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# A comment on its own line.
class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,

        with a blank line inside."""
        return os.path.join(
            "a",
            "b",
        )


TEXT = """a string that is
not a docstring"""


async def f():
    """Async docstring."""
    x = 1
    "a bare string after the first statement is not a docstring"
'''


def test_rule_on_a_snippet():
    # import, class, def, the four lines of the call, the two lines of TEXT,
    # async def, x = 1 and the bare string.
    assert code_lines.code_lines(SNIPPET) == 1 + 1 + 1 + 4 + 2 + 1 + 1 + 1


def test_blank_and_comment_only_sources_are_empty():
    assert code_lines.code_lines("\n\n# only a comment\n") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_cli_prints_files_and_total(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\nz = 3\n')
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert rows == [["2", str(tmp_path / "a.py")], ["1", str(tmp_path / "sub" / "b.py")],
                    ["3", "total"]]
