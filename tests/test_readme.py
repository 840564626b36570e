"""The README's library example runs as written and prints what it says."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_example_runs():
    blocks = _python_blocks()
    assert blocks, "README has no ```python block"
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        # a print line's trailing `# ...` comment is the output it promises
        promised = [
            line.partition("# ")[2] or None
            for line in block.splitlines()
            if line.startswith("print(")
        ]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(promised)
        for want, got in zip(promised, printed):
            assert want is None or got == want
