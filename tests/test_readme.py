"""The README's ``python`` blocks run as written, in order, in one
namespace, and each ``print`` prints what its trailing comment says."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
_PRINT_COMMENT = re.compile(r"^print\(.*\)\s+#\s*(.*)$")


def test_readme_python_blocks_run():
    blocks = _BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    claims = [m.group(1) for block in blocks for line in block.splitlines()
              if (m := _PRINT_COMMENT.match(line))]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(claims)
    for line, claim in zip(printed, claims):
        assert claim.startswith(line), (line, claim)
