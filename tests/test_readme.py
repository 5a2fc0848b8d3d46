"""The README's Python examples run as written: every ```python block, in
order, in one namespace, so a block may use the names an earlier one made."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
BLOCK_RE = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order():
    text = README.read_text(encoding="utf-8")
    blocks = list(BLOCK_RE.finditer(text))
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        # Padded so that a traceback gives the line in the README.
        lines_before = text.count("\n", 0, block.start(1))
        exec(compile("\n" * lines_before + block.group(1), str(README), "exec"), namespace)
