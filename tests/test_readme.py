"""Every ```python block of README.md runs as written.

Each block is executed in a fresh namespace, so an example that names a
removed or renamed public function fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    assert BLOCKS
    for n, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {n}", "exec"), {})
