"""The README's library examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {})
    assert capsys.readouterr().out
