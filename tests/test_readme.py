"""The README's Python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run_in_order(tmp_path, monkeypatch):
    # each block builds on the names of the blocks before it, as a reader
    # pasting them into one interpreter would; files land in tmp_path
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 4
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__readme__"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
