"""The README's library sketch runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    # the sketch calls the public API by hand, so a changed signature must fail here, not for a reader
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(sketch, str(README), "exec"), {})
