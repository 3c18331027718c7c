"""The README's library sketch and CLI examples run as written."""

import contextlib
import io
import pathlib
import re
import shlex

from logmeans.cli import EXIT_OK, build_parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    # the sketch calls the public API by hand, so a changed signature must fail here, not for a reader
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(sketch, str(README), "exec"), {})


def test_cli_examples_run(tmp_path, monkeypatch):
    # every `logmeans` line of an sh block, except the usage synopsis, runs through cli.main
    # in a scratch directory; the block's `mkdir -p` lines make its output directories
    lines = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        for line in block.splitlines()
    ]
    examples = [argv[1:] for argv in lines if argv[:1] == ["logmeans"] and "<command>" not in argv]
    assert examples
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        if argv[:2] == ["mkdir", "-p"]:
            for path in argv[2:]:
                (tmp_path / path).mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in examples:
            assert main(argv) == EXIT_OK, argv


def test_cli_synopsis_names_every_option():
    # the usage synopsis names exactly the parser's long options, so a flag added to or
    # removed from one of them without the other fails here
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    synopsis = next(block for block in blocks if "logmeans <command>" in block)
    documented = set(re.findall(r"\[(--[\w-]+)", synopsis))
    parsed = {
        option for action in build_parser()._actions for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == parsed
