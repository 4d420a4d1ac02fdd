"""The README's examples stay in step with the code they describe."""

import argparse
import json
import re
from pathlib import Path

import numpy as np

from tilerun.cli import build_parser
from tilerun.devices import Machine, homogeneous_machine
from tilerun.scheduler import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str) -> str:
    """The first fenced code block after ``heading``."""
    rest = README[README.index(heading):]
    return re.search(r"```[a-z]*\n(.*?)```", rest, re.S).group(1)


def test_readme_examples_match_the_code():
    # the device config example loads as it is shown
    machine = Machine.from_dict(json.loads(_block_after("### Device configuration")))
    assert machine.n_devices == 2

    # the report example has the report's top-level keys
    _, stats = run(homogeneous_machine(1), np.ones((2, 2)), np.ones((2, 2)), tile_size=2)
    example = json.loads(_block_after("### Run report"))
    assert example.keys() == stats.to_report_dict().keys()
    assert example["schema_version"] == stats.to_report_dict()["schema_version"]

    # each subcommand's synopsis lines list exactly the flags its parser takes
    synopsis = _block_after("## CLI")
    listed = {}
    for command in re.split(r"\n(?=tilerun )", synopsis.strip()):
        name = command.split()[1]
        listed.setdefault(name, set()).update(re.findall(r"--[a-z][a-z-]*", command))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert listed.keys() == subparsers.choices.keys()
    for name, parser in subparsers.choices.items():
        flags = {opt for a in parser._actions for opt in a.option_strings}
        assert listed[name] == flags - {"-h", "--help"}, name


def test_readme_library_examples_run():
    # the python blocks under "Quick start (library)", in one namespace,
    # as a reader would paste them one after the other
    section = README[README.index("## Quick start (library)"):README.index("## CLI")]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["loss"] < 0.05  # the XOR example trains
    # and its 2,000 steps leave no tile resident: each step retires its uids
    directory = namespace["backend"].runtime.directory
    assert [directory.used_tiles(d) for d in range(2)] == [0, 0]
