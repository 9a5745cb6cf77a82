"""README and the module docstrings: each fact has one home, and README's CLI examples parse."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import labelfuse
from labelfuse import cli

README = Path(__file__).parent.parent / "README.md"


def normalized(text: str) -> str:
    return " ".join(text.split())


def documents() -> dict[str, str]:
    """README and every module docstring of the package, by name, whitespace normalised."""
    names = [labelfuse.__name__] + [
        info.name for info in pkgutil.walk_packages(labelfuse.__path__, f"{labelfuse.__name__}.")
    ]
    docs = {name: importlib.import_module(name).__doc__ or "" for name in names}
    return {"README.md": README.read_text(encoding="utf-8"), **docs}


# (pattern, home): README holds the user contract, a module docstring its mechanism.
ONE_HOME = [
    ("paired_scores(h_text", "labelfuse.fusion"),  # the vanilla alignment
    ("23 nodes", "labelfuse.fusion"),
    ("mu_main * main", "labelfuse.fusion"),  # the total objective
    ("ln((1+C)/(1+df))", "labelfuse.labelkit"),
    ("mean per-class recall", "labelfuse.evalkit"),
    ("row_l2_normalize", "labelfuse.diffcore"),  # the op set and the unused primitives
    ("-inf before a softmax", "labelfuse.diffcore"),  # padding and masking
    ("LONG_ROWS", "labelfuse.diffcore"),
    ("Segments((n,))", "labelfuse.diffcore"),
    ("(1, 0.5, 0.2, 0.2)", "README.md"),
    ("default_rng([seed, 3])", "README.md"),
    ("1000 + epoch", "README.md"),
    ("seed + 101", "README.md"),
    ("2 usage error", "README.md"),
    ("config/<subcommand>.json", "README.md"),
    ("leaves the old file", "README.md"),
    ("JSON header holding the generating spec", "README.md"),
    ("format_version", "README.md"),
    ("one heldout evaluation of", "README.md"),
]


@pytest.mark.parametrize("pattern, home", ONE_HOME)
def test_each_fact_has_one_home(pattern, home):
    counts = {name: normalized(text).count(pattern) for name, text in documents().items()}
    assert {name: n for name, n in counts.items() if n} == {home: 1}


def cli_examples() -> list[list[str]]:
    """Each `labelfuse ...` command of README's CLI code block, continuation lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_examples_parse_and_cover_every_subcommand(capsys):
    examples = cli_examples()
    parser = cli.build_parser()
    for argv in examples:
        assert argv[0] == "labelfuse"
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"{shlex.join(argv)}: {capsys.readouterr().err}")
    assert sorted(argv[1] for argv in examples) == sorted(sub.name for sub in cli.SUBCOMMANDS)
