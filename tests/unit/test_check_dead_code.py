"""``scripts/check_dead_code.py`` fails on a ``def`` or ``class`` in ``src/``
only tests use, ``scripts/check_dead_options.py`` on a defaulted parameter
only tests pass, and each gate's allow-list may only shrink."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load("check_dead_code")


@pytest.fixture(scope="module")
def option_gate():
    return _load("check_dead_options")


@pytest.fixture
def tree(tmp_path):
    """A repository with one live def, one only a test calls, and a method
    only the language calls."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def opened(self):\n"
        "        return live()\n"
        "\n"
        "\n"
        "def live():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def only_tested():\n"
        "    return 2\n"
        "\n"
        "\n"
        "def entry():\n"
        "    return 3\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from pkg.mod import Box\n\nBox().opened()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import only_tested\n\nassert only_tested() == 2\n"
    )
    (tmp_path / "pyproject.toml").write_text(
        '[project.scripts]\npkg-entry = "pkg.mod:entry"\n'
    )
    return tmp_path


def _allow(tree, *entries, listing="dead_code_allowlist.txt"):
    (tree / "scripts" / listing).write_text(
        "# header\n" + "".join(f"{entry}\n" for entry in entries)
    )


def _git(tree, *args):
    subprocess.run(["git", *args], cwd=tree, check=True, capture_output=True)


def _commit(tree, message):
    _git(tree, "add", "-A")
    _git(tree, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", message)


def test_a_def_only_tests_call_fails_the_gate(gate, tree, capsys):
    assert gate.dead_definitions(tree) == ["src/pkg/mod.py:only_tested"]
    assert gate.main(["--repo-root", str(tree)]) == 1
    assert "src/pkg/mod.py:only_tested: no caller" in capsys.readouterr().out


def test_a_class_only_tests_use_fails_the_gate(gate, tree, capsys):
    # A base class is a use: ``Used`` lives through ``OnlyTested`` alone.
    (tree / "src" / "pkg" / "kinds.py").write_text(
        "class Used:\n    pass\n\n\nclass OnlyTested(Used):\n    LABEL = 1\n"
    )
    (tree / "tests" / "test_kinds.py").write_text(
        "from pkg.kinds import OnlyTested\n\nassert OnlyTested.LABEL == 1\n"
    )
    assert gate.dead_definitions(tree) == [
        "src/pkg/kinds.py:OnlyTested",
        "src/pkg/mod.py:only_tested",
    ]
    assert gate.main(["--repo-root", str(tree)]) == 1
    assert "src/pkg/kinds.py:OnlyTested: no caller" in capsys.readouterr().out


def test_an_allow_listed_def_passes_and_a_stale_line_fails(gate, tree, capsys):
    _allow(tree, "src/pkg/mod.py:only_tested  # reason")
    assert gate.main(["--repo-root", str(tree)]) == 0
    # The def goes: its line must go with it.
    mod = tree / "src" / "pkg" / "mod.py"
    mod.write_text(mod.read_text().replace("def only_tested", "def live_too"))
    (tree / "scripts" / "more.py").write_text("from pkg.mod import live_too\n")
    assert gate.main(["--repo-root", str(tree)]) == 1
    assert "is no longer dead" in capsys.readouterr().out


def test_the_allow_list_may_only_shrink(gate, tree, capsys):
    _allow(tree)
    _git(tree, "init", "-q")
    _commit(tree, "base")
    _allow(tree, "src/pkg/mod.py:only_tested")
    assert gate.main(["--repo-root", str(tree)]) == 0
    assert gate.main(["--repo-root", str(tree), "--base", "HEAD"]) == 1
    assert "may only shrink" in capsys.readouterr().out
    # A base without the list (the commit that introduces it) checks nothing.
    (tree / "scripts" / "dead_code_allowlist.txt").rename(tree / "allow.txt")
    _commit(tree, "drop")
    (tree / "allow.txt").rename(tree / "scripts" / "dead_code_allowlist.txt")
    assert gate.main(["--repo-root", str(tree), "--base", "HEAD"]) == 0


# ---------------------------------------------------------------------- #
# check_dead_options.py: defaulted parameters
# ---------------------------------------------------------------------- #
OPTIONS = "dead_option_allowlist.txt"
DEAD_OPTIONS = ["src/pkg/opts.py:Dial.__init__(unit)", "src/pkg/opts.py:tune(c)"]


@pytest.fixture
def option_tree(tree):
    """Defaulted parameters a script passes by keyword, by position, through
    a splat or to ``cls(...)`` in a classmethod, and two only a test sets."""
    (tree / "src" / "pkg" / "opts.py").write_text(
        "def tune(a, b=2, c=3, *, d=4):\n"
        "    return a + b + c + d\n"
        "\n"
        "\n"
        "def mix(x=0, y=0):\n"
        "    return x + y\n"
        "\n"
        "\n"
        "class Dial:\n"
        "    def __init__(self, level=0, unit='dB'):\n"
        "        self.level, self.unit = level, unit\n"
        "\n"
        "    @classmethod\n"
        "    def quiet(cls):\n"
        "        return cls(level=-1)\n"
        "\n"
        "    def turn(self, by=1, loud=False):\n"
        "        return by, loud\n"
    )
    (tree / "scripts" / "knobs.py").write_text(
        "from pkg.opts import Dial, mix, tune\n"
        "\n"
        "tune(1, 5, d=0)\n"
        "mix(**{'x': 1})\n"
        "Dial.quiet().turn(*[2, True])\n"
    )
    (tree / "tests" / "test_opts.py").write_text(
        "from pkg.opts import Dial, tune\n"
        "\n"
        "assert tune(1, c=0) == 7\n"
        "assert Dial(unit='V').unit == 'V'\n"
    )
    return tree


def test_an_option_passed_by_keyword_position_or_splat_is_live(
    option_gate, option_tree
):
    # b by position, d by keyword, x and y through **, by and loud through
    # *, level through cls(...): only c and unit are left, which tests set.
    assert option_gate.dead_options(option_tree) == DEAD_OPTIONS


def test_an_option_only_tests_set_fails_the_gate(
    gate, option_gate, option_tree, capsys
):
    assert option_gate.main(["--repo-root", str(option_tree)]) == 1
    out = capsys.readouterr().out
    assert "src/pkg/opts.py:tune(c): no caller outside tests/ passes it" in out
    _allow(option_tree, *DEAD_OPTIONS, listing=OPTIONS)
    assert option_gate.main(["--repo-root", str(option_tree)]) == 0
    # The definition gate reads its own list: only_tested still fails it.
    assert gate.main(["--repo-root", str(option_tree)]) == 1


def test_a_listed_option_that_is_no_longer_dead_fails(option_gate, option_tree, capsys):
    _allow(option_tree, *DEAD_OPTIONS, listing=OPTIONS)
    knobs = option_tree / "scripts" / "knobs.py"
    knobs.write_text(knobs.read_text() + "tune(1, c=0)\n")
    assert option_gate.main(["--repo-root", str(option_tree)]) == 1
    out = capsys.readouterr().out
    assert f"{OPTIONS}: src/pkg/opts.py:tune(c) is no longer dead" in out


def test_the_option_allow_list_may_only_shrink(option_gate, option_tree, capsys):
    _allow(option_tree, DEAD_OPTIONS[0], listing=OPTIONS)
    _git(option_tree, "init", "-q")
    _commit(option_tree, "base")
    _allow(option_tree, *DEAD_OPTIONS, listing=OPTIONS)
    argv = ["--repo-root", str(option_tree)]
    assert option_gate.main(argv) == 0
    assert option_gate.main([*argv, "--base", "HEAD"]) == 1
    out = capsys.readouterr().out
    assert f"{OPTIONS}: src/pkg/opts.py:tune(c) is new since HEAD" in out


def test_the_repository_passes_its_own_gate(gate, option_gate):
    assert gate.main(["--repo-root", str(REPO)]) == 0
    assert option_gate.main(["--repo-root", str(REPO)]) == 0
