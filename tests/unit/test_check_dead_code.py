"""``scripts/check_dead_code.py``: a ``def`` or ``class`` in ``src/`` only
tests use fails the gate, and its allow-list may only shrink."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_dead_code", REPO / "scripts" / "check_dead_code.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _allow(tree, *entries):
    (tree / "scripts" / "dead_code_allowlist.txt").write_text(
        "# header\n" + "".join(f"{entry}\n" for entry in entries)
    )


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
    def git(*args):
        subprocess.run(["git", *args], cwd=tree, check=True, capture_output=True)

    _allow(tree)
    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base")
    _allow(tree, "src/pkg/mod.py:only_tested")
    assert gate.main(["--repo-root", str(tree)]) == 0
    assert gate.main(["--repo-root", str(tree), "--base", "HEAD"]) == 1
    assert "may only shrink" in capsys.readouterr().out
    # A base without the list (the commit that introduces it) checks nothing.
    (tree / "scripts" / "dead_code_allowlist.txt").rename(tree / "allow.txt")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "drop")
    (tree / "allow.txt").rename(tree / "scripts" / "dead_code_allowlist.txt")
    assert gate.main(["--repo-root", str(tree), "--base", "HEAD"]) == 0


def test_the_repository_passes_its_own_gate(gate):
    assert gate.main(["--repo-root", str(REPO)]) == 0
