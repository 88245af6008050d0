import ast
import os
import pydoc
import shlex
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

import stablekron
from stablekron.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet_runs_as_written(capsys):
    namespace: dict = {}
    exec(readme_library_snippet(), namespace)
    lam, nu, mu = namespace["lam"], namespace["nu"], namespace["mu"]
    assert namespace["stable_kronecker"](lam, nu, mu) == (1, "copieri")
    assert len(capsys.readouterr().out.splitlines()) == 4  # one line per orbit


def readme_cli_lines() -> list[tuple[str, str]]:
    """The README's CLI lines as (command, comment) pairs."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        tuple(part.strip() for part in line.partition("#")[::2])
        for line in block.splitlines()
    ]


def test_readme_cli_lines_run_as_written(capsys):
    # The verify sweeps are the acceptance suite's; every other line runs
    # here, and a "# -> X" comment pins the first line of its output.
    pinned = 0
    for command, comment in readme_cli_lines():
        argv = shlex.split(command)
        assert argv[0] == "stablekron", command
        if argv[1] == "verify":
            continue
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        if comment.startswith("-> "):
            assert out.splitlines()[0] == comment[3:], command
            pinned += 1
    assert pinned == 2


def test_public_names_are_the_readme_api():
    names = {
        name
        for name, value in vars(stablekron).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {
        "Partition",
        "parse_partition",
        "stable_kronecker",
        "stable_kronecker_oracle",
        "enumerate_std0",
        "enumerate_sstd",
        "reading_word",
        "is_lattice",
    }


def run_module(*args):
    """Exit code, stdout and stderr of `python -m stablekron.cli` run from src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "stablekron.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_exit_codes():
    ok = run_module("count", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1")
    assert ok == (0, "1 (copieri)\n", "")
    code, out, err = run_module("enumerate", "std0", "-l", "2,1", "-n", "2,1", "-s", "1")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # Start-up cost: each of these takes milliseconds to import.  The
    # standard-library modules the package uses are loaded first, so only
    # what stablekron itself pulls in counts, on every Python version.
    code = (
        "import sys, argparse, collections, enum, functools, json, math, operator, signal\n"
        "before = set(sys.modules)\n"
        "import stablekron.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_pipe_ends_silently():
    # 111,600 bytes of output, more than a pipe buffer: the reader takes
    # one line and closes the pipe, and the command ends by SIGPIPE with
    # nothing on stderr, not in a BrokenPipeError traceback and exit 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["enumerate", "std", "-l", "2,1", "-n", "2,1", "-s", "5"]
    with subprocess.Popen(
        [sys.executable, "-m", "stablekron.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == "4934 tableaux\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == ""


# Defs that no library code reaches but bench/ reads.  The cli workload's
# cached runs read the on-disk character cache (save_character_cache,
# load_character_cache, and _shape under them); ROADMAP direction 1a
# deletes these with it.  bench/tracing.py's Std0 replay reads
# KroneckerTableau.levels, and apply_step under it, as do
# tests/reference.py's is_path, swap and classical_by_replay; direction
# 1b moves them to tests/reference.py once the replay metrics go.
UNREACHED_FOR_BENCH = {
    "characters.save_character_cache",
    "characters.load_character_cache",
    "characters._shape",
    "tableaux.KroneckerTableau.levels",
    "tableaux.apply_step",
}


def _module_level(node):
    """The nodes of code that runs at import: everything outside def
    bodies, so a def's decorators and argument defaults but not its body."""
    if isinstance(node, ast.FunctionDef):
        for part in (*node.decorator_list, node.args):
            yield from ast.walk(part)
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _module_level(child)


def _names(nodes):
    """The names read, not assigned: `x = property(...)` in a class body
    reaches no def named x."""
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_library_def_is_reached():
    # Roots: the package exports, cli.entry, the names module-level code
    # uses, dunder methods and methods that override a stdlib base's.  A
    # reached def reaches every name its body uses; a def that nothing
    # reaches belongs in tests/reference.py, not in the library.
    package = ROOT / "src" / "stablekron"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defs, reached = {}, {"entry"}
    reached |= {alias.name for n in trees["__init__"].body if isinstance(n, ast.ImportFrom) for alias in n.names}
    for module, tree in trees.items():
        reached |= set(_names(_module_level(tree)))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                bases = [pydoc.locate(ast.unparse(base)) for base in node.bases]
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{method.name}"] = method
                        if method.name.startswith("__") or any(hasattr(b, method.name) for b in bases):
                            reached.add(method.name)
    pending = set(defs)
    while grown := {q for q in pending if q.rsplit(".", 1)[1] in reached}:
        pending -= grown
        reached |= {name for q in grown for name in _names(ast.walk(defs[q]))}
    assert pending == UNREACHED_FOR_BENCH
