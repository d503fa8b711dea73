"""The package surface: what `gradus` exports, what README shows of it, and
the imports of its modules."""

import ast
import contextlib
import io
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import gradus
from gradus import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(gradus).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(gradus.__all__) == sorted(public)
    assert len(set(gradus.__all__)) == len(gradus.__all__)


def _library_sketch():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_runs_and_its_figures_hold():
    # Each commented figure is the first number of the comment: the value of
    # the line's expression (or of the name it assigns), or its length.
    namespace = {}
    checked = []
    for line in _library_sketch().splitlines():
        code, _, comment = line.partition("#")
        exec(code, namespace)
        figure = re.search(r"\b\d+\b", comment)
        if figure is None:
            continue
        target, sep, expr = code.partition("=")
        got = namespace[target.strip()] if sep and "(" not in target else eval(code, namespace)
        got = got if isinstance(got, int) else len(got)
        assert got == int(figure.group()), line
        checked.append(got)
    assert checked == [20, 20, 24, 20]


def _cli_block_commands():
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_cli_block_runs():
    commands = _cli_block_commands()
    assert len(commands) == 9 and all(argv[0] == "gradus" for argv in commands)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv[1:]) == 0, " ".join(argv)


def test_the_package_and_the_cli_start_without_numpy():
    # A fresh interpreter: the library, the CLI and the check suites, then a
    # query, and numpy has never been imported.
    script = (
        "import contextlib, io, sys\n"
        "import gradus, gradus.cli, gradus.checks\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = gradus.cli.main(['show', 'B3:0,1,0'])\n"
        "print(code, 'B3:0,1,0' in out.getvalue(), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "False"]


def test_readme_names_only_attributes_that_exist():
    # Every backticked rs.NAME, g.NAME and p.NAME outside the code blocks is
    # an attribute of a built RootSystem, Grading or WeightPoset.
    g = gradus.parse_grading_spec("B3:0,1,0")
    built = {"rs": g.rs, "g": g, "p": g.weight_poset(1)}
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    named = {
        (obj, attr)
        for span in re.findall(r"`([^`]+)`", prose)
        for obj, attr in re.findall(r"\b(rs|g|p)\.(\w+)", span)
    }
    assert ("rs", "roots_of") in named
    assert sorted(f"{obj}.{attr}" for obj, attr in named if not hasattr(built[obj], attr)) == []


def test_internal_checks_hold_under_python_dash_o():
    # `python -O` drops assert statements, so a self-check in the package
    # raises AssertionError itself: fed a bad input, it still refuses.
    script = (
        "from types import SimpleNamespace\n"
        "from gradus import arrangement, checks, grading\n"
        "fake = SimpleNamespace(exponents=(1,), coxeter_number=1, cartan_type='X1')\n"
        "checks.parse_grading_spec = lambda s: grading.parse_grading_spec('E7:1,0,0,0,0,0,0')\n"
        "for check in (lambda: arrangement.catalan(fake), checks.e7_paper_grading):\n"
        "    try:\n"
        "        check()\n"
        "        print('passed')\n"
        "    except AssertionError:\n"
        "        print('refused')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused", "refused"]


def _unused_imports(path):
    """The names an import binds in a module and no expression reads, as
    `module:line name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_every_import_of_a_module_is_read():
    # __init__ imports names to export them, so it is left out.
    modules = sorted(Path(gradus.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    assert [u for path in modules if path.name != "__init__.py"
            for u in _unused_imports(path)] == []
