"""What the package imports and exports.

numpy is imported only in the two modules that do bulk arithmetic, and only inside the functions
that do it, so a command that builds no array never loads numpy.  No module imports `dataclasses`,
`inspect`, `logging`, `datetime` or `typing`, which cost start-up time and serve no command.  Every
exported name is read by the package or the benchmark, and README's library tour runs as written.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shiftdyn

SRC = Path(shiftdyn.__file__).parent
UNUSED = ["dataclasses", "inspect", "logging", "datetime"]  # modules no command needs loaded


def _imported(node: ast.AST) -> set[str]:
    """The top-level packages an import statement names; none for any other node or a relative import."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[0] for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def _imports(node: ast.AST, in_function: bool = False):
    """(package, line, whether inside a function body) of each absolute import under node."""
    for child in ast.iter_child_nodes(node):
        for name in _imported(child):
            yield name, child.lineno, in_function
        inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _imports(child, inner)


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def test_numpy_is_imported_only_by_weights_and_criteria():
    users = {name for name, tree in _trees().items() if any(pkg == "numpy" for pkg, *_ in _imports(tree))}
    assert users == {"weights.py", "criteria.py"}


def test_no_module_imports_numpy_when_it_is_imported():
    # an import in a class body or under a module-level `if` runs at import time too
    at_import = [(name, line) for name, tree in _trees().items()
                 for pkg, line, in_function in _imports(tree) if pkg == "numpy" and not in_function]
    assert at_import == []


def test_no_module_imports_what_no_command_needs():
    # typing too: site may preload it, so only this check keeps it out of the import path
    found = [(name, pkg, line) for name, tree in _trees().items()
             for pkg, line, _ in _imports(tree) if pkg in [*UNUSED, "typing"]]
    assert found == []


_RUN_COMMANDS = """
import json, sys
from pathlib import Path
preloaded = set(sys.modules)
from shiftdyn.cli import main

d = Path(sys.argv[1])
def write(name, obj):
    (d / name).write_text(json.dumps(obj), encoding="utf-8")
    return str(d / name)

barg = {"direction": "backward", "weights": {"family": "bargmann_composite", "p": 1}}
op = write("op.json", barg)
vec = write("v.json", {"p": 1, "entries": [[3, 0.0, 0.0], [5, -1.0, 0.5]]})
pair = write("pair.json", {"left": barg, "right": barg})
tvec = write("w.json", {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]})
targets = write("t.json", {"targets": [{"p": 0, "entries": [[0, 0.0, 0.0]]}]})
spec = write("s.json", {"family": "theta_raw", "nu": 3.0})
commands = [
    ["eigen", "--lambda=0.5,0.1", "--mu=0.3,0", "--tail=-20"],
    ["eigen", "--op", pair, "--lambda=0.5,0.1", "--mu=0.3,0", "--tail=-20"],
    ["periodic", "--q", "2", "--tail=-20"],
    ["hypercyclic", "--targets", targets, "--eps", "1e-3"],
    ["density-probe", "--count", "1", "--tail=-20"],
    ["op", "apply", "--op", op, "--vec", vec],
    ["op", "power", "--op", op, "--vec", vec, "-k", "2"],
    ["op", "apply", "--op", pair, "--vec", tvec],
    ["inner", "--vec", tvec, "--vec2", tvec],
    ["basis", "eval", "--basis", "theta", "-m", "3", "-z", "0.5,0.5"],
]
for i, argv in enumerate(commands):
    assert main([*argv, "--out", str(d / f"out{i}.json")]) == 0, argv
loaded = sorted(set(sys.modules) - preloaded)
assert main(["criterion", "--weights", spec, "-N", "10", "--out", str(d / "c.json")]) == 0
print(json.dumps([loaded, sorted(set(sys.modules) - preloaded)]))
"""


@pytest.fixture(scope="module")
def newly_loaded(tmp_path_factory):
    """The modules a fresh interpreter loads for `import shiftdyn.cli` and every command that builds
    no array, then for those and one Salas scan."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, str(tmp_path_factory.mktemp("run"))],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_that_build_no_array_never_load_numpy(newly_loaded):
    # a fresh interpreter: the test process itself has numpy loaded
    before, after = newly_loaded
    assert "numpy" not in before
    assert "numpy" in after  # the control: a Salas scan loads numpy


def test_commands_that_build_no_array_load_nothing_they_do_not_use(newly_loaded):
    before, _ = newly_loaded
    assert "shiftdyn.cli" in before  # the control: the import came after the snapshot
    assert [name for name in UNUSED if name in before] == []


def _reads(tree: ast.AST, skip: str = ""):
    """The names a module reads (loaded names and attributes), outside the definition of `skip`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        yield from _reads(node, skip)


def test_every_exported_name_is_read_by_the_package_or_the_benchmark():
    # a name that only the tests use belongs with the tests; methods are out of scope
    trees = _trees()
    exported = [a.asname or a.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    bench = sorted((SRC.parents[1] / "bench").glob("*.py"))
    assert bench
    readers = [*trees.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in bench)]
    unread = [name for name in exported if not any(name in _reads(tree, name) for tree in readers)]
    assert unread == []


def test_readme_library_tour_runs_as_written():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, "README.md: Library tour", "exec"), {"__name__": "readme_tour"})
