"""Where the package imports numpy: only in the two modules that do bulk arithmetic, and only
inside the functions that do it, so a command that builds no array never loads numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import shiftdyn

SRC = Path(shiftdyn.__file__).parent


def _is_numpy_import(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy"


def _numpy_imports(node: ast.AST, in_function: bool = False):
    """(line, whether inside a function body) of each numpy import under node."""
    for child in ast.iter_child_nodes(node):
        if _is_numpy_import(child):
            yield child.lineno, in_function
        inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _numpy_imports(child, inner)


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def test_numpy_is_imported_only_by_weights_and_criteria():
    users = {name for name, tree in _trees().items() if any(_numpy_imports(tree))}
    assert users == {"weights.py", "criteria.py"}


def test_no_module_imports_numpy_when_it_is_imported():
    # an import in a class body or under a module-level `if` runs at import time too
    at_import = [(name, line) for name, tree in _trees().items()
                 for line, in_function in _numpy_imports(tree) if not in_function]
    assert at_import == []


_RUN_COMMANDS = """
import json, sys
from pathlib import Path
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
loaded = "numpy" in sys.modules
assert main(["criterion", "--weights", spec, "-N", "10", "--out", str(d / "c.json")]) == 0
print(json.dumps([loaded, "numpy" in sys.modules]))
"""


def test_commands_that_build_no_array_never_load_numpy(tmp_path):
    # a fresh interpreter: the test process itself has numpy loaded
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert not before
    assert after  # the control: a Salas scan loads numpy
