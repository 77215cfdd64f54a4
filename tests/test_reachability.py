"""Every function in src/gibbstopics is reached from the command line. A NumPy
twin of a compiled kernel, or a checker only the tests call, belongs in
tests/oracles.py, never as a second code path in the package."""

import ast
import os
import shutil
import sys
from pathlib import Path

from gibbstopics import native
from gibbstopics.cli import main

PACKAGE = Path(native.__file__).resolve().parent
SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"

# The functions these runs cannot enter, each with the reason it stays.
UNREACHED = {
    "native._build": "compiles the library, which these runs find already cached",
    "cli.entry_point": "the console script's wrapper that calls main and ends the process; "
                       "tests/test_cli.py's TestExitPath runs it in child processes",
    "persistence.Corpus.docs": "per-document views that perfbench/tracer.py reads",
    "__init__.__getattr__": "library callers and perfbench/tracer.py resolve names through it, "
                            "while the CLI imports modules directly",
    "persistence._refuse_id_lines": "error path: names a malformed assignment line",
}

RUNS = (
    ["-model", "LDA", "-corpus", "{dir}/corpus.txt", "-ntopics", "4", "-niters", "4",
     "-sstep", "2", "-twords", "5", "-name", "tLDA", "-seed", "1"],
    ["-model", "DMM", "-corpus", "{dir}/corpus.txt", "-ntopics", "4", "-beta", "0.1",
     "-niters", "2", "-twords", "5", "-name", "tDMM", "-seed", "2"],
    # Before the inference runs, whose .theta files have other row counts.
    ["-model", "Eval", "-label", "{dir}/corpus.LABEL", "-dir", "{dir}", "-prob", "theta"],
    ["-model", "LDAinf", "-paras", "{dir}/tLDA.paras", "-corpus", "{dir}/unseenTest.txt",
     "-niters", "2", "-twords", "5", "-name", "tLDAinf", "-seed", "3"],
    ["-model", "DMMinf", "-paras", "{dir}/tDMM.paras", "-corpus", "{dir}/unseenTest.txt",
     "-niters", "2", "-twords", "5", "-name", "tDMMinf", "-seed", "4"],
)


def package_functions():
    """(file, first line) of every def in the package -> module.qualified.name.
    A decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = name
                visit(child, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem)
    return found


def test_every_src_function_runs_in_a_cli_mode(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(SAMPLE_DATA, data)
    entered = set()

    def trace(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    native._kernel.cache_clear()  # so that loading the library runs in the trace
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        codes = [main([a.replace("{dir}", str(data)) for a in args]) for args in RUNS]
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(RUNS), capsys.readouterr()
    entered = {(os.path.realpath(path), line) for path, line in entered}
    functions = package_functions()
    assert set(UNREACHED) <= set(functions.values())
    missed = sorted(name for key, name in functions.items() if key not in entered)
    assert [name for name in missed if name not in UNREACHED] == []
