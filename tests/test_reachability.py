"""Every function in the package is reached by running the command line,
apart from a short written list: a function that only tests call belongs
in the tests. Every private module constant is read, and every name a
module imports: one that nothing reads belongs nowhere. Every error class
that no other one extends is raised somewhere in the package."""

import ast
import contextlib
import io
import json
import subprocess
import sys
import types
from pathlib import Path

import tempdiag
from tempdiag.cli import main

from test_cli import DESK_CASES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(tempdiag.__file__).resolve().parent

#: The functions no run below reaches, each with the reason.
UNREACHED = {
    "__init__.__getattr__": "library only: the command line imports the "
                            "modules, not the package's lazy names",
    "cli.run": "the process entry: the console script and python -m "
               "tempdiag.cli call it, not main",
    "cli._Parser.error": "argparse's exit on a usage error",
    "cli._Parser._print_message": "argparse's exit on --help or --version",
    "cli._Parser._print_message.<lambda>": "argparse's exit on --help or "
                                           "--version",
    "errors.DiagnosisError.__init__": "error only: every error's message",
    "errors.NoCandidatesError.__init__": "error only: no candidate at an "
                                         "instant",
    "errors.RowSumError.__init__": "error only: a matrix row that does not "
                                   "sum to 1",
    "model._remade": "what a record's _replace calls: no command replaces "
                     "a record's fields",
    "modelio._load_json.unique.<genexpr>": "error only: the key an input "
                                           "object repeats",
    "revision.revise_trellis.<genexpr>": "error only: the admitted modes "
                                         "of a ZeroAdmittedMassError",
    "revision.StreamRevision.__getitem__": "one instant's paths: the "
                                           "report reads the flat arrays; "
                                           "kept for the benchmark's "
                                           "tracer, which iterates it and "
                                           "counts path_indices, until it "
                                           "counts the joints",
}


def functions() -> dict:
    """Each function of the package's modules, nested ones, lambdas and
    comprehensions too, by ``(file, first line, name)``: its module and
    qualified name."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = prefix + const.co_name
                if const.co_flags & 0x2:  # CO_NEWLOCALS: a function's code
                    found[const.co_filename, const.co_firstlineno,
                          const.co_name] = f"{module}.{name}"
                    walk(const, module, name + ".")
                else:  # a class body
                    walk(const, module, name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        walk(code, path.stem, "")
    return found


def test_every_function_is_reached(tmp_path, monkeypatch):
    """The first case of each ``bench/gen.py`` workload (seed 7) and every
    desk case on the shipped scenarios, run through ``cli.main`` under a
    profiler, call every function of the package but those listed in
    ``UNREACHED``."""
    argvs = [argv for _, argv in (case.values for case in DESK_CASES)]
    for workload in ("desk", "wide", "dense", "long"):
        out = tmp_path / workload
        subprocess.run([sys.executable, "bench/gen.py", "--workload",
                        workload, "--seed", "7", "--out", str(out)],
                       cwd=ROOT, check=True, capture_output=True)
        argvs.append(json.loads((out / "cases.json").read_text())[0]["argv"])
    monkeypatch.chdir(ROOT)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                code = main(argv)
            finally:
                sys.setprofile(None)
        assert code in (0, 2), argv
    found = functions()
    missing = sorted(name for key, name in found.items()
                     if key not in reached)
    assert missing == sorted(UNREACHED), missing


def test_every_private_constant_is_read():
    """Each private name a package module assigns at its top level
    (``_NAME = ...``) is read somewhere in the package: by name in its own
    module, or as an attribute of, or an import from, that module."""
    assigned, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            assigned += [(module, target.id) for target in targets
                         if isinstance(target, ast.Name)
                         and target.id.startswith("_")
                         and not target.id.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name):
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                read.update((node.module.rpartition(".")[2], alias.name)
                            for alias in node.names)
    assert assigned
    unread = [".".join(name) for name in assigned if name not in read]
    assert not unread, unread


def test_every_import_is_read():
    """Each name a package module imports at its top level (``import x``,
    ``import x as y``, ``from x import y``; not ``from __future__``) is
    read by name somewhere in that module."""
    imported, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(module, (alias.asname or alias.name
                                       ).partition(".")[0])
                             for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported += [(module, alias.asname or alias.name)
                             for alias in node.names]
        read.update((module, node.id) for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))
    assert imported
    unread = [".".join(name) for name in imported if name not in read]
    assert not unread, unread


def test_every_error_class_is_raised():
    """Each ``DiagnosisError`` subclass in ``errors.py`` that no other
    error class extends is named in some ``raise`` statement of the
    package: an error nothing raises is one no caller can meet."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    bases = {node.name: {base.id for base in node.bases
                         if isinstance(base, ast.Name)}
             for node in tree.body if isinstance(node, ast.ClassDef)}

    def is_error(name):
        return name == "DiagnosisError" or any(map(is_error,
                                                   bases.get(name, ())))

    extended = set().union(*bases.values())
    leaves = {name for name in bases
              if is_error(name) and name not in extended}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute)
                           else getattr(exc, "id", None))
    assert "NoCandidatesError" in leaves and "ValidationError" not in leaves
    assert sorted(leaves - raised) == []


def test_report_sections_sort_nothing():
    """``cli.py`` calls no numpy sort (``np.lexsort``, ``np.argsort``,
    ``np.sort``): its report sections only declare columns, and the
    engine gives their rows in the order the report prints them."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [f"{node.func.value.id}.{node.func.attr}"
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")
             and node.func.attr in ("lexsort", "argsort", "sort")]
    assert not calls, calls
