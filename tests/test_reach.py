"""Every function and method in ``src/parahoric`` is run by a command or a demo.

The golden CLI corpus (``golden_cli.json``) and the demo scripts run in this
process under ``sys.setprofile``, with stdout and stderr captured, and every
call into a function defined in the package is recorded.  A function or
method that none of them calls is dead code, and belongs in the tests (as a
reference model) or nowhere.  ``global_product.py`` runs the CLI in a
subprocess, out of the tracer's reach; the golden ``global`` cases cover the
same calls.  The memo caches of the package are cleared first, so that a
function whose result an earlier test left in a cache is still called.
"""

import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

import parahoric
import parahoric.cli

from .golden import DEMOS, case_stdout, load_cases

PACKAGE = Path(parahoric.__file__).resolve().parent

# bench/spans.py looks these up by name, so they stay until the benchmark
# stops wrapping them (ROADMAP item 1); no command calls them.
UNREACHED_ALLOWED = {
    ("cohomology.py", "cocycle_of"),
    ("rootdata.py", "orbit_partition"),
    ("slmodel.py", "reversal_fixed_permutations"),
}


def defined_functions():
    """(file name, function name) by (file path, first line of the code
    object), the decorator line for a decorated function."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first)] = (path.name, node.name)
    return out


def clear_caches():
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("parahoric"):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_demo(path):
    """Run the demo script in this process as ``__main__``, stdout dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")


def reached_code(tmp_path):
    """(file path, first line) of every package function that the golden
    corpus and the demos call."""
    root = str(PACKAGE)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(root):
                seen.add((code.co_filename, code.co_firstlineno))

    clear_caches()
    sys.setprofile(profile)
    try:
        for case in load_cases():
            case_stdout(case, tmp_path)
        for path in DEMOS:
            if path.name != "global_product.py":
                run_demo(path)
    finally:
        sys.setprofile(None)
    return seen


def test_every_function_is_reached(tmp_path):
    defined = defined_functions()
    reached = reached_code(tmp_path)
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached == UNREACHED_ALLOWED
