"""The surface nobody calls: every function and class of ``src/repro`` is used by
product code — the package itself, the examples, the benchmark and the README's
code — outside its own body, or is listed in :data:`ALLOWED` with its reason.

The scan is by name, not a call graph: a use is a name, an attribute, an import,
a string constant that is a (dotted) identifier (a ``getattr`` key, a benchmark
layer's wrap spec) or an identifier of a README code span or Python block.
Docstrings and tests do not count: a helper only tests call is test scaffolding
shipped in the product.  Dunder methods are called by the language.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: ``qualified name -> reason`` for the definitions no product code uses.
ALLOWED = {
    "CommAction.determinant": "Eq. (2)'s determinant; the trace tests pin recorded ones",
    "SyncAction.determinant": "Eq. (2)'s determinant of a sync; as CommAction's",
    "OrderRecorder.consistency_order": "a §2.3 order: the oracle of generated programs",
    "OrderRecorder.happens_before": "a §2.3 order: the oracle of generated programs",
    "OrderRecorder.concurrent_hb": "a §2.3 order: the oracle of generated programs",
    "OrderRecorder.checkpoint_is_rma_consistent": "§2.3's consistent-checkpoint rule",
    "CounterBoard.of": "test oracle: one rank's Eq. (1) record",
    "Window.is_invalidated": "test oracle of a window's invalidate / reallocate cycle",
    "IntervalModel.multilevel_intervals": "the §5–§7 per-level cadence MultiLevelStore's "
    "levels= documents as its producer",
    "_HelpFormatter._expand_help": "argparse's HelpFormatter calls it",
}

_IDENT = re.compile(r"[A-Za-z_]\w*")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
_INLINE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _product_files() -> list[Path]:
    return [
        *sorted(SRC.rglob("*.py")),
        *sorted((ROOT / "examples").rglob("*.py")),
        *sorted((ROOT / "benchmarks").rglob("*.py")),
    ]


def _definitions(tree: ast.Module, path: Path):
    """``(name, qualified name, path, first line, last line)`` of every module-level
    function and class and every class member; nested functions are bodies."""
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qual = prefix + child.name
                yield child.name, qual, path, child.lineno, child.end_lineno
                if isinstance(child, ast.ClassDef):
                    stack.append((child, qual + "."))
            else:  # a module-level ``if``/``try`` block, a class body's
                stack.append((child, prefix))


def _uses(tree: ast.Module):
    """``(name, line)`` of every use of a name in ``tree``."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS)) and node.body
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and _DOTTED.fullmatch(node.value)
        ):
            for word in node.value.split("."):
                yield word, node.lineno


def _readme_names() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    names = set()
    for block in _PYTHON_BLOCK.findall(readme):
        names.update(name for name, _ in _uses(ast.parse(block)))
    for span in _INLINE.findall(_PYTHON_BLOCK.sub("", readme)):
        if _DOTTED.match(span.strip()):  # code, not prose in backticks
            names.update(_IDENT.findall(span))
    return names


def _unused() -> dict[str, str]:
    """``qualified name -> "path:line"`` of each definition no product code uses."""
    definitions, uses = [], {}
    for path in _product_files():
        tree = ast.parse(path.read_text(), str(path))
        if path.is_relative_to(SRC):
            definitions += _definitions(tree, path)
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    in_readme = _readme_names()
    unused = {}
    for name, qual, path, first, last in definitions:
        if (name.startswith("__") and name.endswith("__")) or name in in_readme:
            continue
        if not any(p != path or not first <= line <= last for p, line in uses.get(name, ())):
            unused[qual] = f"{path.relative_to(ROOT)}:{first}"
    return unused


def test_every_definition_is_used_by_product_code_or_allowed_with_a_reason():
    unused = _unused()
    uncalled = {qual: where for qual, where in unused.items() if qual not in ALLOWED}
    assert not uncalled, (
        "only tests (or nothing) use these; delete them, or list them in ALLOWED "
        f"with the reason they stay: {uncalled}"
    )
    stale = sorted(set(ALLOWED) - set(unused))
    assert not stale, f"ALLOWED lists names product code now uses: {stale}"
