"""The surface nobody calls: every function and class of ``src/repro`` is used by
product code — the package itself, the examples, the benchmark and the README's
code — outside its own body, or is listed in :data:`ALLOWED` with its reason; and
every parameter with a default is passed by product code, or is listed in
:data:`ALLOWED_OPTIONS` with its reason.

The definition scan is by name, not a call graph: a use is a name, an attribute,
an import, a string constant that is a (dotted) identifier (a ``getattr`` key, a
benchmark layer's wrap spec) or an identifier of a README code span or Python
block.  Docstrings and tests do not count: a helper only tests call is test
scaffolding shipped in the product.  Dunder methods are called by the language.

The option scan resolves a call by its callee's name to every ``def`` of that
name whose signature accepts it (``self.m(...)`` to the class's own family,
``cls(...)`` and ``super().__init__`` to the class and its base, ``C(...)`` to
the ``__init__`` ``C`` runs).  A parameter is passed by a keyword, a position,
``functools.partial``, or a keyword or dict-literal string key that reaches a
registry constructor's ``**params``.  A wrapper forwarding its own parameter of
the same name passes it only if the wrapper's own is passed (or required).
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

_ACCUMULATE_OP = (
    "the reduction of MPI-3's accumulate family, the RMA interface the paper's "
    "protocols log: an operation's determinant records it and replay re-applies it"
)
_LOCK_STRUCTURE = (
    "the paper's `str`, the locked structure of §2.3's lock order (Eq. 3); sync "
    "determinants carry it, and tests/test_trace.py pins their sha256"
)
_MULTILEVEL = "the §5–§7 per-level cadence model: MultiLevelStore(levels=)'s producer"

#: ``"qualified name(parameter=)" -> reason`` for the defaulted parameters no
#: product call passes.
ALLOWED_OPTIONS = {
    **dict.fromkeys((
        "WindowHandle.accumulate(op=)", "WindowHandle.accumulate_nb(op=)",
        "RankContext.accumulate(op=)", "RankContext.accumulate_nb(op=)",
        "RankContext.get_accumulate(op=)", "RankContext.fetch_and_op(op=)",
        "RmaRuntime.accumulate(op=)", "RmaRuntime.accumulate_nb(op=)",
        "RmaRuntime.get_accumulate(op=)", "RmaRuntime.fetch_and_op(op=)",
    ), _ACCUMULATE_OP),
    **dict.fromkeys((
        "RankContext.lock(structure=)", "RankContext.unlock(structure=)",
        "RmaRuntime.lock(structure=)", "RmaRuntime.unlock(structure=)",
        "SyncAction.issued(structure=)",
    ), _LOCK_STRUCTURE),
    **dict.fromkeys((
        "IntervalModel.multilevel_intervals(kinds=)",
        "IntervalModel.multilevel_intervals(level_rates=)",
        "IntervalModel.multilevel_intervals(dirty_fraction=)",
        "level_capture_seconds(dirty_fraction=)",
    ), _MULTILEVEL),
    "MultiLevelStore(levels=)": "the §5–§7 level stack; its default is the "
    "paper's parity-then-disk pair",
    "DiskStore(directory=)": "a path: where spilled checkpoints go (a fresh "
    "scratch directory when None)",
    "launch(watchdog=)": "the wall-clock step limit the README documents for "
    "hung real-process runs",
    "Job(watchdog=)": "launch(watchdog=), forwarded",
    "main(argv=)": "a CLI entry point: argparse reads sys.argv when it is None",
    "Job.allocate(dtype=)": "a window's element type (MPI windows are typed): "
    "integer windows reach the integer atomics and the proc wire's dtype paths",
    "ProcBackend(ack_timeout=)": "the wedged-worker WatchdogError is reached "
    "only with a deadline shorter than the wedge; the 60 s default would "
    "stall the suite",
    "FaultInjector(kill_on_respawn=)": "kills a replacement worker the instant "
    "recovery spawns it, before its restore; a planned kill fires at a "
    "completion or a barrier, after the restore",
    "CommAction(seq=)": "dataclasses.replace hands every field back: a copied "
    "action keeps its issue id",
    "CommAction(nbytes=)": "dataclasses.replace hands every field back: a "
    "copied action keeps its byte count",
    "baseline_gate(max_ratio=)": "passed from --max-regression by "
    "cli.engine_main through `gate`, a partial of it the name scan cannot resolve",
    "CoordinatedCheckpointer.checkpoint(tag=)": "FtStack.begin_step passes "
    "tag=step through the `attempt` alias the name scan cannot resolve",
    "CoordinatedCheckpointer.maybe_checkpoint(tag=)": "FtStack.begin_step passes "
    "tag=step through the `attempt` alias the name scan cannot resolve",
}

_IDENT = re.compile(r"[A-Za-z_]\w*")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
_INLINE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


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


class _Def:
    """One ``def`` of a scanned module: its parameters by role, and where it is."""

    def __init__(self, node, cls: str | None, where: str, checked: bool) -> None:
        a = node.args
        positional = [arg.arg for arg in a.posonlyargs + a.args]
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        self.positional = positional[cls is not None and not static:]
        self.params = {*positional, *(arg.arg for arg in a.kwonlyargs)}
        self.defaulted = positional[len(positional) - len(a.defaults):] + [
            arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        ]
        self.required = self.params - set(self.defaulted)
        self.varargs, self.kwargs = a.vararg is not None, a.kwarg is not None
        self.cls, self.name, self.node, self.where = cls, node.name, node, where
        init = node.name == "__init__"
        self.qual = (cls if init else f"{cls}.{node.name}") if cls else node.name
        self.checked = checked and (init or not node.name.startswith("__"))

    def accepts(self, args: list, keywords: list) -> bool:
        return (len(args) <= len(self.positional) or self.varargs) and (
            self.kwargs or all(k.arg in self.params for k in keywords if k.arg)
        )


def _callee(func) -> str | None:
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _unpassed_options(modules: dict[str, ast.Module], defining: set[str]) -> dict[str, list]:
    """``"qualified name(parameter=)" -> ["path:line", ...]`` of each defaulted
    parameter of a module- or class-level ``def`` in the ``defining`` modules that
    no call in ``modules`` passes."""
    defs, calls, keys, bases, stored, registries = [], [], [], {}, {}, set()

    def walk(node, label: str, cls: str | None, stack: list) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [b.id for b in child.bases if isinstance(b, ast.Name)]
                walk(child, label, child.name, stack)
                continue
            if isinstance(child, _FUNCTIONS):
                checked = label in defining and not stack
                defs.append(_Def(child, cls, f"{label}:{child.lineno}", checked))
                walk(child, label, None, [*stack, defs[-1]])
                continue
            if isinstance(child, ast.Call):
                calls.append((child, stack))
                if _callee(child.func) == "register_kind" and len(child.args) > 1:
                    registries.add(_callee(child.args[1]))
            elif isinstance(child, ast.Dict):
                keys.extend(
                    (k.value, v, stack) for k, v in zip(child.keys, child.values)
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):  # a registry's classes
                value = child.value
                assign = isinstance(child, ast.Assign)
                for target in child.targets if assign else [child.target]:
                    if isinstance(value, ast.Dict):
                        stored.setdefault(_callee(target), set()).update(
                            v.id for v in value.values if isinstance(v, ast.Name)
                        )
                    elif isinstance(target, ast.Subscript) and isinstance(value, ast.Name):
                        stored.setdefault(_callee(target.value), set()).add(value.id)
            walk(child, label, cls, stack)

    for label, tree in modules.items():
        walk(tree, label, None, [])

    by_name, inits, family = {}, {}, {}
    for d in defs:
        if d.name == "__init__" and d.cls:
            inits[d.cls] = d
        else:
            by_name.setdefault(d.name, []).append(d)
    for cls, parents in bases.items():  # a class, its bases and its subclasses
        for parent in parents:
            family.setdefault(cls, {cls}).add(parent)
            family.setdefault(parent, {parent}).add(cls)

    def init_of(cls: str | None) -> _Def | None:  # the __init__ a call of ``cls`` runs
        while cls is not None and cls not in inits:
            cls = next(iter(bases.get(cls, ())), None)
        return inits.get(cls)

    def registry_inits(node) -> list[_Def]:  # the constructors of the registries it names
        named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & registries
        return [i for r in named for c in sorted(stored.get(r, ())) if (i := init_of(c))]

    passed, forwards = set(), []

    def pass_(target: _Def, param: str, value, stack: list) -> None:
        name = getattr(value, "id", None)
        own = next((d for d in reversed(stack) if name in d.params), None)
        if own is not None and name == param:
            forwards.append((own, param, target))
        else:
            passed.add((target, param))

    for call, stack in calls:
        func, args, keywords = call.func, call.args, call.keywords
        if _callee(func) == "partial" and args:
            func, args = args[0], args[1:]
        name, cls = _callee(func), stack[0].cls if stack else None
        owner = getattr(func, "value", None)  # ``owner.name(...)``
        if name == "__init__" and cls and _callee(getattr(owner, "func", None)) == "super":
            targets = [init_of(next(iter(bases.get(cls, ())), None))]
        elif name == "cls" and cls:
            targets = [init_of(cls)]
        else:
            targets = [*by_name.get(name, ()), init_of(name)]
            if cls and _callee(owner) == "self":
                own_family = family.get(cls, {cls})
                targets = [t for t in targets if t and t.cls in own_family] or targets
        for target in targets:
            if target is None or not target.accepts(args, keywords):
                continue
            for param, value in zip(target.positional, args):
                if isinstance(value, ast.Starred):
                    break
                pass_(target, param, value, stack)
            reached = registry_inits(call)
            if target.kwargs:
                reached += registry_inits(target.node)
            for k in keywords:
                if k.arg in target.params:
                    pass_(target, k.arg, k.value, stack)
                elif k.arg:
                    for init in reached:
                        if k.arg in init.params:
                            pass_(init, k.arg, k.value, stack)
    made = [  # the constructors a ``make_*(spec, **params)`` resolves
        init for d in defs if d.kwargs and d.name.startswith("make_")
        for init in registry_inits(d.node)
    ]
    for key, value, stack in keys:
        for init in made:
            if key in init.params:
                pass_(init, key, value, stack)
    grew = True
    while grew:
        grew = False
        for own, param, target in forwards:
            if (target, param) not in passed and (
                not own.checked or param in own.required or (own, param) in passed
            ):
                passed.add((target, param))
                grew = True
    unpassed = {}
    for d in defs:
        for param in d.defaulted if d.checked else ():
            if (d, param) not in passed:
                unpassed.setdefault(f"{d.qual}({param}=)", []).append(d.where)
    return unpassed


def _product_modules() -> dict[str, ast.Module]:
    modules = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
        for path in _product_files()
    }
    readme = (ROOT / "README.md").read_text()
    for index, block in enumerate(_PYTHON_BLOCK.findall(readme)):
        modules[f"README.md#{index}"] = ast.parse(block)
    return modules


def test_every_defaulted_parameter_is_passed_by_product_code_or_allowed_with_a_reason():
    modules = _product_modules()
    unpassed = _unpassed_options(modules, {m for m in modules if m.startswith("src/")})
    unset = {option: at for option, at in unpassed.items() if option not in ALLOWED_OPTIONS}
    assert not unset, (
        "no product call passes these; delete them (the default becomes a constant), "
        f"or list them in ALLOWED_OPTIONS with the reason they stay: {unset}"
    )
    stale = sorted(set(ALLOWED_OPTIONS) - set(unpassed))
    assert not stale, f"ALLOWED_OPTIONS lists options product code now passes: {stale}"


_SYNTHETIC_LIBRARY = '''
from functools import partial


class Shape:
    def __init__(self, *, sides=3):
        self.sides = sides


SHAPES = {"shape": Shape}
register_kind("shape", SHAPES)


def make_shape(spec, **params):
    return resolve_component("shape", spec, SHAPES, **params)


def area(x, scale=1.0, unit="m"):
    return x * scale, unit


def outer(x, *, verbose=False):
    return inner(x, verbose=verbose)


def inner(x, *, verbose=False):
    return x, verbose


def fmt(x, *, digits=2):
    return round(x, digits)
'''

_SYNTHETIC_CALLER = '''
area(1, 2.0)
outer(3)
make_shape("shape", **{"sides": 4})
short = partial(fmt, digits=4)
'''


def _synthetic(caller: str) -> set[str]:
    modules = {"lib.py": ast.parse(_SYNTHETIC_LIBRARY), "app.py": ast.parse(caller)}
    return set(_unpassed_options(modules, {"lib.py"}))


def test_the_option_scan_flags_exactly_the_parameters_no_call_passes():
    # ``scale`` is passed by position, ``sides`` as a dict key reaching the
    # registry constructor, ``digits`` through ``partial``; ``outer``'s
    # ``verbose`` is passed by nobody, so its forward passes ``inner``'s neither.
    assert _synthetic(_SYNTHETIC_CALLER) == {
        "area(unit=)", "outer(verbose=)", "inner(verbose=)",
    }
    # Once the wrapper's own is passed, so is the parameter it forwards to.
    assert _synthetic(_SYNTHETIC_CALLER + "outer(3, verbose=True)\n") == {"area(unit=)"}
