"""Package layout.  Read from the source with ast: no zline module reaches
into another one's private names, and the functions the benchmark's
per-layer tracer wraps by name exist.  Read from the source and the
imported package: zline exports __version__ and exactly the union of its
modules' literal __all__, each name bound to its module's own object."""
import ast
from pathlib import Path

import pytest

import zline

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "zline"
_FILES = sorted(_SRC.glob("*.py"))
_MODULES = {p.stem for p in _FILES if p.stem != "__init__"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _zline_source(node: ast.ImportFrom):
    """The zline module an import reads from: a module stem, "" for the
    package itself, None for anything outside zline."""
    if node.level:
        return node.module or ""
    if node.module == "zline":
        return ""
    if node.module and node.module.startswith("zline."):
        return node.module.split(".", 1)[1]
    return None


def _cross_module_private_reads(tree: ast.Module, stem: str) -> list:
    """Every import of, or attribute read from, an underscore name of
    another zline module in the module `stem` parsed as tree."""
    found = []
    aliases = {}  # local name -> zline module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _zline_source(node)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "" and alias.name in _MODULES:
                    aliases[local] = alias.name  # a submodule, read below
                elif _private(alias.name):
                    found.append(f"line {node.lineno}: imports {source or 'zline'}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "zline" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and aliases[node.value.id] != stem
                and _private(node.attr)):
            found.append(f"line {node.lineno}: reads {aliases[node.value.id]}.{node.attr}")
    return found


def _all_of(path: Path):
    """The names of a module's literal __all__, or None without one."""
    for node in _tree(path).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


@pytest.mark.parametrize("path", _FILES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert _cross_module_private_reads(_tree(path), path.stem) == []


def test_the_rule_sees_private_reads():
    sample = ast.parse("from . import __version__, _angles, special\n"
                       "from .quad import _STEP\n"
                       "x = special._EM_SWITCH + _angles.ROW_ELEMS\n")
    assert _cross_module_private_reads(sample, "cli") == [
        "line 2: imports quad._STEP", "line 3: reads special._EM_SWITCH"]


def test_package_all_matches_module_all():
    modules = {path.stem: names for path in _FILES
               if path.stem != "__init__" and (names := _all_of(path))}
    package = zline.__all__
    assert len(package) == len(set(package))
    assert set(package) - {"__version__"} == {
        name for names in modules.values() for name in names}
    for stem, names in modules.items():
        module = getattr(zline, stem)
        for name in names:
            assert getattr(zline, name) is getattr(module, name), f"{stem}.{name}"


def _hooks():
    """(module stem, function, layer, has a counter) of every entry of the
    HOOKS table of zbench/spans.py, read from its source."""
    for node in _tree(_ROOT / "zbench" / "spans.py").body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)):
            out = []
            for entry in node.value.elts:
                module, function, layer = map(ast.literal_eval, entry.elts[:3])
                counter = entry.elts[3]
                counted = not (isinstance(counter, ast.Constant) and counter.value is None)
                out.append((module.split(".", 1)[1], function, layer, counted))
            return out
    raise AssertionError("zbench/spans.py has no HOOKS table")


def _functions(stem: str) -> set:
    """The top-level function names of src/zline/<stem>.py."""
    return {node.name for node in _tree(_SRC / f"{stem}.py").body
            if isinstance(node, ast.FunctionDef)}


def test_benchmark_hooks_name_live_functions():
    # the tracer wraps these functions by name and skips a name that is
    # gone, so a rename would read 0 in a metric instead of failing
    hooks = _hooks()
    live = {(stem, function) for stem, function, _, _ in hooks
            if function in _functions(stem)}
    dead_counters = [f"{stem}.{function}" for stem, function, _, counted in hooks
                     if counted and (stem, function) not in live]
    assert dead_counters == []
    layers = {layer for _, _, layer, _ in hooks}
    live_layers = {layer for stem, function, layer, _ in hooks
                   if (stem, function) in live}
    assert layers - live_layers == set()
