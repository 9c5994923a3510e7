import ast
import pathlib

import pytest

import htmem

MODULES = sorted(pathlib.Path(htmem.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports and never reads as a name, skipping
    ``from __future__`` and imports whose first line says ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def _stored_targets(node):
    """Assignment, ``for`` and ``with`` targets in ``node``'s own scope;
    a nested ``def`` is scanned on its own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            continue
        if isinstance(child, ast.Assign):
            yield from child.targets
        elif isinstance(child, (ast.AnnAssign, ast.For)):
            yield child.target
        elif isinstance(child, ast.With):
            yield from (item.optional_vars for item in child.items if item.optional_vars)
        yield from _stored_targets(child)


def unread_locals(source: str) -> list:
    """Names a ``def`` stores, by assignment, tuple target, or ``for`` or
    ``with`` target, and never reads anywhere inside it, nested functions
    included. ``_`` is exempt, and an augmented assignment is a read."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        inside = list(ast.walk(fn))
        read = {"_"} | {n.id for n in inside if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in inside if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        for target in _stored_targets(fn):
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id not in read:
                    unread.append(f"line {name.lineno}: {name.id} in {fn.name}")
    return unread


def calls_to(source: str, name: str) -> list:
    """Lines that call ``name``, by bare name or as a module attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def tape_constructions(source: str) -> list:
    """Lines that call ``Tape()``."""
    return calls_to(source, "Tape")


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nprint(math.pi)\n") == ["line 2: os"]
    assert unused_imports("import os  # noqa: F401\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_local():
    source = (
        "def f(xs):\n"
        "    n = len(xs)\n"
        "    a, (b, _) = xs\n"
        "    for i in xs:\n"
        "        with open(a) as fh:\n"
        "            pass\n"
        "    total = 0\n"
        "    total += 1\n"
        "    seen = 0\n"
        "    def g():\n"
        "        unused = seen\n"
        "    return g\n"
    )
    assert unread_locals(source) == [
        "line 2: n in f",
        "line 3: b in f",
        "line 4: i in f",
        "line 5: fh in f",
        "line 11: unused in g",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_local_is_assigned_and_never_read(path):
    assert unread_locals(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_silences_a_lint_check(path):
    """A ``# noqa`` marker would hide its line from the scans above."""
    assert "# noqa" not in path.read_text()


def test_the_scan_finds_a_tape_construction():
    source = "t = Tape()\nu = ad.Tape()\nv = tape.watch(w)\ndef f(tape: Tape): pass\n"
    assert tape_constructions(source) == [1, 2]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "autodiff.py"], ids=lambda p: p.name
)
def test_only_autodiff_builds_tapes(path):
    """Losses record on the caller's tape; ``autodiff.evaluate`` and the
    training step are the only places a tape is made."""
    assert tape_constructions(path.read_text()) == []


def test_the_scan_finds_a_sampler_call():
    source = "x = hallucinate(m, c, 3, 0)\ny = cvae.hallucinate(m, c, 3, 0)\nf = hallucinate\n"
    assert calls_to(source, "hallucinate") == [1, 2]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("plangraph.py", "pipeline.py")], ids=lambda p: p.name
)
def test_only_the_planner_and_the_pools_draw_samples(path):
    """Plan nodes are drawn in ``plangraph`` alone, and the scorers' negative
    pools in ``pipeline``; every other module reads what those drew."""
    assert calls_to(path.read_text(), "hallucinate") == []
