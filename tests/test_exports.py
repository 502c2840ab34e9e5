import ast
import inspect
from pathlib import Path

import torsod

SRC = Path(torsod.__file__).resolve().parent

# Public names that no module of the package calls, each with its reason.
UNCALLED = {
    "certificate_to_obj": "certificate schema, no reader yet (ROADMAP 9)",
    "certificate_from_obj": "certificate schema, no reader yet (ROADMAP 9)",
    "section_count": "public section-polytope read; the self-check reads "
                     "its slice of the label scan directly",
}


def _named_in_package():
    """Every name read in src/torsod/*.py outside ``__init__.py``.

    A ``def`` or ``class`` line binds its name without reading it, so a
    function counts only where some code refers to it.
    """
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_class_and_function_has_a_caller():
    public = {name for name in torsod.__all__
              if inspect.isclass(getattr(torsod, name))
              or inspect.isfunction(getattr(torsod, name))}
    # both ways: no other public name lacks a caller, and no listed one
    # has gained one, so the list cannot go stale
    assert sorted(public - _named_in_package()) == sorted(UNCALLED)
