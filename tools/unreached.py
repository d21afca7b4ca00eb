#!/usr/bin/env python3
"""Definitions in ``src/repro`` that nothing but ``tests/`` can reach.

A function, method or class is *reached* when its name is referenced from
``examples/ benchmarks/ perfbench/ tools/``, from module-level code of
``src/repro`` (which is where the CLI verb table lives) or from the body of
a reached definition — transitively, by bare name: ``x.foo`` reaches every
definition called ``foo``.  Imports and ``__all__`` lists are not references;
``getattr(x, "foo")`` and a ``"module:function"`` string (a verb-table
handler) are, and so is any identifier-shaped string in the caller directories
(``perfbench`` reads counters by name).  Dunder methods live and die with
their class.  Same-named definitions in different modules share one verdict.

The same scan lists write-only state: a ``self.name`` store (``+=``
included) in ``src/repro`` whose attribute no Python file in the repository,
tests included, loads as ``x.name`` or names in an identifier-shaped string.

    python tools/unreached.py            # list what is unreached or write-only
    python tools/unreached.py --check    # exit 1 on any write-only store, or
                                         # unless every unreached one is allow-listed

``tools/unreached_allow.txt`` holds one ``Qualified.name — reason`` line per
definition kept on purpose as test API; an entry that no longer names an
unreached definition fails the check too.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench", "tools")
ALLOW_FILE = ROOT / "tools" / "unreached_allow.txt"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BY_STRING = {"getattr", "hasattr", "setattr"}
HANDLER = re.compile(r"[\w.]+:(\w+)")


def references(nodes, strings: bool = False) -> set:
    """Every bare name the given AST nodes mention, nested definitions included."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                handler = HANDLER.fullmatch(node.value)
                if handler:
                    names.add(handler.group(1))
                elif strings and node.value.isidentifier():
                    names.add(node.value)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in BY_STRING
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(str(node.args[1].value))
    return names


def is_declaration(node) -> bool:
    """Imports and ``__all__``: they name things without using them."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def scan(body, owner: str, definitions: dict, always: set) -> None:
    """Split a module (or class) body into definitions and code that runs on import.

    ``definitions`` maps a qualified name to the name that reaches it (its
    own, or its class's for a dunder method) and the names it references.
    """
    for node in body:
        if not isinstance(node, DEFINITIONS):
            if not owner and not is_declaration(node):
                always |= references([node])
            continue
        inner = [n for n in node.body if isinstance(n, DEFINITIONS)] if isinstance(node, ast.ClassDef) else []
        dunder = owner and node.name.startswith("__") and node.name.endswith("__")
        key = owner.rpartition(".")[2] if dunder else node.name
        uses = references(n for n in ast.iter_child_nodes(node) if n not in inner)
        qualified = f"{owner}.{node.name}" if owner else node.name
        known = definitions.setdefault(qualified, (key, set()))
        known[1].update(uses)
        scan(inner, qualified, definitions, always)


def unreached() -> list:
    """Qualified names (``Class.method``) of the definitions nothing reaches."""
    definitions: dict = {}
    reached: set = set()
    for path in sorted(SOURCE.rglob("*.py")):
        scan(ast.parse(path.read_text(), str(path)).body, "", definitions, reached)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            reached |= references([ast.parse(path.read_text(), str(path))], strings=True)
    while True:
        live = [qualified for qualified, (key, _) in definitions.items() if key in reached]
        if not live:
            return sorted(definitions)
        for qualified in live:
            reached |= definitions.pop(qualified)[1]


def write_only() -> list:
    """``path:line self.name`` of every store in ``src/repro`` to an
    attribute that no Python file of the repository reads."""
    stores = []
    loaded = set()
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT)
        if any(part.startswith(".") for part in relative.parts):
            continue
        in_source = SOURCE in path.parents
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif (
                    in_source
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    stores.append((relative, node.lineno, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                loaded.add(node.value)
    return [f"{path}:{line} self.{name}" for path, line, name in stores if name not in loaded]


def main(argv) -> int:
    found = unreached()
    allowed = {}
    if ALLOW_FILE.exists():
        for line in ALLOW_FILE.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                name, _, reason = line.partition(" — ")
                allowed[name.strip()] = reason.strip()
    offenders = [name for name in found if name not in allowed]
    stale = sorted(set(allowed) - set(found))
    for name in found:
        print(name if name in offenders else f"{name}   (allowed: {allowed[name]})")
    for name in stale:
        print(f"stale allow-list entry: {name}")
    unread = write_only()
    for store in unread:
        print(f"write-only: {store}")
    if "--check" in argv and (offenders or stale or unread):
        print(
            f"{len(offenders)} unreached, {len(stale)} stale, {len(unread)} write-only; "
            "see tools/unreached_allow.txt",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
