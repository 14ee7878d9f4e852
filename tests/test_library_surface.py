"""The library holds no public name that only tests use.

Every public top-level name in ``src/sparsehalf`` (a function, a class or a
module constant) must be read somewhere in the library outside its own
definition.  A name read only by other such names is unused too, so the
search repeats until nothing more drops out.  Test-only helpers belong in
``tests/oracles.py``.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sparsehalf"

#: the certificate writer's text form, which the benchmark's bench/test_bench.py imports
ALLOWED = {"decompmat.serialize_decomposition"}


def public_definitions(trees: dict[str, ast.Module]) -> dict[str, ast.stmt]:
    """``module.name`` -> its top-level def, class or assignment, for every name without a leading underscore."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            out.update({f"{module}.{name}": node for name in names if not name.startswith("_")})
    return out


def unused_names(trees: dict[str, ast.Module]) -> set[str]:
    definitions = public_definitions(trees)
    names_of = defaultdict(set)  # id of a top-level statement -> the public names it defines
    for qualified, node in definitions.items():
        names_of[id(node)].add(qualified)
    readers = defaultdict(list)  # a bare name -> the top-level statements that read it
    for tree in trees.values():
        for statement in tree.body:
            for n in ast.walk(statement):
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                    readers[n.id if isinstance(n, ast.Name) else n.attr].append(statement)
    dead: set[str] = set()
    while True:  # a statement that defines only unused names reads nothing
        found = {
            qualified for qualified, node in definitions.items()
            if qualified not in ALLOWED and not any(
                statement is not node and (not names_of[id(statement)] or names_of[id(statement)] - dead)
                for statement in readers[qualified.split(".", 1)[1]])
        }
        if found == dead:
            return dead
        dead = found


def test_every_public_library_name_is_read_by_the_library():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert public_definitions(trees)  # the parse found the package
    assert sorted(unused_names(trees)) == []


def test_the_search_follows_chains_of_unused_names():
    trees = {"lib": ast.parse("def used():\n    return 1\n\n"
                              "def helper():\n    return helper()\n\n"
                              "def entry():\n    return helper()\n\n"
                              "LIMIT = 3\n"
                              "used()\n")}
    assert unused_names(trees) == {"lib.helper", "lib.entry", "lib.LIMIT"}


def test_size_guards_live_in_the_cli_alone():
    """Only cli.py raises GuardError, and no library function or config takes a ``force`` that lifts a guard."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    raisers = {module for module, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.Raise)
               and any(isinstance(n, ast.Name) and n.id == "GuardError" for n in ast.walk(node))}
    assert raisers == {"cli"}
    forced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree) if module != "cli" else ():
            if isinstance(node, ast.FunctionDef):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                forced.update(f"{module}.{node.name}" for a in params if a.arg == "force")
            elif isinstance(node, ast.ClassDef):
                forced.update(f"{module}.{node.name}" for field in node.body
                              if isinstance(field, ast.AnnAssign) and getattr(field.target, "id", None) == "force")
    assert sorted(forced) == []
