"""Every public name of the library is used by something other than its
own unit tests.

A public module-level function, class or constant of `src/netctl` must be
named in `src/` outside the lines that define it, in `scripts/`, in
`perfbench/` or in `tests/test_acceptance.py`.  A public method of a
module-level class must be read as an attribute (`.name`) in the same
places, unless a base class from outside netctl defines the name, as
argparse does for `cli._Parser.parse_known_args`.  A name that only its
own unit tests use is library code that no command, script, benchmark or
acceptance criterion runs: it belongs in the tests or nowhere.
"""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "netctl"


def public_definitions(tree):
    """(name, first line, last line) of each public module-level def,
    class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def public_methods(tree, module_name):
    """(qualified name, name, first line, last line) of each public method
    of a module-level class that no base class from outside netctl
    defines."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        cls = getattr(importlib.import_module(module_name), node.name)
        foreign = [base for base in cls.__mro__[1:]
                   if not base.__module__.startswith("netctl")]
        for item in node.body:
            if (isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and not any(item.name in vars(b) for b in foreign)):
                first = min([item.lineno]
                            + [d.lineno for d in item.decorator_list])
                yield (f"{node.name}.{item.name}", item.name, first,
                       item.end_lineno)


def unused_public_names():
    sources = {p: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src").rglob("*.py"))}
    outside = "\n".join(
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "scripts").rglob("*.py"))
        + sorted((ROOT / "perfbench").rglob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"])
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        others = [outside] + [text for p, text in sources.items()
                              if p != path]
        tree = ast.parse(sources[path])
        # a module-level name is matched as a word, a method as `.name`
        defined = [(name, rf"\b{re.escape(name)}\b", first, last)
                   for name, first, last in public_definitions(tree)]
        defined += [(qualified, rf"\.{re.escape(name)}\b", first, last)
                    for qualified, name, first, last
                    in public_methods(tree, f"netctl.{path.stem}")]
        for qualified, regex, first, last in defined:
            own = "\n".join(lines[:first - 1] + lines[last:])
            pattern = re.compile(regex)
            if not any(pattern.search(text) for text in [own] + others):
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_user():
    unused = unused_public_names()
    assert not unused, "named by nothing outside tests: " + ", ".join(unused)
