import ast
import pathlib
import re
import types

import carveq
from carveq import serialize

from helpers import load_tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "carveq"


def readme_public_api():
    """The names in the README's "Public API" list items."""
    section = re.search(r"^### Public API\n(.*?)^`parse_any`", README.read_text(), re.M | re.S)
    items = re.findall(r"^- \w+:(.*?)(?=^- |\Z)", section.group(1), re.M | re.S)
    return {name for item in items for name in re.findall(r"`(\w+)`", item)}


def defined_names(path):
    """Names bound by the top-level functions, classes and assignments of
    the Python file ``path``."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_public_api_is_the_readme_list():
    # The README's "Public API" names against every non-module, non-dunder
    # name of the package: a new export fails here until the README
    # documents it, and so does a documented name dropped.
    exported = {
        name
        for name, value in vars(carveq).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert exported == readme_public_api()


def test_every_public_src_name_has_a_caller():
    """Each public top-level name of ``src/carveq`` is read somewhere in
    ``src/`` (as a name or an attribute), is in the README's "Public API"
    list, or is bound by the benchmark's tracer
    (``perfbench/tracer.py::_boundaries``).  The tracer's list is what
    lets ``codes.saturation_bound``, ``invariants.g_invariant`` and
    ``generators.gen_serial_value`` pass: nothing in ``src/`` calls them,
    and they stay until the tracer stops binding them."""
    modules = sorted(SRC.glob("*.py"))
    loaded = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    traced = {(module, attr.split(".")[0]) for module, attr, _, _ in load_tracer()._boundaries()}
    public = readme_public_api()
    uncalled = [
        f"{path.stem}.{name}"
        for path in modules
        for name in sorted(defined_names(path))
        if not name.startswith("_") and name not in loaded and name not in public and (path.stem, name) not in traced
    ]
    assert uncalled == []


CITATION = re.compile(r"`(tests/\w+\.py)?::(\w+)`")


def test_cited_tests_exist():
    """Every `tests/<file>.py::<name>` in the README names a function or a
    constant defined in that file.  A bare `::<name>` names one in the file
    cited last in the same table cell."""
    cited = 0
    for line in README.read_text().splitlines():
        for cell in line.split("|"):
            current = None
            for path, name in CITATION.findall(cell):
                current = path or current
                assert current is not None, f"::{name} follows no file in its cell: {line}"
                assert name in defined_names(ROOT / current), f"{current}::{name}"
                cited += 1
    assert cited > 0


def test_grammar_is_the_parser_table():
    """The README's grammar block is the one in ``serialize``'s docstring,
    line for line with indentation stripped, and the keywords it quotes
    after a '(' are the keys of the parser's table, ``set`` included.  A
    form added to the grammar or to the table alone fails here."""
    section = re.search(r"^## Serialization grammar\n(.*?)^## ", README.read_text(), re.M | re.S).group(1)
    readme = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1).splitlines()
    docstring = re.search(r"^Grammar .*:\n\n((?:    .*\n)+)", serialize.__doc__, re.M).group(1).splitlines()
    assert readme == [line.strip() for line in docstring]
    assert set(re.findall(r'"\s*\((\w+)', "\n".join(readme))) == set(serialize._RULES)
