import pathlib
import re
import types

import carveq

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_public_api_is_the_readme_list():
    # The names in the README's "Public API" list items, against every
    # non-module, non-dunder name of the package: a new export fails here
    # until the README documents it, and so does a documented name dropped.
    section = re.search(r"^### Public API\n(.*?)^`parse_any`", README.read_text(), re.M | re.S)
    items = re.findall(r"^- \w+:(.*?)(?=^- |\Z)", section.group(1), re.M | re.S)
    documented = {name for item in items for name in re.findall(r"`(\w+)`", item)}
    exported = {
        name
        for name, value in vars(carveq).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented
