"""Every public name in bnkit has a caller outside the tests.

A public module-level function or class of a bnkit module must appear
somewhere outside its own definition: elsewhere in the package (its
``__init__`` re-exports do not count), in ``demos/`` or in ``perfbench/``.
A public method or property of a public class must be accessed as
``.name`` somewhere in those same files.  Code that only the tests call
belongs in ``tests/``.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import bnkit

ROOT = Path(__file__).resolve().parent.parent

#: public names kept without a caller, each with its reason
UNCALLED = {
    # the k-core predicate of the module docstring, exported by the package;
    # the engine calls its unchecked twin _is_core on partitions it built
    "bnkit.tableaux.is_core",
}


def _sources() -> dict[Path, str]:
    package = Path(bnkit.__file__).resolve().parent
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        files += (ROOT / folder).rglob("*.py")
    return {p.resolve(): p.read_text() for p in files}


def _public_names():
    for info in pkgutil.iter_modules(bnkit.__path__):
        module = importlib.import_module(f"bnkit.{info.name}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
            ):
                yield module, name, obj


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = _sources()
    uncalled = set()
    for module, name, obj in _public_names():
        own = Path(module.__file__).resolve()
        lines, start = inspect.getsourcelines(obj)
        word = re.compile(rf"\b{name}\b")
        for path, text in sources.items():
            if path == own:  # leave out the definition itself
                rows = text.splitlines()
                text = "\n".join(rows[:start - 1] + rows[start - 1 + len(lines):])
            if word.search(text):
                break
        else:
            uncalled.add(f"{module.__name__}.{name}")
    assert sorted(uncalled) == sorted(UNCALLED)


def test_every_public_method_and_property_is_accessed_outside_the_tests():
    text = "\n".join(_sources().values())
    unaccessed = [
        f"{module.__name__}.{name}.{member}"
        for module, name, cls in _public_names() if inspect.isclass(cls)
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, property))
        and not re.search(rf"\.{member}\b", text)
    ]
    assert unaccessed == []
