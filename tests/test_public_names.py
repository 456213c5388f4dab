"""Every module's ``__all__`` is true: complete, resolvable, and each name has a caller."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import gossipsim

ROOT = Path(__file__).resolve().parents[1]

# Public names kept without a caller in the program, each with its reason.
UNCALLED = {
    "save_graph": "the writer of the file: graph format that load_graph reads",
    "general_lower_T": "the lower stopping-time bound that ROADMAP item 1 is about",
}


def _references() -> Counter:
    """Names loaded or looked up as attributes in src/, scripts/ and perfbench/.

    ``__init__.py``, every ``__all__`` list and a top-level function or class's
    own name inside its own definition do not count.
    """
    files = [p for p in sorted((ROOT / "src" / "gossipsim").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    refs = Counter()
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                continue
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    refs[name] += 1
    return refs


def test_every_all_is_complete_and_called():
    refs = _references()
    problems = []
    for info in pkgutil.iter_modules(gossipsim.__path__):
        module = importlib.import_module(f"gossipsim.{info.name}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        where = module.__name__
        problems += [f"{where}: {name} does not resolve" for name in listed if not hasattr(module, name)]
        problems += [f"{where}: {name} listed twice" for name, k in Counter(listed).items() if k > 1]
        public = [
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == where
        ]
        problems += [f"{where}: {name} missing from __all__" for name in public if name not in listed]
        problems += [
            f"{where}: {name} has no caller" for name in listed if not refs[name] and name not in UNCALLED
        ]
    problems += [f"{name} is allowlisted but has a caller" for name in UNCALLED if refs[name]]
    assert not problems, "\n".join(problems)
