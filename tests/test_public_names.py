"""Every module's ``__all__`` is true: complete, resolvable, and each name has a caller."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import gossipsim
from gossipsim import credibility

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


def test_only_credibility_and_predictor_ask_a_credibility_its_family():
    """Each family answers its own questions, and predictor.py alone picks the predictors that apply
    to one: no other module calls ``isinstance`` on a credibility class."""
    families = {name for name in credibility.__all__ if not inspect.isfunction(getattr(credibility, name))}
    problems = []
    for path in sorted((ROOT / "src" / "gossipsim").glob("*.py")):
        if path.name in ("credibility.py", "predictor.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and len(node.args) == 2):
                continue
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            named = {getattr(k, "id", getattr(k, "attr", None)) for k in kinds}
            problems += [f"{path.name}:{node.lineno} isinstance on {name}" for name in sorted(named & families)]
    assert not problems, "\n".join(problems)


# What each of these modules may not import: the inputs of the choice of predictors, which predictor.py makes.
# The claims verify suite in harness.py checks the tau closed forms, so it keeps the tau thresholds.
PREDICTOR_INPUTS = {"Constant", "GROWTH_CONSTANT", "fixed_q_runtime", "general_strong_T"}
NOT_IMPORTED = {"cli.py": PREDICTOR_INPUTS | {"tau2_threshold", "tau3_threshold"}, "harness.py": PREDICTOR_INPUTS}


@pytest.mark.parametrize("module", list(NOT_IMPORTED))
def test_the_cli_and_harness_import_no_predictor_inputs(module):
    tree = ast.parse((ROOT / "src" / "gossipsim" / module).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & NOT_IMPORTED[module]
