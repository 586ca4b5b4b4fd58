"""Documentation-quality gates: every public module, class, and function
in the library carries a docstring, and the README's import claims hold."""

import importlib
import inspect
import pkgutil
import re

import repro
from tests.conftest import ROOT


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_module_has_docstring():
    missing = [m.__name__ for m in _walk_modules() if not m.__doc__]
    assert missing == []


def test_public_classes_and_functions_documented():
    undocumented = []
    for module in _walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module.__name__}.{name}")
    assert undocumented == []


def test_top_level_api_surface():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    # The README's advertised imports.
    from repro import Facility, RANGER, LONESTAR4  # noqa: F401
    from repro.xdmod import (  # noqa: F401
        UsageProfiler,
        EfficiencyAnalysis,
        PersistenceAnalysis,
        BouquetAnalysis,
        AppKernelMonitor,
    )
    from repro.anomaly import AncorAnalysis  # noqa: F401


def test_cli_entry_points_resolve():
    import tomllib
    with open("pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert len(scripts) >= 6
    for target in scripts.values():
        module, func = target.split(":")
        assert callable(getattr(importlib.import_module(module), func))


def _doc_texts():
    """``(path, text)`` of the docs, the verify skill and the CI
    workflow."""
    sources = [ROOT / "README.md", ROOT / "DESIGN.md",
               ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md")),
               ROOT / ".claude/skills/verify/SKILL.md",
               ROOT / ".github/workflows/ci.yml"]
    return [(source.relative_to(ROOT), source.read_text())
            for source in sources if source.exists()]


def test_paths_written_in_docs_exist():
    """Every ``benchmarks/``, ``tests/``, ``src/repro/`` or ``docs/``
    path the docs, the verify skill and the CI workflow name is a file
    or directory of this tree (run-time ``…/out/…`` artefacts excepted),
    so a deletion cannot leave its name behind."""
    path = re.compile(
        r"(?<![\w./-])((?:benchmarks|tests|src/repro|docs)/[\w./-]*)")
    dangling = sorted({
        f"{source}: {written}" for source, text in _doc_texts()
        for written in path.findall(text)
        if "/out/" not in written
        and not (ROOT / written.rstrip(".")).exists()})
    assert dangling == []


def test_tests_cited_in_docs_exist():
    """Every ``tests/…py::name`` the same sources cite names a ``def``
    or ``class`` of that file, so a deletion or a rename cannot leave
    its citation behind."""
    cited = re.compile(r"(tests/[\w/]+\.py)::(\w+)")
    dangling = sorted({
        f"{source}: {file}::{name}" for source, text in _doc_texts()
        for file, name in cited.findall(text)
        if not (ROOT / file).is_file() or not re.search(
            rf"^\s*(?:def|class) {name}\b", (ROOT / file).read_text(),
            re.M)})
    assert dangling == []
