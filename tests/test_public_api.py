"""Public-API surface tests.

The README and examples promise a stable import surface; these tests pin
it.  Every ``__all__`` name must resolve, every public package must import
cleanly, and the headline one-liner must work as documented.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.apps.navmenu",
    "repro.baseline",
    "repro.batch",
    "repro.cache",
    "repro.cli",
    "repro.datasets",
    "repro.debug",
    "repro.evaluation",
    "repro.extractor",
    "repro.grammar",
    "repro.grammar.example_g",
    "repro.grammar.standard",
    "repro.html",
    "repro.layout",
    "repro.learning",
    "repro.mediator",
    "repro.merger",
    "repro.observability",
    "repro.parser",
    "repro.query",
    "repro.refine",
    "repro.resilience",
    "repro.semantics",
    "repro.semantics.serialize",
    "repro.spatial",
    "repro.tokens",
    "repro.webdb",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_top_level_all_resolves(self, name):
        assert getattr(repro, name) is not None

    def test_subpackage_all_resolves(self):
        for package_name in PACKAGES:
            module = importlib.import_module(package_name)
            for name in getattr(module, "__all__", ()):
                assert getattr(module, name, None) is not None, (
                    package_name, name,
                )

    def test_version(self):
        assert repro.__version__

    def test_numpy_is_never_imported(self):
        """The package runs on the standard library alone: importing it,
        warming an extractor and extracting a form never load numpy."""
        script = (
            "import sys\n"
            "import repro, repro.server, repro.analysis\n"
            "from repro.datasets import QAM_HTML\n"
            "extractor = repro.FormExtractor()\n"
            "extractor.warmup()\n"
            "assert len(list(extractor.extract(QAM_HTML))) == 5\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'numpy'))\n"
        )
        source_root = str(Path(repro.__file__).resolve().parents[1])
        path = [source_root, os.environ.get("PYTHONPATH", "")]
        process = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        assert process.returncode == 0, process.stderr[-2000:]
        assert process.stdout.strip() == "[]"


class TestHeadlineUsage:
    def test_readme_one_liner(self):
        model = repro.FormExtractor().extract(
            "<form>Author: <input name=a></form>"
        )
        assert [c.attribute for c in model] == ["Author"]

    def test_condition_str_is_paper_notation(self):
        model = repro.FormExtractor().extract(
            "<form>Author: <input name=a></form>"
        )
        assert str(list(model)[0]) == "[Author; {contains}; text]"


class TestDocstrings:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_public_module_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, name

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert getattr(obj, "__doc__", None), name
