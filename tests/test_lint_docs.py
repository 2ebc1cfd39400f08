"""The docs-consistency lint's two-way telemetry check, its check that
the repo paths the docs cite exist, its unreferenced-names pass, its
unset-options pass and its one-file-writer pass.

``tools/lint_docstrings.py`` is a standalone script (CI runs it without
installing the package), so it is loaded from its path here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint_docstrings", ROOT / "tools" / "lint_docstrings.py"
)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

DOC = """\
## 1. Elsewhere

| `not.in.section` | ignored | rows outside section 2 |

## 2. Telemetry reference

| Timer | Emitted by | Meaning |
| --- | --- | --- |
| `stage.job` | engine | one job |
| `stage.stream.<attack>` | session | one attack's push |
| `payload.pack` | backends | a stale row |

| Counter | Emitted by | Meaning |
| --- | --- | --- |
| `cache.hit` / `cache.miss` | cache | two names, one row |

## 3. Next section
"""

SOURCE = """\
from repro.obs import TELEMETRY

def work(name):
    with TELEMETRY.timer("stage.job"):
        with TELEMETRY.timer(f"stage.stream.{name}"):
            pass
    TELEMETRY.count("cache.hit")
    TELEMETRY.count("cache.miss")
    TELEMETRY.count("netpriv.undocumented", 2)
"""


def test_stale_row_and_undocumented_name_are_both_reported(tmp_path):
    src = tmp_path / "repro"
    src.mkdir()
    (src / "work.py").write_text(SOURCE)
    emitted = lint.emitted_telemetry(src)
    assert set(emitted) == {
        "stage.job", "stage.stream.*", "cache.hit", "cache.miss",
        "netpriv.undocumented",
    }
    problems = lint.check_telemetry_docs(DOC, emitted, Path("PERF.md"))
    assert len(problems) == 2
    stale, undocumented = problems
    assert stale.startswith("PERF.md:11:") and "'payload.pack'" in stale
    assert "documented but never emitted" in stale
    assert "'netpriv.undocumented'" in undocumented
    assert undocumented.startswith(f"{src / 'work.py'}:9:")


def test_repository_telemetry_reference_matches_the_code():
    text = lint.PERFORMANCE.read_text()
    assert lint.check_telemetry_docs(text, lint.emitted_telemetry()) == []


def test_stale_backticked_path_is_reported_with_its_line(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("")
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "`tests/test_x.py::TestX::test_y` and `tests/test_x.py:12` exist\n"
        "`fleet/engine.py` is module-relative, `tests/*.py` a glob\n"
        "`tests/gone.py` is stale, `python tests/gone.py` a command\n"
    )
    problems = lint.stale_doc_paths(doc, tmp_path)
    assert len(problems) == 1
    assert problems[0].startswith(f"{doc}:3:")
    assert "'tests/gone.py'" in problems[0]


def test_repository_docs_cite_only_existing_paths():
    assert [
        problem
        for doc in lint.path_checked_docs()
        for problem in lint.stale_doc_paths(doc)
    ] == []


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_names_only_tests_or_a_reexport_reach_are_reported(tmp_path):
    _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": (
            "from .mod import by_sibling, only_tests, only_reexported\n"
        ),
        "src/repro/pkg/mod.py": (
            "def by_sibling():\n    return 1\n\n\n"
            "def only_tests():\n    return only_tests\n\n\n"
            "def only_reexported():\n    return 3\n"
        ),
        "src/repro/pkg/user.py": (
            "from .mod import by_sibling\n\nVALUE = by_sibling()\n"
        ),
        "tests/test_mod.py": (
            "from repro.pkg import only_reexported, only_tests\n\n"
            "only_tests()\nonly_reexported()\n"
        ),
    })
    problems = lint.unreferenced_names(tmp_path)
    reported = sorted(p.split("'")[1] for p in problems)
    assert reported == ["pkg.mod.only_reexported", "pkg.mod.only_tests"]
    mod = tmp_path / "src" / "repro" / "pkg" / "mod.py"
    assert problems[0].startswith(f"{mod}:5:")


def test_repository_has_no_unreferenced_names():
    assert lint.unreferenced_names() == []


def test_options_no_call_sets_are_reported(tmp_path, monkeypatch):
    _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": (
            "def f(a, by_position=1, unset=2, by_keyword=3, *,\n"
            "      kw_only=4, by_partial=5):\n"
            "    return a\n\n\n"
            "class Thing:\n"
            "    def __init__(self, x=1, y=2):\n"
            "        self.x = x\n\n"
            "    def method(self, m=1):\n"
            "        return m\n\n\n"
            "def splatted(p=1, q=2):\n    return p\n\n\n"
            "def _hidden(h=1):\n    return h\n"
        ),
        "src/repro/pkg/_private.py": "def g(z=1):\n    return z\n",
        "tests/test_mod.py": (
            "import functools\n\n"
            "from repro.pkg import mod\n"
            "from repro.pkg.mod import Thing, f, splatted\n\n"
            "f(0, 1)\n"
            "mod.f(0, by_keyword=3)\n"
            "functools.partial(f, by_partial=5)\n"
            "Thing(y=2).method()\n"
            "splatted(**{})\n"
        ),
    })
    problems = lint.unset_options(tmp_path)
    reported = sorted((p.split("'")[3], p.split("'")[1]) for p in problems)
    assert reported == [("Thing", "x"), ("f", "kw_only"), ("f", "unset")]
    mod = tmp_path / "src" / "repro" / "pkg" / "mod.py"
    assert f"{mod}:1: option 'unset' of 'f' is set by no call" in problems

    monkeypatch.setitem(lint.UNSET_OPTIONS_ALLOWED, "pkg.mod.f.unset", "kept")
    reported = sorted(p.split("'")[1] for p in lint.unset_options(tmp_path))
    assert reported == ["kw_only", "x"]


def test_repository_sets_every_option():
    assert lint.unset_options() == []


def test_file_writes_outside_the_io_module_are_reported(tmp_path):
    writes = (
        "import os\nimport pickle\n\n\n"
        "def save(path, doc, clock):\n"
        "    with open(path, 'wb') as handle:\n"
        "        pickle.dump(doc, handle)\n"
        "    path.open(mode='a')\n"
        "    path.write_text('x')\n"
        "    os.replace(path, path)\n"
        "    with path.open() as handle:\n"
        "        return pickle.load(handle), pickle.dumps(doc), clock.open(clock)\n"
    )
    _tree(tmp_path, {
        "src/repro/datasets/io.py": writes,
        "src/repro/pkg/mod.py": writes,
    })
    problems = lint.file_writers(tmp_path)
    mod = tmp_path / "src" / "repro" / "pkg" / "mod.py"
    assert sorted(problems) == sorted(
        f"{mod}:{line}: {call}(...) {verb} a file outside repro.datasets.io"
        for line, call, verb in [
            (6, "open", "writes"), (7, "pickle.dump", "writes"),
            (8, "open", "writes"), (9, "write_text", "writes"),
            (10, "os.replace", "writes"), (12, "pickle.load", "reads"),
        ]
    )


def test_repository_writes_files_only_through_the_io_module():
    assert lint.file_writers() == []
