#!/usr/bin/env python
"""Offline docstring and docs-consistency lint for the repro package.

Five passes, all pure :mod:`ast`/text — no imports, no third-party deps:

1. **Docstrings** — walks ``src/repro/`` and fails if any public module
   or public class is missing a docstring.  Public means the
   module/class name (and every package segment on its path) does not
   start with an underscore — the ``_reference`` modules, for example,
   are internal and exempt, though in practice they are documented too.
2. **Docs consistency** — the documentation may not drift from the
   code:

   * every ``repro`` CLI subcommand (read from the ``add_parser`` calls
     in ``src/repro/cli.py``) must be mentioned in README.md or a file
     under ``docs/``;
   * every knob-mapping domain (read from ``register_knob_mapping``
     call sites, resolving module-level string constants) must be
     mentioned there too;
   * the telemetry reference (section 2 of ``docs/PERFORMANCE.md``) and
     the code agree both ways: every name in its tables is emitted by a
     ``TELEMETRY.count`` / ``TELEMETRY.timer`` call under ``src/repro/``,
     and every emitted name has a row.  ``<name>`` / ``{kind}`` segments
     (and f-string fields in the code) are placeholders, and a row whose
     first cell holds two quoted names documents both;
   * every relative intra-repo link in the top-level ``*.md`` files and
     ``docs/*.md`` must resolve to an existing file;
   * every backticked repo-relative path in README.md, DESIGN.md,
     EXPERIMENTS.md and ``docs/*.md`` must exist: a span whose first
     segment is a top-level directory (``tests/...``, ``benchmarks/...``),
     once any ``::test`` or ``:line`` suffix is stripped.  Spans holding
     whitespace, globs or placeholders are not paths.  CHANGES.md and
     ROADMAP.md are exempt: they name deleted and planned files on
     purpose.
3. **Unreferenced names** — every public module-level function or class
   in a public ``src/repro`` module must be referenced by a ``Name``,
   an ``Attribute`` or a ``from ... import`` somewhere in ``src/repro``,
   ``benchmarks/``, ``examples/``, ``perfbench/`` (outside its
   ``tests/``) or ``tools/``.  A package ``__init__`` re-export and the
   definition's own body do not count, so a name only ``tests/`` calls
   is reported.  :data:`UNREFERENCED_ALLOWED` lists the names that stay
   anyway, each with its reason.
4. **Unset options** — every defaulted parameter of a public module-level
   function, or of a public class's ``__init__``, in a public
   ``src/repro`` module must be passed by some call of that name
   anywhere in the repository, tests included: by keyword, by position
   or through ``functools.partial``; a ``**`` call passes every
   parameter and a ``*`` call every positional one.  An option no call
   sets is a constant; it is reported unless
   :data:`UNSET_OPTIONS_ALLOWED` keeps it, with its reason.
   Dataclass fields and methods other than ``__init__`` are out of scope.
5. **One file writer** — no module under ``src/repro`` but
   ``datasets/io.py`` may call ``os.replace``, ``os.rename``,
   ``pickle.dump``, ``pickle.load``, ``write_text``, ``write_bytes`` or an
   ``open`` whose constant mode writes: every kept file is written by
   ``write_atomic`` and every envelope read by ``read_envelope`` there.

Run from the repository root (CI does)::

    python tools/lint_docstrings.py

Exit status 0 when clean; 1 with a ``path:line: message`` listing
otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PERFORMANCE = ROOT / "docs" / "PERFORMANCE.md"


def _is_public_module(path: Path, src: Path = SRC) -> bool:
    rel = path.relative_to(src)
    parts = list(rel.parts[:-1]) + [rel.stem]
    return not any(p.startswith("_") and p != "__init__" for p in parts)


def check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: public module is missing a docstring")
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name.startswith("_"):
            continue
        if ast.get_docstring(node) is None:
            problems.append(
                f"{path}:{node.lineno}: public class {node.name!r} "
                "is missing a docstring"
            )
    return problems


# ----------------------------------------------------------------------
# Docs-consistency pass
# ----------------------------------------------------------------------

def cli_subcommands() -> list[tuple[str, int]]:
    """(name, line) of every ``sub.add_parser("<name>", ...)`` in cli.py."""
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            found.append((node.args[0].value, node.lineno))
    return found


def knob_domains() -> list[tuple[str, Path, int]]:
    """(domain, file, line) for every ``register_knob_mapping`` call site.

    The ``domain`` argument may be a string literal, a module-level
    string constant (``NETPRIV_KNOB_DOMAIN = "netpriv"``), or absent —
    the registry's default domain is ``"energy"``.
    """
    sites: list[tuple[str, Path, int]] = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "register_knob_mapping" not in text:
            continue
        tree = ast.parse(text, filename=str(path))
        constants: dict[str, str] = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == "register_knob_mapping")
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "register_knob_mapping")
                )
            ):
                continue
            domain_node = None
            for kw in node.keywords:
                if kw.arg == "domain":
                    domain_node = kw.value
            if domain_node is None and len(node.args) >= 3:
                domain_node = node.args[2]
            if domain_node is None:
                domain = "energy"
            elif isinstance(domain_node, ast.Constant) and isinstance(
                domain_node.value, str
            ):
                domain = domain_node.value
            elif isinstance(domain_node, ast.Name) and domain_node.id in constants:
                domain = constants[domain_node.id]
            else:
                continue  # dynamic domain — nothing checkable offline
            sites.append((domain, path, node.lineno))
    return sites


_PLACEHOLDER = re.compile(r"<[^>]*>|\{[^}]*\}")


def emitted_telemetry(src: Path = SRC) -> dict[str, tuple[Path, int]]:
    """Name -> first (file, line) of every ``TELEMETRY.count/timer`` call.

    f-string fields become ``*``, matching the docs' placeholders.
    """
    found: dict[str, tuple[Path, int]] = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        if "TELEMETRY." not in text:
            continue
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("count", "timer")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "TELEMETRY"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.JoinedStr):
                name = "".join(
                    part.value if isinstance(part, ast.Constant) else "*"
                    for part in arg.values
                )
            else:
                continue  # dynamic name — nothing checkable offline
            found.setdefault(name, (path, node.lineno))
    return found


def documented_telemetry(text: str) -> dict[str, int]:
    """Name -> line of every table row in PERFORMANCE.md section 2."""
    documented: dict[str, int] = {}
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        if line.startswith("## "):
            in_section = line.startswith("## 2.")
            continue
        if not (in_section and line.startswith("|")):
            continue
        first_cell = line.split("|")[1]
        for name in re.findall(r"`([^`]+)`", first_cell):
            documented.setdefault(_PLACEHOLDER.sub("*", name), i)
    return documented


def check_telemetry_docs(
    text: str,
    emitted: dict[str, tuple[Path, int]],
    doc: Path = PERFORMANCE,
) -> list[str]:
    """Both directions: no stale rows, no undocumented names."""
    documented = documented_telemetry(text)
    problems = [
        f"{doc}:{line}: telemetry name {name!r} is documented but never "
        "emitted under src/repro"
        for name, line in documented.items()
        if name not in emitted
    ]
    problems += [
        f"{path}:{line}: telemetry name {name!r} has no row in {doc.name} "
        "section 2"
        for name, (path, line) in emitted.items()
        if name not in documented
    ]
    return problems


def doc_files() -> list[Path]:
    return sorted(ROOT.glob("*.md")) + sorted((ROOT / "docs").glob("*.md"))


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_PATH_SUFFIX = re.compile(r"::.*$|:\d[\d-]*$")
_NOT_A_PATH = re.compile(r"[\s*?<>{}\[\]]")


def path_checked_docs() -> list[Path]:
    """The docs whose backticked repo paths must exist."""
    return [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md"))]


def stale_doc_paths(doc: Path, root: Path = ROOT) -> list[str]:
    """Every backticked repo-relative path in ``doc`` that does not exist."""
    tops = {p.name for p in root.iterdir() if p.is_dir()}
    problems = []
    for i, line in enumerate(doc.read_text().splitlines(), start=1):
        for span in _CODE_SPAN.findall(line):
            path = _PATH_SUFFIX.sub("", span)
            head, _, rest = path.partition("/")
            if not rest or head not in tops or _NOT_A_PATH.search(path):
                continue
            if not (root / path).exists():
                problems.append(
                    f"{doc}:{i}: stale path {span!r} ({path} does not exist)"
                )
    return problems


def check_docs_consistency() -> list[str]:
    problems: list[str] = []
    docs = doc_files()
    corpus = "\n".join(p.read_text() for p in docs)

    for name, line in cli_subcommands():
        if name not in corpus:
            problems.append(
                f"{SRC / 'cli.py'}:{line}: CLI subcommand {name!r} is not "
                "mentioned in README.md or docs/"
            )
    seen: set[str] = set()
    for domain, path, line in knob_domains():
        if domain in seen:
            continue
        seen.add(domain)
        if domain not in corpus:
            problems.append(
                f"{path}:{line}: knob domain {domain!r} is not mentioned "
                "in README.md or docs/"
            )
    problems.extend(
        check_telemetry_docs(PERFORMANCE.read_text(), emitted_telemetry())
    )

    for doc in docs:
        for i, text_line in enumerate(doc.read_text().splitlines(), start=1):
            for target in _LINK.findall(text_line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                if not (doc.parent / rel).exists():
                    problems.append(
                        f"{doc}:{i}: broken link {target!r} "
                        f"({doc.parent / rel} does not exist)"
                    )
    for doc in path_checked_docs():
        problems.extend(stale_doc_paths(doc))
    return problems


# ----------------------------------------------------------------------
# Unreferenced-names pass
# ----------------------------------------------------------------------

#: Public names that only tests reference and that stay, with the reason.
UNREFERENCED_ALLOWED = {
    "attacks.profiling.build_profile":
        "Sec. II-A profiling, waiting on a paper finding",
    "attacks.profiling.usage_hours_histogram":
        "Sec. II-A profiling, waiting on a paper finding",
    "defenses.local.LocalAnalyticsHub":
        "Sec. III-D local services, waiting on a paper finding",
    "defenses.dp.dp_aggregate_consumption":
        "Sec. III-A differential privacy, waiting on a paper finding",
    "timeseries.events.pair_edges":
        "batch reference the streamed Hart pairer is pinned against",
    "ml.kernels.joint_chain_params_loop":
        "loop reference the FHMM joint-chain kernel is pinned against",
    "fleet.artifacts.artifact_from_report":
        "library entry point docs/CLAIMS.md documents",
    "timeseries.series.constant":
        "flat-trace constructor the test fixtures build on",
}

#: Trees whose references keep a public name alive (``tests/`` is not one).
REFERENCE_DIRS = ("src/repro", "benchmarks", "examples", "perfbench", "tools")


def _reference_files(root: Path) -> list[Path]:
    files = []
    for rel in REFERENCE_DIRS:
        files += sorted((root / rel).rglob("*.py"))
    tests = root / "perfbench" / "tests"
    return [p for p in files if tests not in p.parents]


def _names_in(node: ast.AST, reexport: bool) -> set[str]:
    """Every ``Name``, ``Attribute`` and ``from ... import`` name under node.

    With ``reexport`` (a package ``__init__``), imports do not count.
    """
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and not reexport:
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_names(root: Path = ROOT) -> list[str]:
    """Public module-level functions and classes under ``src/repro`` that
    nothing outside ``tests/`` references and no allowlist entry keeps.

    Names match by their bare identifier, so any attribute or variable of
    the same name keeps a function alive; a definition's own body does
    not.  Methods are out of scope: resolving them needs the imports.
    """
    src = root / "src" / "repro"
    referenced: set[str] = set()
    defined: list[tuple[str, Path, int]] = []
    for path in _reference_files(root):
        tree = ast.parse(path.read_text(), filename=str(path))
        reexport = path.name == "__init__.py"
        public = src in path.parents and _is_public_module(path, src)
        for node in tree.body:
            names = _names_in(node, reexport)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.discard(node.name)
                if public and not node.name.startswith("_"):
                    module = ".".join(path.relative_to(src).with_suffix("").parts)
                    defined.append((f"{module}.{node.name}", path, node.lineno))
            referenced |= names
    return [
        f"{path}:{line}: public name {qualname!r} is referenced only by "
        "tests (delete it, or allowlist it with a reason)"
        for qualname, path, line in defined
        if qualname.rpartition(".")[2] not in referenced
        and qualname not in UNREFERENCED_ALLOWED
    ]


# ----------------------------------------------------------------------
# Unset-options pass
# ----------------------------------------------------------------------

_STREAM_ADAPTER = (
    "registry-built: make_stream_attack(**kwargs) passes it; checkpoints store it"
)
_CHECKPOINTED = "a threshold stream checkpoints store"

#: Defaulted parameters no call sets that stay anyway, with the reason.
UNSET_OPTIONS_ALLOWED = {
    "stream.session.EdgeStreamAttack.min_delta_w": _STREAM_ADAPTER,
    "stream.session.EdgeStreamAttack.settle_samples": _STREAM_ADAPTER,
    "stream.session.EdgeStreamAttack.tolerance_w": _STREAM_ADAPTER,
    "stream.session.NIOMStreamAttack.window_s": _STREAM_ADAPTER,
    "stream.session.NIOMStreamAttack.night_prior": _STREAM_ADAPTER,
    "stream.session.HMMStreamAttack.lag": _STREAM_ADAPTER,
    "stream.session.FHMMStreamAttack.lag": _STREAM_ADAPTER,
    "stream.niom.StreamingThresholdNIOM.baseline_quantile": _CHECKPOINTED,
    "stream.niom.StreamingThresholdNIOM.mean_margin": _CHECKPOINTED,
    "stream.niom.StreamingThresholdNIOM.std_margin": _CHECKPOINTED,
    "home.appliances.LightingAppliance.noise_w":
        "part of the home fingerprint every cache key and digest hashes",
    "ml.forest.RandomForestClassifier.max_features":
        "tests set it through a loop over both tree classes",
    "fleet.sweep.run_sweep.workers":
        "a deployment setting (pool size) README's library example sets",
}

#: Trees whose calls can set an option (``tests/`` included).
OPTION_CALL_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench", "tools")


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[ast.arg, int | None]]:
    """Each defaulted parameter of ``fn`` with its positional index (``None``
    for a keyword-only one); ``self`` does not count for a method."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found: list[tuple[ast.arg, int | None]] = [
        (arg, i) for i, arg in enumerate(positional) if i >= first
    ]
    found += [
        (arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(root: Path) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Callee name -> (positional count, keywords, passes everything) of
    every call under :data:`OPTION_CALL_DIRS`.

    ``functools.partial(f, ...)`` counts as a call of ``f``; a ``**``
    argument passes every parameter and a ``*`` one every positional one.
    """
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for rel in OPTION_CALL_DIRS:
        for path in sorted((root / rel).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                if name is None:
                    continue
                n_positional = len(args)
                if any(isinstance(a, ast.Starred) for a in args):
                    n_positional = sys.maxsize
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                everything = any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (n_positional, keywords, everything)
                )
    return calls


def unset_options(root: Path = ROOT) -> list[str]:
    """Defaulted parameters of public module-level functions and public
    classes' ``__init__`` in public ``src/repro`` modules that no call of
    that name passes, and no allowlist entry keeps.

    Calls match by the callee's bare name (``f(...)``, ``x.f(...)``), so
    any same-named call keeps an option.  Dataclass fields and methods
    other than ``__init__`` are out of scope.
    """
    src = root / "src" / "repro"
    calls = _calls(root)
    problems = []
    for path in sorted(src.rglob("*.py")):
        if not _is_public_module(path, src):
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn, method = node, False
            elif isinstance(node, ast.ClassDef):
                fn = next(
                    (
                        item
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"
                    ),
                    None,
                )
                method = True
            else:
                continue
            if fn is None or node.name.startswith("_"):
                continue
            for arg, index in _defaulted(fn, method):
                if f"{module}.{node.name}.{arg.arg}" in UNSET_OPTIONS_ALLOWED:
                    continue
                if any(
                    arg.arg in keywords
                    or everything
                    or (index is not None and n_positional > index)
                    for n_positional, keywords, everything in calls.get(
                        node.name, ()
                    )
                ):
                    continue
                problems.append(
                    f"{path}:{arg.lineno}: option {arg.arg!r} of "
                    f"{node.name!r} is set by no call"
                )
    return problems


# ----------------------------------------------------------------------
# One-file-writer pass
# ----------------------------------------------------------------------

#: The one module under ``src/repro`` that writes and reads kept files.
WRITER_MODULE = ("datasets", "io.py")

#: ``module.function`` calls that only that module may make.
_MODULE_CALLS = {
    ("os", "replace"): "writes",
    ("os", "rename"): "writes",
    ("pickle", "dump"): "writes",
    ("pickle", "load"): "reads",
}
#: Methods that write a file whatever they are called on.
_WRITE_METHODS = ("write_text", "write_bytes")


def _opens_for_writing(node: ast.Call) -> bool:
    """An ``open(path, mode)`` or ``x.open(mode)`` call whose constant
    mode writes, appends or creates."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
    if mode is None and len(node.args) > position:
        mode = node.args[position]
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(c in mode.value for c in "wax+")
    )


def file_writers(root: Path = ROOT) -> list[str]:
    """Calls under ``src/repro``, outside ``datasets/io.py``, that write a
    file (or unpickle one) instead of going through ``write_atomic`` and
    ``read_envelope``."""
    src = root / "src" / "repro"
    problems = []
    for path in sorted(src.rglob("*.py")):
        if path == src.joinpath(*WRITER_MODULE):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if _opens_for_writing(node):
                call, verb = "open", "writes"
            elif isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
                call, verb = func.attr, "writes"
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and (func.value.id, func.attr) in _MODULE_CALLS
            ):
                call = f"{func.value.id}.{func.attr}"
                verb = _MODULE_CALLS[(func.value.id, func.attr)]
            else:
                continue
            problems.append(
                f"{path}:{node.lineno}: {call}(...) {verb} a file outside "
                "repro.datasets.io"
            )
    return problems


def main() -> int:
    if not SRC.is_dir():
        print(f"source tree not found: {SRC}", file=sys.stderr)
        return 2
    files = sorted(p for p in SRC.rglob("*.py") if _is_public_module(p))
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    problems.extend(check_docs_consistency())
    problems.extend(unreferenced_names())
    problems.extend(unset_options())
    problems.extend(file_writers())
    if problems:
        print("\n".join(problems))
        print(f"\n{len(problems)} lint problem(s) in {len(files)} files")
        return 1
    n_docs = len(doc_files())
    print(
        f"docstring lint: {len(files)} public modules clean; "
        f"docs consistency: {len(cli_subcommands())} subcommands, "
        f"{len({d for d, _, _ in knob_domains()})} knob domains, "
        f"{len(emitted_telemetry())} telemetry names, "
        f"{n_docs} doc files clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
