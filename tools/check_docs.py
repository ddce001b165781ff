#!/usr/bin/env python
"""Documentation checker for CI: links, paths, imports, flags, routes, metrics.

Eight checks over README.md and everything under docs/:

1. **Intra-repo markdown links** — every relative ``[text](target)``
   must point at a file or directory that exists (external ``http(s)``,
   ``mailto:``, and pure ``#anchor`` links are skipped).
2. **Import lines** — every ``import x`` / ``from x import y`` line
   found inside fenced code blocks is executed in one Python
   subprocess with ``src/`` on the path, so docs never name modules or
   symbols that do not exist.
3. **``python -m`` module references** — every ``python -m some.module``
   in a fenced code block must be an importable module.
4. **Command-line flags** — every ``--long-flag`` named anywhere in the
   text must appear in the ``--help`` of one of this repo's ``python -m``
   modules found by check 3, or of a script in :data:`FLAG_SCRIPTS`, so
   a removed option cannot linger in the docs.
5. **Repo paths** — every inline code span that reads as a path into this
   repo (``tests/runtime/test_pool.py``, a bare ``lexer.py``) must exist, so
   a deleted file cannot linger either.
6. **Routes and ops** — every HTTP route (``/v1/...``, ``/healthz``,
   ``/metrics``) and every NDJSON ``"op": "name"`` named anywhere in the
   text must be one the server serves, read from the framings' own maps
   (``repro.runtime.gateway.http.ROUTES``, ``repro.runtime.server.OPS``).
7. **Metric families** — the rows of the family tables in
   ``docs/observability.md`` must name exactly the families registered by
   ``.counter(`` / ``.gauge(`` / ``.histogram(`` calls under
   ``src/repro/runtime`` (a scan of the source, no server), so a deleted
   family cannot stay documented nor a new one go undocumented.  Each
   row's label column (``—`` or a backticked list) must match the call's
   label names too, so a dropped label cannot stay documented either.
8. **Dotted names** — every inline code span that is a dotted name under
   the package (``repro.runtime.pool.WorkerPool``, or a call such as
   ``repro.compiler.compile_source(...)``) must resolve to a module or an
   attribute, so a deleted module or class cannot linger in the prose.
   So must every span ``Class.attr`` (a call suffix allowed) whose class
   is defined under ``src/repro``: the attribute must be one of the
   class's, or of a base class's defined there, found by a scan of the
   source — a method or other class attribute, a dataclass field, a
   ``__slots__`` entry or a ``self.<attr> =`` assignment.

Exit code 0 when everything passes, 1 otherwise (with one line per
failure). Run it locally with::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```")
IMPORT_RE = re.compile(r"^\s*(?:import\s+[\w.]+|from\s+[\w.]+\s+import\s+\S)")
PYTHON_M_RE = re.compile(r"python(?:3)?\s+(?:-u\s+)?-m\s+([\w.]+)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]+")
#: An inline code span, which may wrap across one line break.
CODE_SPAN_RE = re.compile(r"`([^`\n]+(?:\n[^`\n]+)?)`")
PATH_RE = re.compile(r"[\w.*/-]+")
#: ``/v1/name`` anywhere; ``/healthz`` and ``/metrics`` on their own or after
#: a ``host:port``, not as the tail of a file path.
ROUTE_RE = re.compile(r"/v1/[\w-]+|(?:(?<![\w./-])|(?<=\d))/(?:healthz|metrics)\b")
OP_RE = re.compile(r'"op":\s*"([\w-]+)"')
#: A whole code span naming ``repro.x.y``, with an optional call suffix.
DOTTED_NAME_RE = re.compile(r"(repro(?:\.\w+)+)(?:\(.*\))?")
#: A whole code span naming ``Class.attr``, with an optional call suffix.
CLASS_ATTR_RE = re.compile(r"([A-Z]\w*)\.(\w+)(?:\(.*\))?")
#: A family's row in a documentation table: its name and its label column.
METRIC_ROW_RE = re.compile(
    r"^\|\s*`(\w+)`\s*\|\s*(?:counter|gauge|histogram)\s*\|\s*([^|]*?)\s*\|",
    re.MULTILINE,
)
METRIC_KINDS = ("counter", "gauge", "histogram")
METRICS_DOC = REPO_ROOT / "docs" / "observability.md"

#: A bare name with one of these suffixes is taken for a file of the repo.
FILE_SUFFIXES = (".py", ".json", ".md", ".yml", ".toml")

#: Scripts outside ``src/`` whose flags the docs may name.
FLAG_SCRIPTS = ("bench/run.py",)


def code_spans(text: str) -> Set[str]:
    """The inline code spans of ``text``, each with its whitespace collapsed
    to single spaces as Markdown renders it (a wrapped span reads whole)."""
    return {" ".join(span.split()) for span in CODE_SPAN_RE.findall(text)}


def doc_files() -> List[Path]:
    """README plus every markdown file under docs/."""
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("**/*.md"))
    return [f for f in files if f.exists()]


def iter_links(text: str) -> Iterator[str]:
    """Every markdown link target, fenced code blocks excluded."""
    in_fence = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        yield from LINK_RE.findall(line)


def iter_fenced_lines(text: str) -> Iterator[str]:
    """Every line inside a fenced code block."""
    in_fence = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            yield line


def check_links(path: Path, text: str) -> List[str]:
    """Relative link targets that do not resolve from ``path``'s dir."""
    failures = []
    for target in iter_links(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            failures.append(f"{path.relative_to(REPO_ROOT)}: broken link "
                            f"-> {target}")
    return failures


def check_paths(path: Path, text: str) -> List[str]:
    """Inline code spans that read as repo paths and match no file.

    ``top-level-entry/...`` is looked up from the repo root (``*`` globs, a
    ``::test`` suffix is dropped); a bare file name may sit in any directory.
    URL routes, placeholders such as ``DIR/worker-N`` and dotted module
    names are not paths and are skipped.
    """
    failures = []
    for span in sorted(code_spans(text)):
        target = span.split("::", 1)[0].rstrip("/")
        if not PATH_RE.fullmatch(target):
            continue
        head, slash, _ = target.partition("/")
        if slash and head and (REPO_ROOT / head).exists():
            found = REPO_ROOT.glob(target)
        elif not slash and target.endswith(FILE_SUFFIXES):
            found = REPO_ROOT.rglob(target)
        else:
            continue
        if not any(found):
            failures.append(f"{path.relative_to(REPO_ROOT)}: no such path "
                            f"-> {span}")
    return failures


def collect_import_lines(files: List[Tuple[Path, str]]) -> List[str]:
    """Unique import statements found in any fenced code block."""
    seen = []
    for _, text in files:
        for line in iter_fenced_lines(text):
            stripped = line.strip()
            if IMPORT_RE.match(stripped) and stripped not in seen:
                seen.append(stripped)
    return seen


def collect_python_m_modules(files: List[Tuple[Path, str]]) -> List[str]:
    """Unique ``python -m`` module names found in fenced code blocks."""
    seen = []
    for _, text in files:
        for line in iter_fenced_lines(text):
            for module in PYTHON_M_RE.findall(line):
                if module not in seen:
                    seen.append(module)
    return seen


def run_python(args: List[str]) -> subprocess.CompletedProcess:
    """``python <args>`` from the repo root with ``src/`` on the path."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def run_snippet_imports(imports: List[str], modules: List[str]) -> List[str]:
    """Execute the import lines + module lookups in one subprocess."""
    if not imports and not modules:
        return []
    program = "\n".join(
        imports
        + ["import importlib.util"]
        + [
            (
                f"assert importlib.util.find_spec({module!r}) is not None, "
                f"'python -m {module}: no such module'"
            )
            for module in modules
        ]
    )
    proc = run_python(["-c", program])
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1] if proc.stderr else "?"
        return [f"snippet imports failed: {tail}"]
    return []


def accepted_flags(modules: List[str]) -> set:
    """Flags in the ``--help`` of this repo's modules and FLAG_SCRIPTS.

    An entry point without a ``--help`` (``repro.eval`` takes experiment
    names only) prints none and so accepts none.
    """
    commands = [
        ["-m", module]
        for module in modules
        if (REPO_ROOT / "src" / module.split(".")[0]).is_dir()
    ]
    commands += [[script] for script in FLAG_SCRIPTS]
    flags: set = set()
    for command in commands:
        flags.update(FLAG_RE.findall(run_python([*command, "--help"]).stdout))
    return flags


def check_flags(files: List[Tuple[Path, str]], modules: List[str]) -> List[str]:
    """Flags the docs name that no command-line entry point accepts."""
    accepted = accepted_flags(modules)
    return [
        f"{path.relative_to(REPO_ROOT)}: no entry point accepts {flag}"
        for path, text in files
        for flag in sorted(set(FLAG_RE.findall(text)) - accepted)
    ]


def served_names() -> Tuple[Set[str], Set[str]]:
    """The HTTP routes and NDJSON ops, read from the framings' own maps."""
    program = (
        "import json\n"
        "from repro.runtime.gateway.http import ROUTES\n"
        "from repro.runtime.server import OPS\n"
        "print(json.dumps([sorted(ROUTES), sorted(OPS)]))"
    )
    routes, ops = json.loads(run_python(["-c", program]).stdout)
    return set(routes), set(ops)


def check_routes(path: Path, text: str, routes: Set[str], ops: Set[str]) -> List[str]:
    """Routes and ops the text names that no framing serves."""
    where = path.relative_to(REPO_ROOT)
    failures = [
        f"{where}: the server has no route {route}"
        for route in sorted(set(ROUTE_RE.findall(text)) - routes)
    ]
    failures += [
        f"{where}: the server has no op '{op}'"
        for op in sorted(set(OP_RE.findall(text)) - ops)
    ]
    return failures


#: Prints the names in ``argv`` that import as no module and no attribute.
RESOLVE_PROGRAM = """
import importlib, json, sys
def resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False
print(json.dumps([name for name in sys.argv[1:] if not resolves(name)]))
"""


def check_dotted_names(files: List[Tuple[Path, str]]) -> List[str]:
    """Backticked ``repro.…`` names that resolve to no module or attribute,
    looked up in one subprocess."""
    names = {
        path: {
            match.group(1)
            for match in map(DOTTED_NAME_RE.fullmatch, code_spans(text))
            if match
        }
        for path, text in files
    }
    everything = sorted(set().union(*names.values()))
    if not everything:
        return []
    proc = run_python(["-c", RESOLVE_PROGRAM, *everything])
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1] if proc.stderr else "?"
        return [f"dotted-name lookup failed: {tail}"]
    unresolved = set(json.loads(proc.stdout))
    return [
        f"{path.relative_to(REPO_ROOT)}: no module or attribute {name}"
        for path, found in names.items()
        for name in sorted(found & unresolved)
    ]


def class_attributes() -> Dict[str, Set[str]]:
    """The attributes of every class defined under ``src/repro``, by class
    name (a static scan), each with those of its bases defined there."""
    own: Dict[str, Set[str]] = {}
    bases: Dict[str, Set[str]] = {}
    for source in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for cls in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            attrs = own.setdefault(cls.name, set())
            bases.setdefault(cls.name, set()).update(
                getattr(base, "id", getattr(base, "attr", "")) for base in cls.bases)
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    attrs.add(stmt.name)
                targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                           [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                for target in targets:
                    if isinstance(target, ast.Name):
                        attrs.add(target.id)
                        if target.id == "__slots__":
                            attrs.update(ast.literal_eval(stmt.value))
            attrs.update(
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    def lineage(name: str, seen: Set[str]) -> Set[str]:
        seen.add(name)
        found = set(own.get(name, ()))
        for base in bases.get(name, ()):
            if base in own and base not in seen:
                found |= lineage(base, seen)
        return found

    return {name: lineage(name, set()) for name in own}


def check_class_attributes(files: List[Tuple[Path, str]]) -> List[str]:
    """Backticked ``Class.attr`` spans whose class is defined under
    ``src/repro`` but has no such attribute."""
    classes = class_attributes()
    failures = []
    for path, text in files:
        for span in sorted(code_spans(text)):
            match = CLASS_ATTR_RE.fullmatch(span)
            if not match or match.group(1) not in classes:
                continue
            name, attr = match.groups()
            if attr not in classes[name]:
                failures.append(f"{path.relative_to(REPO_ROOT)}: class {name} "
                                f"has no attribute {attr}")
    return failures


def registered_families() -> Dict[str, Tuple[str, ...]]:
    """Metric families the runtime's source registers, with their label
    names: the ``name`` and ``labelnames`` of every ``.counter(`` /
    ``.gauge(`` / ``.histogram(`` call (a static scan)."""
    families: Dict[str, Tuple[str, ...]] = {}
    for source in sorted((REPO_ROOT / "src" / "repro" / "runtime").rglob("*.py")):
        for call in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in METRIC_KINDS and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)):
                continue
            labels = call.args[2] if len(call.args) > 2 else next(
                (k.value for k in call.keywords if k.arg == "labelnames"), None)
            families[call.args[0].value] = (
                tuple(ast.literal_eval(labels)) if labels is not None else ())
    return families


def label_cell(labels: Tuple[str, ...]) -> str:
    """A family-table label column: ``—`` or a backticked list."""
    return ", ".join(f"`{label}`" for label in labels) or "—"


def check_metric_families(
    text: str, registered: Dict[str, Tuple[str, ...]]
) -> List[str]:
    """Family-table rows that name no registered family or the wrong
    labels, and registered families without a row."""
    where = METRICS_DOC.relative_to(REPO_ROOT)
    documented = dict(METRIC_ROW_RE.findall(text))
    failures = [
        f"{where}: no metric family {name} is registered"
        for name in sorted(documented.keys() - registered.keys())
    ]
    failures += [
        f"{where}: metric family {name} is registered but has no row"
        for name in sorted(registered.keys() - documented.keys())
    ]
    failures += [
        f"{where}: metric family {name} has labels {documented[name]} in its "
        f"row but {label_cell(registered[name])} in the source"
        for name in sorted(documented.keys() & registered.keys())
        if documented[name] != label_cell(registered[name])
    ]
    return failures


def main() -> int:
    """Run every check; print failures; return a process exit code."""
    files = [(path, path.read_text(encoding="utf-8")) for path in doc_files()]
    failures: List[str] = []
    routes, ops = served_names()
    for path, text in files:
        failures += check_links(path, text)
        failures += check_paths(path, text)
        failures += check_routes(path, text, routes, ops)
        if path == METRICS_DOC:
            failures += check_metric_families(text, registered_families())
    imports = collect_import_lines(files)
    modules = collect_python_m_modules(files)
    failures += run_snippet_imports(imports, modules)
    failures += check_flags(files, modules)
    failures += check_dotted_names(files)
    failures += check_class_attributes(files)
    for failure in failures:
        print(f"FAIL {failure}")
    print(
        f"checked {len(files)} files, {len(imports)} import lines, "
        f"{len(modules)} `python -m` modules: "
        + ("FAILED" if failures else "ok")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
