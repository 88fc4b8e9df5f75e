#!/usr/bin/env python
"""Check documentation for broken links and stale code references.

Scans every tracked markdown file (top level + ``docs/``) and verifies:

* **relative markdown links** — ``[text](path)`` resolved against the
  containing file must exist (``#anchors``, ``http(s)://`` and
  ``mailto:`` targets are skipped);
* **backticked path references** — `` `docs/x.md` ``-style mentions of
  files under the repository's known top-level directories must exist;
* **dotted module references** — `` `repro.x.y` `` mentions must resolve
  to a package/module under ``src/repro`` (attribute suffixes are
  tolerated: the longest resolving prefix wins, but at least one
  component beyond the bare ``repro`` must resolve);
* **CLI subcommand references** — every ``python -m repro <cmd>``
  invocation (fenced usage examples included) must name a real
  subcommand, read by regex from ``src/repro/cli.py`` so this script
  keeps working in the docs CI job where nothing is installed;
* **bench target references** — every ``python -m repro bench <target>``
  invocation must name a target in ``cli.py``'s ``BENCH_TARGETS`` tuple
  (scraped the same import-free way);
* **experiment descriptions** — every experiment that
  ``python -m repro experiments`` lists must have a run function whose
  docstring has a non-blank first line (read with :mod:`ast` from the
  registry in ``cli.py`` and the bench modules, again without importing).

Exits non-zero listing every failure, so CI catches docs drifting away
from the code (renamed modules, moved pages, deleted examples).

Usage::

    python scripts/check_docs.py [repo-root]
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

#: Directories whose mention as a backticked path implies "this should
#: exist in the repository".
KNOWN_TOP_DIRS = ("docs", "src", "examples", "tests", "scripts",
                  "benchmarks", "results")

MD_LINK = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"^repro(?:\.\w+)+$")
#: Path-looking backticked text: no spaces, contains a slash or a known
#: file suffix.
PATHLIKE_SUFFIXES = (".py", ".md", ".json", ".yml", ".yaml", ".toml",
                     ".cfg", ".txt")


def iter_markdown(root: pathlib.Path) -> list[pathlib.Path]:
    files = sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def strip_code_blocks(text: str) -> str:
    """Remove fenced code blocks (shell transcripts are full of ``->``)."""
    return re.sub(r"```.*?```", "", text, flags=re.S)


def check_md_links(path: pathlib.Path, text: str,
                   root: pathlib.Path) -> list[str]:
    problems = []
    for match in MD_LINK.finditer(text):
        target = match.group(2)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(root)}: broken link "
                f"[{match.group(1)}]({match.group(2)})"
            )
    return problems


def _resolves_as_module(dotted: str, src: pathlib.Path) -> bool:
    """True when some prefix beyond bare ``repro`` maps to src/repro/...

    ``repro.obs.spans.span`` is fine (the ``repro.obs.spans`` prefix is a
    module); ``repro.nosuch.thing`` is not (nothing beyond ``repro``
    resolves).
    """
    parts = dotted.split(".")
    deepest = 1                      # bare "repro" always resolves
    for i in range(2, len(parts) + 1):
        rel = pathlib.Path(*parts[:i])
        if (src / rel).is_dir() or (src / rel).with_suffix(".py").is_file():
            deepest = i
    return deepest >= 2


#: ``python -m repro <token>`` mentions anywhere in a doc, including
#: fenced code blocks (that is where usage examples live).  The token
#: may be a subcommand, an option (``--help``), or a dotted module
#: runner (``repro.bench.x`` via ``-m`` directly) — only bare
#: subcommand-shaped tokens are validated.
CLI_INVOCATION = re.compile(r"python\s+-m\s+repro\s+([\w.-]+)")
ADD_PARSER = re.compile(r"add_parser\(\s*\"([\w-]+)\"")

#: ``python -m repro bench <target>`` mentions; the target token is
#: validated against the ``BENCH_TARGETS`` tuple in ``cli.py``.
BENCH_INVOCATION = re.compile(r"python\s+-m\s+repro\s+bench\s+([\w.-]+)")
BENCH_TARGETS_TUPLE = re.compile(r"BENCH_TARGETS\s*=\s*\(([^)]*)\)")


def known_subcommands(root: pathlib.Path) -> frozenset[str]:
    """Subcommand names scraped from ``src/repro/cli.py`` (no import)."""
    cli = root / "src" / "repro" / "cli.py"
    if not cli.is_file():
        return frozenset()
    return frozenset(ADD_PARSER.findall(cli.read_text(encoding="utf-8")))


def known_bench_targets(root: pathlib.Path) -> frozenset[str]:
    """Bench target names scraped from ``BENCH_TARGETS`` in ``cli.py``."""
    cli = root / "src" / "repro" / "cli.py"
    if not cli.is_file():
        return frozenset()
    match = BENCH_TARGETS_TUPLE.search(cli.read_text(encoding="utf-8"))
    if match is None:
        return frozenset()
    return frozenset(re.findall(r"\"([\w-]+)\"", match.group(1)))


def check_bench_refs(path: pathlib.Path, text: str, root: pathlib.Path,
                     targets: frozenset[str]) -> list[str]:
    if not targets:            # no bench subcommand in this checkout
        return []
    problems = []
    for match in BENCH_INVOCATION.finditer(text):
        token = match.group(1)
        if token.startswith("-"):
            continue           # ``python -m repro bench --help``
        if token not in targets:
            problems.append(
                f"{path.relative_to(root)}: unknown bench target in "
                f"`python -m repro bench {token}`"
            )
    return problems


def _function_doc(path: pathlib.Path, name: str) -> str | None:
    """Docstring of top-level function ``name`` in ``path``; None if absent."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return ast.get_docstring(node) or ""
    return None


def check_experiment_docs(root: pathlib.Path) -> list[str]:
    """Experiments whose run function has no one-line description.

    ``cli.py``'s ``_experiment_registry`` imports each run function from
    its bench module and maps an experiment id to it; the listing prints
    the first line of that function's docstring.
    """
    cli = root / "src" / "repro" / "cli.py"
    try:
        tree = ast.parse(cli.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return []
    registry = next((n for n in tree.body if isinstance(n, ast.FunctionDef)
                     and n.name == "_experiment_registry"), None)
    if registry is None:       # no experiment listing in this checkout
        return []
    modules = {alias.asname or alias.name: node.module
               for node in ast.walk(registry)
               if isinstance(node, ast.ImportFrom) and node.module
               for alias in node.names}
    problems = []
    for ret in ast.walk(registry):
        if not (isinstance(ret, ast.Return)
                and isinstance(ret.value, ast.Dict)):
            continue
        for key, value in zip(ret.value.keys, ret.value.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(value, ast.Name)):
                continue
            module = modules.get(value.id, "")
            path = (root / "src").joinpath(*module.split(".")
                                           ).with_suffix(".py")
            doc = _function_doc(path, value.id)
            if not (doc or "").strip():
                problems.append(
                    f"src/repro/cli.py: experiment `{key.value}` has a "
                    f"blank description ({value.id} has no docstring)"
                )
    return problems


def check_cli_refs(path: pathlib.Path, text: str, root: pathlib.Path,
                   subcommands: frozenset[str]) -> list[str]:
    if not subcommands:        # no CLI in this repo checkout; nothing to do
        return []
    problems = []
    for match in CLI_INVOCATION.finditer(text):
        token = match.group(1)
        if token.startswith("-") or "." in token:
            continue           # an option, or a module run like repro.bench.x
        if token not in subcommands:
            problems.append(
                f"{path.relative_to(root)}: unknown CLI subcommand in "
                f"`python -m repro {token}`"
            )
    return problems


def check_code_refs(path: pathlib.Path, text: str,
                    root: pathlib.Path) -> list[str]:
    problems = []
    src = root / "src"
    for match in BACKTICK.finditer(text):
        ref = match.group(1).strip()
        if DOTTED.match(ref):
            if not _resolves_as_module(ref, src):
                problems.append(
                    f"{path.relative_to(root)}: unresolved module `{ref}`"
                )
            continue
        if " " in ref or ref.startswith(("-", "--")):
            continue
        ref = ref.split("::", 1)[0]      # pytest node ids
        first = ref.split("/", 1)[0]
        looks_pathy = "/" in ref or ref.endswith(PATHLIKE_SUFFIXES)
        if not looks_pathy or first not in KNOWN_TOP_DIRS:
            continue
        if "*" in ref:
            if not any(root.glob(ref)):
                problems.append(
                    f"{path.relative_to(root)}: glob `{ref}` matches "
                    "nothing"
                )
            continue
        if not (root / ref).exists():
            problems.append(
                f"{path.relative_to(root)}: missing path `{ref}`"
            )
    return problems


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    files = iter_markdown(root)
    if not files:
        print(f"no markdown files found under {root}", file=sys.stderr)
        return 2
    subcommands = known_subcommands(root)
    bench_targets = known_bench_targets(root)
    problems: list[str] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        problems.extend(check_md_links(path, text, root))
        problems.extend(check_code_refs(path, strip_code_blocks(text), root))
        problems.extend(check_cli_refs(path, text, root, subcommands))
        problems.extend(check_bench_refs(path, text, root, bench_targets))
    problems.extend(check_experiment_docs(root))
    if problems:
        print(f"{len(problems)} documentation problem(s):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"docs OK: {len(files)} markdown file(s) checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
