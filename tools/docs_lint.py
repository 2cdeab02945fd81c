#!/usr/bin/env python3
"""Docs lint: fail on broken relative links in the repo's *.md files and
on dangling *.md references in C++ source comments.

Scans every tracked-ish Markdown file (skipping build output and VCS
internals), extracts inline links and images, and verifies that each
relative target exists on disk. External schemes (http/https/mailto)
and pure in-page anchors are ignored; a `#fragment` suffix on a
relative link is stripped before the existence check.

Then scans the comments (`//` to end of line) of the C++ sources under
src/, tests/, bench/, examples/ and tools/ for `name.md` references and
verifies each resolves against the repo root or the source file's own
directory.

Last, checks that docs/API.md's `Explain3DConfig` table matches the
struct in src/core/config.h: every field has a row, and every name in a
row's first cell is a live field.

Usage:  python3 tools/docs_lint.py [repo_root]
Exit status: 0 when every link, reference and config row checks out, 1
otherwise (one line per problem: `file:line: broken link -> target`,
`file:line: dangling doc reference -> target`, `file: config field
without an API.md row -> name`, or `file:line: API.md row names no
config field -> name`).
"""

import os
import re
import sys

SKIP_DIRS = {".git", "build", ".claude", "_deps", "node_modules"}

# Inline [text](target) and ![alt](target); stops at the first ')' or
# whitespace inside the URL, which is how every link in this repo is
# written (no titles, no parenthesized URLs).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^\s*(```|~~~)")

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".h", ".cc", ".cpp")
# A bare or path-qualified Markdown file name inside a comment.
MD_REF_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")


def iter_md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_file(path):
    errors = []
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target):
                    continue  # http:, https:, mailto:, ...
                if target.startswith("#"):
                    continue  # in-page anchor
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), rel))
                if not os.path.exists(resolved):
                    errors.append((lineno, target))
    return errors


def iter_source_files(root):
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def check_source(path, root):
    errors = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            comment = line.partition("//")[2]
            for target in MD_REF_RE.findall(comment):
                candidates = (os.path.join(root, target),
                              os.path.join(os.path.dirname(path), target))
                if not any(os.path.exists(c) for c in candidates):
                    errors.append((lineno, target))
    return errors


CONFIG_HEADER = os.path.join("src", "core", "config.h")
API_DOC = os.path.join("docs", "API.md")
# A data member declaration: type tokens, the name, an optional
# initializer, then ';'. Methods, nested types and comments never match.
FIELD_RE = re.compile(r"^\s*[\w:<>]+(?:\s+[\w:<>]+)*\s+(\w+)\s*(?:=[^;]*)?;")
CODE_RE = re.compile(r"`(\w+)`")


def config_fields(root):
    """Data members of struct Explain3DConfig, in declaration order."""
    fields = []
    inside = False
    with open(os.path.join(root, CONFIG_HEADER), encoding="utf-8") as f:
        for line in f:
            code = line.partition("//")[0]
            if not inside:
                inside = code.strip().startswith("struct Explain3DConfig")
                continue
            if code.strip().startswith("};"):
                break
            m = FIELD_RE.match(code)
            if m:
                fields.append(m.group(1))
    return fields


def config_table_rows(root):
    """(line, names) for each row of API.md's Explain3DConfig table."""
    rows = []
    in_section = False
    with open(os.path.join(root, API_DOC), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.startswith("## "):
                in_section = line.strip() == "## `Explain3DConfig`"
                continue
            if not in_section or not line.startswith("|"):
                continue
            first = line.split("|")[1]
            if first.strip() in ("Field", "") or set(first.strip()) <= {"-"}:
                continue
            rows.append((lineno, CODE_RE.findall(first)))
    return rows


def check_config_table(root):
    """Problems as printable lines; empty when the table matches."""
    fields = config_fields(root)
    rows = config_table_rows(root)
    problems = []
    if not fields:
        problems.append(f"{CONFIG_HEADER}: struct Explain3DConfig not found")
    if not rows:
        problems.append(f"{API_DOC}: no Explain3DConfig table found")
    documented = {name for _, names in rows for name in names}
    for name in fields:
        if name not in documented:
            problems.append(f"{CONFIG_HEADER}: config field without an "
                            f"API.md row -> {name}")
    live = set(fields)
    for lineno, names in rows:
        for name in names:
            if name not in live:
                problems.append(f"{API_DOC}:{lineno}: API.md row names no "
                                f"config field -> {name}")
    return problems


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    broken = 0
    checked = 0
    for path in iter_md_files(root):
        checked += 1
        for lineno, target in check_file(path):
            print(f"{os.path.relpath(path, root)}:{lineno}: "
                  f"broken link -> {target}")
            broken += 1
    sources = 0
    for path in iter_source_files(root):
        sources += 1
        for lineno, target in check_source(path, root):
            print(f"{os.path.relpath(path, root)}:{lineno}: "
                  f"dangling doc reference -> {target}")
            broken += 1
    config_problems = check_config_table(root)
    for line in config_problems:
        print(line)
    print(f"docs-lint: {checked} markdown files, {sources} source files, "
          f"{broken} broken links, {len(config_problems)} config table "
          f"problems")
    return 1 if broken or config_problems else 0


if __name__ == "__main__":
    sys.exit(main())
