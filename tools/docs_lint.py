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

Usage:  python3 tools/docs_lint.py [repo_root]
Exit status: 0 when every link and reference resolves, 1 otherwise (one
line per broken link: `file:line: broken link -> target`, or
`file:line: dangling doc reference -> target`).
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
    print(f"docs-lint: {checked} markdown files, {sources} source files, "
          f"{broken} broken links")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
