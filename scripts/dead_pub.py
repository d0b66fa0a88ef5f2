#!/usr/bin/env python3
"""Flag public items that no non-test code names.

A `pub fn/struct/enum/type/const/trait` defined in a non-shim crate is dead
when its name appears in no non-test source except its own definition and
`pub use` re-exports. Non-test source is every `.rs` file under `src`,
`examples`, `perfbench/src` and `crates/*/src` (shims excluded), minus
`#[cfg(test)]` items such as in-file `mod tests`. Items inside a `reference`
module are oracles and are never flagged. The check matches names, not
paths, so two items that share a name hide each other, and an item named
inside its own impl looks used; it undercounts, it does not overcount.

Usage: python3 scripts/dead_pub.py
Exits 1 and lists the items when any is dead or an ALLOW entry is stale.
"""

import os
import re
import sys

# Items kept without a non-test caller, one per line with the reason. An
# entry that no longer names a dead item fails the check too, so the list
# only shrinks when its items gain callers or go.
ALLOW = {
    "inject": "test harness of fault injection, a documented feature",
    "with_deadline": "test harness of the run budget, a documented feature",
    "with_budget": "test harness of the batch budget, a documented feature",
    "run_with_faults": "test harness of batch fault isolation, a documented feature",
    "from_cells": "test harness: builds an arena from literal cells",
    "none": "test harness: NormalizeOptions with every step off",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEF_RE = re.compile(
    r"^\s*pub\s+(?:const\s+|unsafe\s+|async\s+|extern\s+\"[^\"]*\"\s+)*"
    r"(fn|struct|enum|type|const|trait)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
REFERENCE_MOD_RE = re.compile(r"^\s*pub\s+mod\s+reference\s*\{")
# A char literal such as '{' or '\n'; a lifetime such as 'a has no closing quote.
CHAR_RE = re.compile(r"'(\\.[^']*|[^'\\])'")


def source_files():
    """Yield (path, may_define) for every non-test source file."""
    tops = ["src", "examples", os.path.join("perfbench", "src")]
    crates = os.path.join(ROOT, "crates")
    for name in sorted(os.listdir(crates)):
        if name == "shims":
            continue
        tops.append(os.path.join("crates", name, "src"))
    for top in tops:
        may_define = top == "src" or top.startswith("crates") and top.endswith("src")
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for f in sorted(files):
                if f.endswith(".rs"):
                    yield os.path.join(dirpath, f), may_define


def strip_comment(line):
    """Drop a `//` comment and blank string and char literals, so neither
    their words nor their braces count as code."""
    out = []
    i = 0
    while i < len(line):
        c = line[i]
        if line.startswith("//", i):
            break
        if c == '"':
            i += 1
            while i < len(line) and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            out.append('""')
        elif c == "'" and CHAR_RE.match(line, i):
            i = CHAR_RE.match(line, i).end() - 1
            out.append("' '")
        else:
            out.append(c)
        i += 1
    return "".join(out)


def code_lines(path):
    """Return [(lineno, code, in_reference)] with test items and comments removed."""
    with open(path, encoding="utf-8") as f:
        raw = [strip_comment(l.rstrip("\n")) for l in f]
    out = []
    skip_depth = None  # brace depth of a #[cfg(test)] item being skipped
    skip_armed = False
    ref_depth = None
    depth = 0
    for no, line in enumerate(raw, 1):
        stripped = line.strip()
        if skip_depth is None and stripped == "#[cfg(test)]":
            skip_depth = depth
            skip_armed = False
            continue
        if ref_depth is None and REFERENCE_MOD_RE.match(line):
            ref_depth = depth
        opens, closes = line.count("{"), line.count("}")
        depth += opens - closes
        if skip_depth is not None:
            if opens:
                skip_armed = True
            if depth <= skip_depth and (skip_armed or stripped.endswith(";")):
                skip_depth = None
            continue
        in_ref = ref_depth is not None or os.path.basename(path) == "reference.rs"
        if ref_depth is not None and depth <= ref_depth and closes:
            ref_depth = None
        out.append((no, line, in_ref))
    return out


def main():
    defs = []  # (name, kind, path, lineno, in_reference)
    uses = []  # (path, lineno, code) outside `pub use` statements
    for path, may_define in source_files():
        in_pub_use = False
        for no, code, in_ref in code_lines(path):
            if re.match(r"^\s*pub\s+use\b", code):
                in_pub_use = True
            if in_pub_use:
                in_pub_use = ";" not in code
                continue
            m = DEF_RE.match(code)
            if m and may_define:
                defs.append((m.group(2), m.group(1), path, no, in_ref))
            uses.append((path, no, code))

    words = {}
    for path, no, code in uses:
        for w in set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code)):
            words.setdefault(w, set()).add((path, no))

    dead = []
    allowed = set()
    for name, kind, path, no, in_ref in defs:
        if in_ref or words.get(name, set()) - {(path, no)}:
            continue
        if name in ALLOW:
            allowed.add(name)
        else:
            dead.append((path, no, kind, name))

    for path, no, kind, name in dead:
        print(f"{os.path.relpath(path, ROOT)}:{no}: pub {kind} {name} has no non-test caller")
    stale = sorted(set(ALLOW) - allowed)
    for name in stale:
        print(f"scripts/dead_pub.py: ALLOW entry {name!r} names no dead public item")
    if dead or stale:
        print(
            f"{len(dead)} dead public item(s), {len(stale)} stale ALLOW entry(ies): delete "
            "the items, make them pub(crate), or add or remove an ALLOW entry",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
