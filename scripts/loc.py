#!/usr/bin/env python3
"""Count the non-test Rust lines of the repository, per crate and in total.

A line counts when it lies in a `.rs` file under `src` or `examples` at the
root or under `crates/*/src` (shims excluded), outside every `#[cfg(test)]`
item: an in-file `mod tests` block is cut by matching its braces, with
comments and string and char literals blanked first (the same cut as
`dead_pub.py`). Blank and comment lines inside kept code count; `tests/`
and `benches/` directories are never read.

Usage: python3 scripts/loc.py [PATH ...]
With no PATH it prints one line per crate and the total. With PATHs (files
or directories, relative to the repository root) it prints each PATH's
count and their total, e.g. `crates/units/src crates/core/src/coverage.rs`.
"""

import os
import sys

from dead_pub import ROOT, code_lines

SKIPPED_DIRS = {"tests", "benches"}


def rust_files(path):
    """Yield every `.rs` file at or under `path`, outside test directories."""
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d not in SKIPPED_DIRS)
        for f in sorted(files):
            if f.endswith(".rs"):
                yield os.path.join(dirpath, f)


def count(path):
    return sum(len(code_lines(f)) for f in rust_files(path))


def crate_paths():
    """(name, [paths]) for the root package and every non-shim crate."""
    yield "tabjoin", ["src", "examples"]
    crates = os.path.join(ROOT, "crates")
    for name in sorted(os.listdir(crates)):
        if name != "shims" and os.path.isdir(os.path.join(crates, name, "src")):
            yield name, [os.path.join("crates", name, "src")]


def main(args):
    groups = [(p, [p]) for p in args] if args else list(crate_paths())
    total = 0
    for name, paths in groups:
        for p in paths:
            if not os.path.exists(os.path.join(ROOT, p)):
                print(f"loc.py: no such path {p!r}", file=sys.stderr)
                return 1
        n = sum(count(os.path.join(ROOT, p)) for p in paths)
        total += n
        print(f"{name:<28} {n:>7}")
    print(f"{'total':<28} {total:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
