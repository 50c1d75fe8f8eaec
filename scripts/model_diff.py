#!/usr/bin/env python3
"""Show how the model files of two output directories differ.

For each `*.model` file of OLD_DIR whose bytes differ from the file of the
same name in NEW_DIR, prints the file name, then one line per top-level
key whose value differs: the largest relative difference |a - b| /
max(|a|, |b|) over its numbers, or `differs` where the two values do not
pair number for number (other strings, keys or shapes).  A model file of
one directory only is named as such.  The directories are those that
`scripts/cli_outputs.py` writes; nothing is printed when every model file
is equal.

Usage:
    python3 scripts/model_diff.py OLD_DIR NEW_DIR
"""

import argparse
import json
import sys
from pathlib import Path


def leaves(value) -> list:
    """The scalars of a JSON value in document order, with each object's
    keys, sorted, before their values."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value)
                for leaf in [key, *leaves(value[key])]]
    if isinstance(value, list):
        return [leaf for item in value for leaf in leaves(item)]
    return [value]


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def largest_relative_difference(old, new):
    """max |a - b| / max(|a|, |b|) over the paired numbers of `old` and
    `new`, 0 where both are 0; None if they do not pair number for
    number."""
    a, b = leaves(old), leaves(new)
    if len(a) != len(b):
        return None
    largest = 0.0
    for x, y in zip(a, b):
        if is_number(x) and is_number(y):
            scale = max(abs(x), abs(y))
            largest = max(largest, abs(x - y) / scale if scale else 0.0)
        elif x != y:
            return None
    return largest


def diff_lines(old: dict, new: dict) -> list:
    """One line per top-level key whose value differs, in key order."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            lines.append(f"  {key}: only in {'old' if key in old else 'new'}")
        elif old[key] != new[key]:
            rel = largest_relative_difference(old[key], new[key])
            lines.append(f"  {key}: differs" if rel is None else
                         f"  {key}: largest relative difference {rel:.3g}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_dir", type=Path)
    ap.add_argument("new_dir", type=Path)
    args = ap.parse_args()
    for d in (args.old_dir, args.new_dir):
        if not d.is_dir():
            sys.exit(f"error: {d} is not a directory")
    names = sorted({p.name for d in (args.old_dir, args.new_dir)
                    for p in d.glob("*.model")})
    for name in names:
        old, new = args.old_dir / name, args.new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old.parent if old.exists() else new.parent}")
        elif old.read_bytes() != new.read_bytes():
            print(name)
            for line in diff_lines(json.loads(old.read_text()),
                                   json.loads(new.read_text())):
                print(line)


if __name__ == "__main__":
    main()
