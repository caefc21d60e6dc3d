#!/usr/bin/env python3
"""Show what moved between two BENCH_*.json reports.

  bench_diff.py OLD NEW

Parses both reports and prints every JSON path that was added (+),
removed (-) or changed (~). Headline numbers come first: MB/s, GB/h,
elapsed time and CPU utilization, wire and unique bytes, makespan,
foreground p99 and resume bytes. Everything else follows in document
order. A subtree that exists on one side only is printed once, at its
root.

List elements are matched by their "name" (or "cell"/"volume") when
those identify every element on both sides, and by position otherwise,
so a path reads like jobs[Logical Backup].phases[Dumping files].elapsed_s.

Exit code 0 when the parsed reports are equal, 1 when they differ, 2 on a
usage or parse error. The perf gate itself stays a byte compare; this is
the step to run when that gate fails.
"""

import json
import sys

# Leaf keys that carry the paper's results, in the order they are printed.
HEADLINE = (
    "mb_per_s",
    "gb_per_h",
    "elapsed_s",
    "cpu_utilization",
    "wire_bytes",
    "unique_bytes",
    "makespan_s",
    "p99_us",
    "fg_p99_vs_baseline",
    "fg_during_dump_p99_vs_baseline",
    "bytes_replayed",
    "bytes_skipped",
)


def identity(item):
    if not isinstance(item, dict):
        return None
    for key in ("name", "cell", "volume"):
        if isinstance(item.get(key), str):
            return item[key]
    return None


def keyed(items):
    """Maps identity -> element, or None when identities do not all exist
    and differ."""
    out = {}
    for item in items:
        ident = identity(item)
        if ident is None or ident in out:
            return None
        out[ident] = item
    return out


def describe(value):
    if isinstance(value, dict):
        return f"(object, {len(value)} keys)"
    if isinstance(value, list):
        return f"(list, {len(value)} items)"
    return json.dumps(value)


def diff(old, new, path, out):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old:
            sub = f"{path}.{key}" if path else key
            if key not in new:
                out.append(("-", sub, old[key], None))
            else:
                diff(old[key], new[key], sub, out)
        for key in new:
            if key not in old:
                sub = f"{path}.{key}" if path else key
                out.append(("+", sub, None, new[key]))
        return
    if isinstance(old, list) and isinstance(new, list):
        old_keyed, new_keyed = keyed(old), keyed(new)
        if old_keyed is not None and new_keyed is not None:
            for ident, item in old_keyed.items():
                sub = f"{path}[{ident}]"
                if ident not in new_keyed:
                    out.append(("-", sub, item, None))
                else:
                    diff(item, new_keyed[ident], sub, out)
            for ident, item in new_keyed.items():
                if ident not in old_keyed:
                    out.append(("+", f"{path}[{ident}]", None, item))
            return
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(new):
                out.append(("-", sub, old[i], None))
            elif i >= len(old):
                out.append(("+", sub, None, new[i]))
            else:
                diff(old[i], new[i], sub, out)
        return
    if type(old) is not type(new) or old != new:
        out.append(("~", path, old, new))


def leaf_key(path):
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def format_line(kind, path, old, new):
    if kind == "-":
        return f"- {path} {describe(old)}"
    if kind == "+":
        return f"+ {path} {describe(new)}"
    line = f"~ {path}: {describe(old)} -> {describe(new)}"
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (old, new))
    if numeric and old != 0:
        line += f" ({(new - old) / abs(old) * 100:+.4g}%)"
    return line


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"bench_diff: {path}: {e}\n")
        sys.exit(2)


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        sys.exit(2)
    old_path, new_path = sys.argv[1], sys.argv[2]
    changes = []
    diff(load(old_path), load(new_path), "", changes)
    rank = {key: i for i, key in enumerate(HEADLINE)}
    changes.sort(key=lambda c: rank.get(leaf_key(c[1]), len(HEADLINE)))
    for change in changes:
        print(format_line(*change))
    if not changes:
        print(f"{old_path} and {new_path}: parsed reports are equal")
        return 0
    counts = {kind: sum(1 for c in changes if c[0] == kind)
              for kind in "+-~"}
    noun = "difference" if len(changes) == 1 else "differences"
    print(f"{len(changes)} {noun}: {counts['+']} added, "
          f"{counts['-']} removed, {counts['~']} changed")
    return 1


if __name__ == "__main__":
    sys.exit(main())
