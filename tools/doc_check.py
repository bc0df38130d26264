#!/usr/bin/env python3
"""Check the numbers EXPERIMENTS.md quotes against the BENCH sidecars.

    python3 tools/doc_check.py [--doc EXPERIMENTS.md] [--sidecars DIR]

A tagged number is written as `<number> <!-- E<n>.<field> -->`; the
comment is invisible in rendered markdown.  The number right before the
tag must equal field <field> of BENCH_E<n>.json in DIR (default: the
current directory), rounded to as many decimals as the doc shows.  A
field may be a dotted path into the sidecar's arrays and objects:
`E9.windows.0.tasks` is the `tasks` of the first `windows` entry.
Thousands separators are ignored.  Untagged numbers, such as the advisory
host wall times, are not checked.

Exit status: 0 when every tag matches; 1 when a tag mismatches, names a
missing sidecar or field, has no number before it, or when the doc holds
no tag at all (a check of nothing proves nothing).
"""
import argparse
import json
import os
import re
import sys

TAG = re.compile(r"<!--\s*(E\d+)\.(\w+(?:\.\w+)*)\s*-->")
NUMBER_BEFORE = re.compile(r"(-?\d[\d,]*(?:\.\d+)?)\s*$")


def check(doc_path, sidecar_dir):
    sidecars = {}
    problems = []
    tags = 0
    with open(doc_path, encoding="utf-8") as f:
        lines = f.readlines()
    for lineno, line in enumerate(lines, 1):
        for m in TAG.finditer(line):
            tags += 1
            exp, field = m.group(1), m.group(2)
            where = f"{doc_path}:{lineno}: {exp}.{field}"
            num = NUMBER_BEFORE.search(line[: m.start()])
            if not num:
                problems.append(f"{where}: no number before the tag")
                continue
            if exp not in sidecars:
                path = os.path.join(sidecar_dir, f"BENCH_{exp}.json")
                try:
                    with open(path, encoding="utf-8") as f:
                        sidecars[exp] = json.load(f)
                except OSError as e:
                    sidecars[exp] = None
                    problems.append(f"{where}: cannot read {path}: {e.strerror}")
            value = sidecars[exp]
            if value is None:
                continue
            for key in field.split("."):
                if isinstance(value, list) and key.isdigit() and int(key) < len(value):
                    value = value[int(key)]
                elif isinstance(value, dict) and key in value:
                    value = value[key]
                else:
                    value = None
                    break
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{where}: BENCH_{exp}.json has no number at {field}")
                continue
            text = num.group(1).replace(",", "")
            decimals = len(text.split(".")[1]) if "." in text else 0
            if round(float(value), decimals) != float(text):
                problems.append(f"{where}: doc says {num.group(1)}, sidecar says {value}")
    if tags == 0:
        problems.append(f"{doc_path}: no <!-- E<n>.<field> --> tags found")
    return tags, problems


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--doc", default=os.path.join(root, "EXPERIMENTS.md"))
    ap.add_argument("--sidecars", default=".")
    args = ap.parse_args(argv)
    tags, problems = check(args.doc, args.sidecars)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"doc_check: {len(problems)} problem(s) in {tags} tagged numbers", file=sys.stderr)
        return 1
    print(f"doc_check OK: {tags} tagged numbers match their sidecars")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
