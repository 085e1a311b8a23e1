#!/usr/bin/env python3
"""Symbolises and summarises a profile written by sampler.c.

    symbolize.py BINARY PROF [--keep REGEX] [--focus REGEX]
                             [--callees REGEX] [--bucket NAME=REGEX ...]
                             [--top N]

Addresses inside BINARY's mappings are turned into function names with
`addr2line -f -C -i` (inlined frames included: build with debug = 2 for
them); the others are named after the library they fall in. `--keep`
drops every sample whose stack names no function matching REGEX (for the
simulator workloads, `Sim::pose` or the benchmark's query loop);
`--focus` keeps the samples inside a function matching REGEX, cut at its
outermost frame, so that the tables read what it calls.

Prints the share of kept samples per innermost function (self), per
function anywhere on the stack (inclusive), with `--callees` per direct
callee of the outermost frame matching REGEX ("(self)" when that frame is
innermost, "(not under REGEX)" when no frame matches), and, when
`--bucket` rules are given, per bucket: a sample goes to the first rule,
in the order given, that matches a function anywhere on its stack, else
to "other".
"""

import argparse
import collections
import os
import re
import subprocess
import sys


def load(path):
    maps, samples, dropped = [], [], 0
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                parts = line[4:].split()
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                offset = int(parts[2], 16)
                name = parts[5] if len(parts) > 5 else ""
                maps.append((lo, hi, offset, name))
            elif line.startswith("s "):
                samples.append([int(x, 16) for x in line.split()[1:]])
            elif line.startswith("dropped "):
                dropped = int(line.split()[1])
    return maps, samples, dropped


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("prof")
    ap.add_argument("--keep", default=None)
    ap.add_argument("--focus", default=None)
    ap.add_argument("--callees", default=None)
    ap.add_argument("--bucket", action="append", default=[])
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps, samples, dropped = load(args.prof)
    binary = os.path.realpath(args.binary)
    mine = [m for m in maps if m[3] and os.path.realpath(m[3]) == binary]
    if not mine:
        sys.exit(f"{args.binary} is not mapped in {args.prof}")
    # The load base is the start of the binary's offset-0 mapping: its
    # text segment's virtual address differs from its file offset.
    base = min(m[0] for m in mine if m[2] == 0)

    def lib(addr):
        for lo, hi, _, name in maps:
            if lo <= addr < hi:
                return "[" + os.path.basename(name or "anon") + "]"
        return "[unknown]"

    # Return addresses point after the call: look up the call itself.
    def key(addr, i):
        return addr - base - (1 if i else 0)

    inside = lambda a: any(lo <= a < hi for lo, hi, _, _ in mine)
    wanted = sorted({key(a, i) for s in samples for i, a in enumerate(s) if inside(a)})
    frames = {}
    if wanted:
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", args.binary],
            input="\n".join(f"{a:x}" for a in wanted),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        current = None
        lines = iter(out)
        for line in lines:
            if line.startswith("0x"):
                current = int(line, 16)
                frames[current] = []
            else:
                frames[current].append(line)
                next(lines, None)  # file:line

    def stack(sample):
        names = []  # innermost first; inlined callees before their callers
        for i, a in enumerate(sample):
            names.extend(frames.get(key(a, i), []) if inside(a) else [lib(a)])
        return names

    stacks = [stack(s) for s in samples]
    if args.keep:
        keep = re.compile(args.keep)
        stacks = [s for s in stacks if any(keep.search(f) for f in s)]
    def outermost(s, rx):
        return max((i for i, f in enumerate(s) if rx.search(f)), default=None)

    if args.focus:
        focus = re.compile(args.focus)
        stacks = [s[: i + 1] for s in stacks if (i := outermost(s, focus)) is not None]
    total = len(stacks)
    print(f"{len(samples)} samples, {total} kept, {dropped} dropped")
    if not total:
        return

    def table(title, counts):
        print(f"\n## {title}")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / total:6.1f} % {n:7d}  {name[:150]}")

    table("self", collections.Counter(s[0] for s in stacks if s))
    table("inclusive", collections.Counter(f for s in stacks for f in set(s)))
    if args.callees:
        caller = re.compile(args.callees)

        def callee(s):
            i = outermost(s, caller)
            return "(not under REGEX)" if i is None else s[i - 1] if i else "(self)"

        table(f"callees of {args.callees}", collections.Counter(callee(s) for s in stacks))
    if args.bucket:
        rules = [(r.split("=", 1)[0], re.compile(r.split("=", 1)[1])) for r in args.bucket]
        counts = collections.Counter()
        for s in stacks:
            name = next((n for n, rx in rules if any(rx.search(f) for f in s)), "other")
            counts[name] += 1
        print("\n## by bucket")
        for name, _ in rules + [("other", None)]:
            print(f"{100 * counts[name] / total:6.1f} % {counts[name]:7d}  {name}")


if __name__ == "__main__":
    main()
