#!/usr/bin/env python3
"""Folds the allocation samples of `SQPEER_ALLOC_SAMPLE` into sites.

    alloc_sites.py SAMPLES [--top N] [--depth D] [--keep REGEX] [--bytes]

SAMPLES is the stderr of an `experiments` run with `SQPEER_ALLOC_SAMPLE=N`
set (crates/bench/src/alloc.rs): one `alloc-sample <bytes> bytes` line per
sampled allocation, then its `std::backtrace`. Each sample goes to the
first frame whose file lies under `crates/*/src` (the sampler's own
frames skipped), printed as `file:line  function`; `--depth D` appends the
next D such frames, the callers, so that a shared helper reads per caller.
`--keep` drops every sample whose stack names no function matching REGEX
(E24's simulator rows: `run_to_quiescence`). `--bytes` weighs each
sample by the bytes it asked for, for where the bytes go rather than the
calls.
Build with `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` to get line
numbers, e.g.

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release \\
        --offline --bin experiments
    SQPEER_ALLOC_SAMPLE=53 target/release/experiments e24 2> samples.txt
    scripts/profile/alloc_sites.py samples.txt --keep run_to_quiescence
"""

import argparse
import collections
import re

SOURCE = re.compile(r"(crates/[^/]+/src/[^:\s]+):(\d+)")
FRAME = re.compile(r"^\s*\d+: (.*)$")


def sampler(function, at):
    """Is this frame the counting allocator's own?"""
    return at.startswith("crates/bench/src/alloc.rs") or "__rust_" in function


def samples(path):
    """Yields each sample's bytes and frames, as (function, file:line or
    None)."""
    frames, function, size = None, None, 0
    with open(path, errors="replace") as f:
        for line in f:
            if line.startswith("alloc-sample "):
                if frames is not None:
                    yield size, frames
                frames, function, size = [], None, int(line.split()[1])
            elif frames is None:
                continue
            elif (m := FRAME.match(line)) is not None:
                function = m.group(1).strip()
                frames.append((function, None))
            elif (m := SOURCE.search(line)) is not None and frames:
                frames[-1] = (function, f"{m.group(1)}:{m.group(2)}")
    if frames is not None:
        yield size, frames


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("samples")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--depth", type=int, default=0)
    parser.add_argument("--keep")
    parser.add_argument("--bytes", action="store_true")
    args = parser.parse_args()
    keep = re.compile(args.keep or "")
    sites, total = collections.Counter(), 0
    for size, frames in samples(args.samples):
        if not any(keep.search(f) for f, _ in frames):
            continue
        weight = size if args.bytes else 1
        total += weight
        ours = [(f, at) for f, at in frames if at and not sampler(f, at)]
        if not ours:
            sites["(no crates/*/src frame)"] += weight
            continue
        fn, at = ours[0]
        site = f"{at}  {re.sub(r'::h[0-9a-f]{16}$', '', fn)}"
        for _, caller in ours[1 : 1 + args.depth]:
            site += f"  < {caller}"
        sites[site] += weight
    print(f"{total} {'sampled bytes' if args.bytes else 'samples'}")
    for site, n in sites.most_common(args.top):
        print(f"{n:9d} {100.0 * n / max(total, 1):5.1f}%  {site}")


if __name__ == "__main__":
    main()
