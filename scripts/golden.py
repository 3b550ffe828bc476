#!/usr/bin/env python3
"""Golden-output gate: every bench and example must print exactly what the
committed manifest says it prints.

The simulator is deterministic at a fixed seed, so a refactor that claims to
keep behaviour can prove it: each manifest entry runs one built binary with
fixed arguments at a small RFP_BENCH_SCALE and compares the SHA-256 of its
stdout against the recorded hash.

    python3 scripts/golden.py --build-dir build check             # every entry
    python3 scripts/golden.py --build-dir build check NAME [...]  # some entries
    python3 scripts/golden.py --build-dir build update            # rewrite hashes

NAME is the entry's binary path relative to the build directory, e.g.
bench/bench_fig10_jakiro_clients. ctest runs one `check NAME` per entry under
the `golden` label (tests/golden/CMakeLists.txt). `update` is the deliberate,
reviewed step that accepts new outputs: it rewrites the hash column of the
manifest and keeps entries, order, and arguments as they are.
"""

import argparse
import hashlib
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(REPO, "tests", "golden", "manifest.txt")
# Small enough that the whole gate costs about a minute of CPU, large enough
# that every bench still takes its mode switches, retries and evictions.
SCALE = "0.05"
RUN_TIMEOUT_S = 600


def read_manifest(path):
    """Returns (header comment lines, [(hash, name, args)])."""
    header, entries = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                if not entries:
                    header.append(line)
                continue
            digest, name, *args = line.split()
            entries.append((digest, name, args))
    return header, entries


def run(build_dir, name, args):
    env = dict(os.environ, RFP_BENCH_SCALE=SCALE)
    env.pop("RFP_CHECK", None)  # hash the default (unchecked) build's output
    proc = subprocess.run([os.path.join(build_dir, name), *args], env=env,
                          stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited with status {proc.returncode}")
    return hashlib.sha256(proc.stdout).hexdigest(), proc.stdout


def check(build_dir, entries, names):
    wanted = set(names) if names else None
    if wanted is not None:
        unknown = wanted - {name for _, name, _ in entries}
        if unknown:
            print(f"golden: not in the manifest: {' '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    failed = 0
    for digest, name, args in entries:
        if wanted is not None and name not in wanted:
            continue
        actual, output = run(build_dir, name, args)
        if actual == digest:
            print(f"ok      {name}")
            continue
        failed += 1
        print(f"CHANGED {name} {' '.join(args)}\n  manifest {digest}\n  actual   {actual}")
        sys.stdout.flush()
        sys.stdout.buffer.write(output)
        sys.stdout.flush()
    return 1 if failed else 0


def update(build_dir, header, entries):
    lines = list(header)
    changed = 0
    for digest, name, args in entries:
        actual, _ = run(build_dir, name, args)
        if actual != digest:
            changed += 1
            print(f"updated {name}")
        lines.append("  ".join([actual, name, *args]))
    with open(MANIFEST, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    print(f"golden: {changed} of {len(entries)} hashes changed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("mode", choices=("check", "update"))
    parser.add_argument("names", nargs="*")
    args = parser.parse_args()
    header, entries = read_manifest(MANIFEST)
    if args.mode == "update":
        if args.names:
            parser.error("update rewrites the whole manifest; it takes no names")
        return update(args.build_dir, header, entries)
    return check(args.build_dir, entries, args.names)


if __name__ == "__main__":
    sys.exit(main())
