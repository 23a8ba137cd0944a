#!/usr/bin/env python3
"""Mutation runner over the trust-critical checks.

    scripts/mutants.py            # from a clean checkout of the repository

Reads the mutants listed in scripts/mutants.json. Each entry names a file,
an exact text that must occur in it exactly once, its replacement, and one
line on what the mutant breaks. The runner first checks that the suite
passes as it stands, then applies each mutant alone, runs
`cargo test -q --no-fail-fast` and restores the file, also when
interrupted. A mutant is killed when the suite fails, and survives when it
passes; the runner prints every test that failed with each killed mutant.

It edits the tree it runs in, so run it on a clean checkout. It exits 1 if
a mutant survives, does not build, or no longer applies, and 2 if the suite
fails without any mutant.
"""

import json
import pathlib
import re
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIST = ROOT / "scripts" / "mutants.json"


def failed_tests(output):
    """Names listed under the `failures:` summary of a cargo test run."""
    names = []
    for block in re.findall(r"^failures:\n((?:    \S.*\n)+)", output, re.M):
        names += [line.strip() for line in block.splitlines()]
    return names


def suite():
    """Runs the whole suite; returns the finished process."""
    return subprocess.run(
        ["cargo", "test", "-q", "--no-fail-fast"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def run(entry):
    """Applies one mutant, runs the suite, restores the file. Returns
    (verdict, detail)."""
    path = ROOT / entry["file"]
    original = path.read_text()
    if original.count(entry["from"]) != 1:
        return "stale", "the text to replace does not occur exactly once"
    path.write_text(original.replace(entry["from"], entry["to"]))
    try:
        proc = suite()
    finally:
        path.write_text(original)
    if proc.returncode == 0:
        return "SURVIVED", ""
    if "could not compile" in proc.stdout:
        return "unviable", "the mutant does not build"
    return "killed", ", ".join(failed_tests(proc.stdout)) or "a test binary failed"


def main():
    entries = json.loads(LIST.read_text())
    clean = suite()
    if clean.returncode != 0:
        print("the suite fails without any mutant:", ", ".join(failed_tests(clean.stdout)))
        return 2
    bad = 0
    for n, entry in enumerate(entries, 1):
        start = time.monotonic()
        verdict, detail = run(entry)
        secs = time.monotonic() - start
        print(f"[{n}/{len(entries)}] {verdict:8} {secs:5.0f} s  {entry['file']}: {entry['breaks']}")
        if detail:
            print(f"           {detail}")
        sys.stdout.flush()
        bad += verdict != "killed"
    print(f"{len(entries) - bad} of {len(entries)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
