#!/usr/bin/env python3
"""The benchmark's own test: one seed always yields the same input digest.

    python3 perfbench/test_digest.py [path/to/perfbench]

Runs the benchmark binary's --digest-only mode in separate processes. The
digest covers the catalog (with every image feature), the query schedules
with their filters and query vectors, and the update stream; a change to
the src/workload generators or to query extraction therefore shows up here
as changed inputs, not as a speed-up.
"""
import os
import re
import subprocess
import sys
import unittest

BINARY = sys.argv.pop(1) if len(sys.argv) > 1 else os.path.join(
    ".bench_build", "perfbench", "perfbench")
WORKLOADS = ("paper_testbed", "realtime_mix")


def digest(workload, seed, seconds=2):
    out = subprocess.run(
        [BINARY, "--digest-only", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        check=True, capture_output=True, text=True).stdout
    match = re.search(
        r"^input_digest catalog=(\w+) queries=(\w+) updates=(\w+)", out,
        re.MULTILINE)
    if match is None:
        raise AssertionError(f"no input_digest line in: {out!r}")
    return match.groups()


class InputDigestTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, 7), digest(workload, 7))

    def test_other_seed_changes_every_part(self):
        for a, b in zip(digest("realtime_mix", 7), digest("realtime_mix", 8)):
            self.assertNotEqual(a, b)

    def test_run_length_changes_only_schedules(self):
        short, longer = digest("paper_testbed", 7, 2), digest("paper_testbed", 7, 3)
        self.assertEqual(short[0], longer[0])
        self.assertNotEqual(short[1], longer[1])
        self.assertNotEqual(short[2], longer[2])


if __name__ == "__main__":
    unittest.main()
