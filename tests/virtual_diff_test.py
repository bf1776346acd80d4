#!/usr/bin/env python3
"""Unit tests for scripts/virtual_diff.py (ctest label: lint)."""

import os
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(TESTS_DIR), "scripts", "virtual_diff.py")


def step_line(step):
    # The shape of a perfbench virtual-result line: two hex-float makespans,
    # then cumulative counters.
    return f"0x1.a24c643a4{step:04x}p+2 0x1.94c2c355dfe9p-1 {32 * step} {16480 * step}"


class VirtualDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, lines):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))
        return path

    def run_diff(self, *paths):
        return subprocess.run([sys.executable, SCRIPT, *paths],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)

    def test_identical_files_pass(self):
        lines = [step_line(s) for s in range(1, 22)]
        proc = self.run_diff(self.write("a", lines), self.write("b", lines))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("21 common lines", proc.stdout)

    def test_longer_run_passes_over_the_common_prefix(self):
        lines = [step_line(s) for s in range(1, 40)]
        proc = self.run_diff(self.write("a", lines[:25]), self.write("b", lines))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("25 common lines", proc.stdout)

    def test_differing_line_fails_and_names_it(self):
        lines = [step_line(s) for s in range(1, 30)]
        changed = list(lines)
        changed[7] = changed[7].replace("0x1.94c2c355dfe9p-1", "0x1.94c2c355dfeap-1")
        proc = self.run_diff(self.write("a", lines), self.write("b", changed))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("line 8 differs", proc.stdout)

    def test_difference_past_the_common_prefix_is_not_compared(self):
        lines = [step_line(s) for s in range(1, 30)]
        extra = lines[:25] + ["garbage"]
        proc = self.run_diff(self.write("a", lines[:25]), self.write("b", extra))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_short_common_prefix_fails(self):
        lines = [step_line(s) for s in range(1, 30)]
        proc = self.run_diff(self.write("a", lines[:20]), self.write("b", lines))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("fewer than 21", proc.stdout)

    def test_empty_file_fails(self):
        lines = [step_line(s) for s in range(1, 30)]
        proc = self.run_diff(self.write("a", []), self.write("b", lines))
        self.assertEqual(proc.returncode, 1)

    def test_missing_file_and_bad_usage_fail(self):
        lines = [step_line(s) for s in range(1, 30)]
        a = self.write("a", lines)
        self.assertEqual(
            self.run_diff(a, os.path.join(self.dir.name, "missing")).returncode, 2)
        self.assertEqual(self.run_diff(a).returncode, 2)


if __name__ == "__main__":
    unittest.main()
