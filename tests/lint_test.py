#!/usr/bin/env python3
"""Unit tests for tools/sion_lint.py (ctest label: lint).

Every fixture under tests/lint_fixtures/ mimics the real src/ layout and
annotates each intended violation with `// sion-lint-expect: <rule>` on the
offending line. The main test runs the linter over the fixture tree and
requires the finding set to equal the expectation set exactly -- every rule
fires where expected, nowhere else, and suppression comments hold.
"""

import json
import os
import re
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
LINTER = os.path.join(REPO_ROOT, "tools", "sion_lint.py")
FIXTURE_ROOT = os.path.join(TESTS_DIR, "lint_fixtures")

EXPECT_RE = re.compile(r"sion-lint-expect:\s*([\w-]+)")


def run_linter(args):
    proc = subprocess.run(
        [sys.executable, LINTER] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc


def expected_findings():
    expected = set()
    for dirpath, _dirs, files in os.walk(FIXTURE_ROOT):
        for name in sorted(files):
            if not name.endswith((".h", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, FIXTURE_ROOT).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    for rule in EXPECT_RE.findall(line):
                        expected.add((rel, lineno, rule))
    return expected


class FixtureTest(unittest.TestCase):
    """The fixture tree's findings must match its annotations exactly."""

    @classmethod
    def setUpClass(cls):
        proc = run_linter(["--root", FIXTURE_ROOT, "--json"])
        assert proc.returncode in (0, 1), proc.stderr
        cls.report = json.loads(proc.stdout)
        cls.returncode = proc.returncode
        cls.actual = {(f["file"], f["line"], f["rule"])
                      for f in cls.report["findings"]}
        cls.expected = expected_findings()

    def test_every_expected_violation_fires(self):
        missing = self.expected - self.actual
        self.assertFalse(
            missing, "rules that failed to fire: %s" % sorted(missing))

    def test_no_unexpected_findings(self):
        extra = self.actual - self.expected
        self.assertFalse(
            extra, "unexpected findings (false positives): %s" % sorted(extra))

    def test_every_rule_covered_by_a_fixture(self):
        fired = {rule for (_f, _l, rule) in self.expected}
        self.assertEqual(fired, set(self.report["rules"]),
                         "every shipped rule needs a fixture that proves it")

    def test_suppressions_counted(self):
        # suppressed_ok.cpp carries 4 allowed violations (2 wall-clock,
        # 1 env-access, 1 raw-random).
        self.assertEqual(self.report["suppressed"], 4)

    def test_exit_code_signals_findings(self):
        self.assertEqual(self.returncode, 1)

    def test_messages_name_the_remedy(self):
        for f in self.report["findings"]:
            self.assertTrue(f["message"], "empty message for %s" % (f,))

    def test_findings_sorted_and_unique(self):
        keys = [(f["file"], f["line"], f["rule"])
                for f in self.report["findings"]]
        self.assertEqual(keys, sorted(keys))
        self.assertEqual(len(keys), len(set(keys)))


class CleanTreeTest(unittest.TestCase):
    def test_real_src_is_clean(self):
        """The gating contract: src/ lints clean (suppressions included)."""
        proc = run_linter([])
        self.assertEqual(
            proc.returncode, 0,
            "sion-lint found violations in src/:\n%s" % proc.stdout)

    def test_clean_fixture_subtree_exits_zero(self):
        proc = run_linter(["--root", FIXTURE_ROOT, "src/common", "--json"])
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(json.loads(proc.stdout)["findings"], [])


class CliTest(unittest.TestCase):
    def test_list_rules(self):
        proc = run_linter(["--list-rules"])
        self.assertEqual(proc.returncode, 0)
        for rule in ("wall-clock", "raw-random", "env-access",
                     "unordered-iteration", "stdout-logging", "naked-new",
                     "catch-all", "legacy-checkpoint-call",
                     "simfs-downcast"):
            self.assertIn(rule, proc.stdout)

    def test_missing_path_is_a_usage_error(self):
        proc = run_linter(["does/not/exist"])
        self.assertEqual(proc.returncode, 2)

    def test_human_output_is_file_line_rule(self):
        proc = run_linter(["--root", FIXTURE_ROOT, "src/core"])
        self.assertEqual(proc.returncode, 1)
        self.assertRegex(proc.stdout,
                         r"src/core/catch_all_violation\.cpp:\d+: \[catch-all\]")


if __name__ == "__main__":
    unittest.main(verbosity=2)
