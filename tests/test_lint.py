#!/usr/bin/env python3
"""Tests for shotgun-lint itself (wired into ctest as `lint_self`).

Pins: every fixture violation is detected (golden output, byte-exact),
suppressions waive exactly what they annotate, the clean fixtures stay
clean, the real tree is green with zero unsuppressed findings, and a
mutated clone constructor and a mutated wire field list are caught.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "lint", "shotgun_lint.py")
FIXTURES = os.path.join(REPO, "tools", "lint", "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden_findings.txt")

CHECKS = (
    "clone-completeness",
    "determinism-hazards",
    "codec-coverage",
    "protocol-optional-discipline",
)


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def fixtures_args(root=FIXTURES):
    return ("--root", root,
            "--config", os.path.join(FIXTURES, "config.json"))


class TestFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.out, cls.err = run_lint(*fixtures_args())
        with open(GOLDEN, "r", encoding="utf-8") as f:
            cls.golden = f.read()

    def test_matches_golden_exactly(self):
        self.assertEqual(self.out, self.golden)

    def test_exit_status_signals_findings(self):
        self.assertEqual(self.code, 1)

    def test_every_check_fires_on_its_fixture(self):
        for check in CHECKS:
            self.assertIn("[%s]" % check, self.out,
                          "no fixture finding for %s" % check)
        self.assertIn("[suppression-syntax]", self.out)

    def test_suppression_waives_annotated_member(self):
        # clone_suppressed.cc's scratch_ carries a reasoned
        # lint:allow; nothing from that file may surface.
        self.assertNotIn("clone_suppressed.cc:", self.out)
        self.assertIn("1 suppressed", self.err)

    def test_reasonless_suppression_does_not_waive(self):
        self.assertIn("det_rand.cc:22: [suppression-syntax]", self.out)
        self.assertIn("'random_device'", self.out)

    def test_clean_fixtures_stay_clean(self):
        for clean in ("clean.cc", "clone_clean.cc",
                      "det_allowed_progress.cc"):
            self.assertNotIn(clean + ":", self.out)


class TestTreeIsGreen(unittest.TestCase):
    def test_repo_has_zero_unsuppressed_findings(self):
        code, out, err = run_lint("--root", REPO)
        self.assertEqual(out, "",
                         "unsuppressed findings on the tree:\n" + out)
        self.assertEqual(code, 0, err)


class TestMutation(unittest.TestCase):
    def test_deleted_clone_line_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in os.listdir(FIXTURES):
                shutil.copy(os.path.join(FIXTURES, name),
                            os.path.join(tmp, name))
            path = os.path.join(tmp, "clone_clean.cc")
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
            mutated = text.replace(": count_(other.count_)", "")
            self.assertNotEqual(mutated, text)
            with open(path, "w", encoding="utf-8") as f:
                f.write(mutated)
            code, out, _err = run_lint(*fixtures_args(root=tmp))
            self.assertEqual(code, 1)
            self.assertIn(
                "clone_clean.cc", out,
                "mutated clone ctor not caught:\n" + out)
            self.assertIn("'count_' of Engine", out)


    def test_member_dropped_from_field_list_is_caught(self):
        # A copy of the scanned tree with ras_entries deleted from
        # CoreParams' field list: every encoding would lose it.
        with tempfile.TemporaryDirectory() as tmp:
            for top in ("src", "tools"):
                shutil.copytree(os.path.join(REPO, top),
                                os.path.join(tmp, top))
            path = os.path.join(tmp, "src", "sim", "fields.hh")
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
            line = '    v("ras_entries", p.rasEntries);\n'
            self.assertIn(line, text)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(line, ""))
            code, out, _err = run_lint("--root", tmp)
            self.assertEqual(code, 1)
            self.assertIn("src/sim/fields.hh:", out)
            self.assertIn("member 'rasEntries' of CoreParams", out)


class TestCli(unittest.TestCase):
    def test_list_checks(self):
        code, out, _ = run_lint("--list-checks")
        self.assertEqual(code, 0)
        self.assertEqual(tuple(out.split()), CHECKS)

    def test_unknown_check_rejected(self):
        code, _, err = run_lint("--check", "no-such-check",
                                *fixtures_args())
        self.assertEqual(code, 2)
        self.assertIn("unknown check", err)

    def test_single_check_selection(self):
        code, out, _ = run_lint("--check", "codec-coverage",
                                *fixtures_args())
        self.assertEqual(code, 1)
        self.assertIn("[codec-coverage]", out)
        self.assertNotIn("[determinism-hazards]", out)


if __name__ == "__main__":
    unittest.main()
