#!/usr/bin/env python3
"""shotgun-lint: invariant-enforcing static analysis for this repo.

Four checks (see tools/lint/README.md and checks.py):
clone-completeness, determinism-hazards, codec-coverage,
protocol-optional-discipline.

Findings print as `path:line: [check] message`, sorted, to stdout.
Exit status: 0 clean, 1 unsuppressed findings, 2 usage/parse error.

Suppression: a comment `// lint:allow(<check>): <reason>` on the
finding's line or the line directly above waives it. The reason is
mandatory; a reasonless or unknown-check annotation is itself a
finding (`suppression-syntax`) that cannot be waived.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as checks_mod  # noqa: E402
import cpp_lexer  # noqa: E402
import cpp_model  # noqa: E402
from checks import ALL_CHECKS, CHECK_NAMES, Finding  # noqa: E402

_SOURCE_EXTS = (".hh", ".cc", ".h", ".cpp", ".hpp")

_SUPPRESS_RE = re.compile(
    r"lint:allow\(([A-Za-z0-9_\-, ]+)\)(\s*:\s*(\S.*?))?\s*(\*/)?\s*$")

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def _prune_comments(obj):
    """Strip `_comment`-style keys so documentation inside config.json
    cannot leak into check policy (e.g. the banned-identifier map)."""
    if isinstance(obj, dict):
        return {k: _prune_comments(v) for k, v in obj.items()
                if not k.startswith("_")}
    if isinstance(obj, list):
        return [_prune_comments(v) for v in obj]
    return obj


class Suppressions:
    """Per-file `lint:allow` annotations, parsed from comments."""

    def __init__(self):
        # file -> line -> set of check names
        self.by_line = {}
        self.syntax_findings = []
        # (file, line, check) actually used, for unused reporting
        self._used = set()

    def add_file(self, relpath, comments):
        lines = self.by_line.setdefault(relpath, {})
        for comment in comments:
            m = _SUPPRESS_RE.search(comment.text)
            if m is None:
                # Prose may mention lint:allow; only the call-shaped
                # form is an annotation attempt.
                if "lint:allow(" in comment.text:
                    self.syntax_findings.append(Finding(
                        relpath, comment.line, "suppression-syntax",
                        "malformed lint:allow annotation; use "
                        "`// lint:allow(<check>): <reason>`"))
                continue
            names = [n.strip() for n in m.group(1).split(",")
                     if n.strip()]
            reason = m.group(3)
            if not reason:
                self.syntax_findings.append(Finding(
                    relpath, comment.line, "suppression-syntax",
                    "lint:allow(%s) has no reason; a waiver must "
                    "say why" % ", ".join(names)))
                continue
            for name in names:
                if name not in CHECK_NAMES:
                    self.syntax_findings.append(Finding(
                        relpath, comment.line, "suppression-syntax",
                        "lint:allow names unknown check '%s' "
                        "(known: %s)" % (name,
                                         ", ".join(CHECK_NAMES))))
                    continue
                lines.setdefault(comment.line, set()).add(name)

    def covers(self, finding):
        lines = self.by_line.get(finding.file, {})
        for line in (finding.line, finding.line - 1):
            if finding.check in lines.get(line, ()):
                self._used.add((finding.file, line, finding.check))
                return True
        return False

    def unused(self):
        out = []
        for relpath, lines in self.by_line.items():
            for line, names in lines.items():
                for name in names:
                    if (relpath, line, name) not in self._used:
                        out.append((relpath, line, name))
        return sorted(out)


class Analysis:
    """Everything the checks consume, loaded once per run."""

    def __init__(self, root, config):
        self.root = root
        self.config = config
        self.files = {}           # relpath -> (tokens, comments)
        self.classes = []         # ClassInfo
        self._out_of_line = []    # Ctor defined outside a class body
        self.field_lists = []     # FieldList
        self.unordered_by_file = {}  # relpath -> names declared there
        self.includes_by_file = {}   # relpath -> quoted include paths
        self.suppressions = Suppressions()
        self.errors = []

    def scan_prefixes(self):
        prefixes = set()
        for key in ("clone_scope", "determinism_scope",
                    "protocol_scope", "extra_files"):
            prefixes.update(self.config.get(key, []))
        return sorted(prefixes)

    def load(self):
        prefixes = self.scan_prefixes()
        paths = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = [d for d in sorted(dirnames)
                           if d not in (".git", "build")]
            for fn in sorted(filenames):
                if not fn.endswith(_SOURCE_EXTS):
                    continue
                full = os.path.join(dirpath, fn)
                rel = os.path.relpath(full, self.root).replace(
                    os.sep, "/")
                if any(rel.startswith(p) for p in prefixes):
                    paths.append((full, rel))

        for full, rel in paths:
            with open(full, "r", encoding="utf-8",
                      errors="replace") as f:
                text = f.read()
            try:
                tokens, comments = cpp_lexer.tokenize(text)
            except cpp_lexer.LexError as e:
                self.errors.append("%s: %s" % (rel, e))
                continue
            self.files[rel] = (tokens, comments)
            self.suppressions.add_file(rel, comments)
            self.unordered_by_file[rel] = \
                cpp_model.unordered_container_names(tokens)
            self.includes_by_file[rel] = _INCLUDE_RE.findall(text)

            classes, ctors = cpp_model.parse_file(tokens, rel)
            self.classes.extend(classes)
            self._out_of_line.extend(ctors)

            self.field_lists.extend(
                cpp_model.find_field_lists(tokens, rel))

    def ctors_of(self, cls):
        return list(cls.ctors) + [c for c in self._out_of_line
                                  if c.class_name == cls.name]

    def unordered_names_for(self, relpath):
        """Names declared with unordered container types visible to
        `relpath`: its own declarations plus those of the scanned
        headers it directly includes. Include-aware scoping keeps
        e.g. one subsystem's unordered member name from tainting an
        unrelated subsystem's vector of the same name."""
        names = set(self.unordered_by_file.get(relpath, ()))
        base = os.path.dirname(relpath)
        for inc in self.includes_by_file.get(relpath, ()):
            for cand in ("src/" + inc, inc,
                         (base + "/" + inc) if base else inc):
                if cand in self.unordered_by_file:
                    names |= self.unordered_by_file[cand]
                    break
        return names


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="shotgun-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels "
                             "above this script)")
    parser.add_argument("--config", default=None,
                        help="policy file (default: "
                             "tools/lint/config.json under --root)")
    parser.add_argument("--check", action="append", default=None,
                        metavar="NAME",
                        help="run only this check (repeatable)")
    parser.add_argument("--list-checks", action="store_true",
                        help="print check names and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in CHECK_NAMES:
            print(name)
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or
                           os.path.join(script_dir, "..", ".."))
    config_path = args.config or os.path.join(root, "tools", "lint",
                                              "config.json")
    try:
        with open(config_path, "r", encoding="utf-8") as f:
            config = _prune_comments(json.load(f))
    except (OSError, ValueError) as e:
        sys.stderr.write("shotgun-lint: cannot load config %s: %s\n"
                         % (config_path, e))
        return 2

    selected = args.check or list(CHECK_NAMES)
    for name in selected:
        if name not in ALL_CHECKS:
            sys.stderr.write("shotgun-lint: unknown check '%s'\n"
                             % name)
            return 2

    analysis = Analysis(root, config)
    analysis.load()
    if analysis.errors:
        for err in analysis.errors:
            sys.stderr.write("shotgun-lint: parse error: %s\n" % err)
        return 2

    findings = []
    for name in selected:
        findings.extend(ALL_CHECKS[name](analysis))
    findings.extend(analysis.suppressions.syntax_findings)

    unsuppressed = []
    suppressed_count = 0
    for f in findings:
        if f.check in CHECK_NAMES and analysis.suppressions.covers(f):
            suppressed_count += 1
        else:
            unsuppressed.append(f)

    for relpath, line, name in analysis.suppressions.unused():
        if name not in selected:
            continue  # not exercised this run; can't judge
        unsuppressed.append(Finding(
            relpath, line, "suppression-syntax",
            "unused lint:allow(%s): nothing to waive here any more; "
            "delete it" % name))

    unsuppressed.sort(key=lambda f: (f.file, f.line, f.check,
                                     f.message))
    for f in unsuppressed:
        print("%s:%d: [%s] %s" % (f.file, f.line, f.check, f.message))

    sys.stderr.write(
        "shotgun-lint: %d file(s), %d finding(s), %d suppressed\n"
        % (len(analysis.files), len(unsuppressed), suppressed_count))
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
