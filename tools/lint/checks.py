"""The four shotgun-lint checks.

Each check is a function over the loaded Analysis returning a list of
Finding records. Findings anchor to the line that must change (the
member declaration, the offending call) so `lint:allow` suppressions
sit next to what they justify.

Check registry (names are what `lint:allow(<name>)` takes):

  clone-completeness            every non-static data member of a
                                class with a user-written copy/clone
                                constructor must be referenced by it
  determinism-hazards           unordered-container iteration,
                                pointer-keyed ordered containers with
                                the default comparator, wall-clock /
                                libc-rand reads in sim-reachable code,
                                uninitialized scalar members in
                                checkpointable classes
  codec-coverage                every non-static data member of a
                                wire struct must appear in its field
                                list, fields(V &, S &)
  protocol-optional-discipline  optional protocol members must be
                                decoded via find(), never .at()
"""

from collections import namedtuple

from cpp_model import _angle_open, _skip_angles, _skip_balanced

Finding = namedtuple("Finding", ["file", "line", "check", "message"])

CHECK_NAMES = (
    "clone-completeness",
    "determinism-hazards",
    "codec-coverage",
    "protocol-optional-discipline",
)

# ------------------------------------------------------------------ helpers


def _in_scope(relpath, prefixes):
    return any(relpath.startswith(p) for p in prefixes)


def _type_tokens(type_text):
    return [t for t in type_text.replace("::", " :: ").split()
            if t not in ("const", "mutable", "volatile", "struct",
                         "class", "enum", "typename")]


def _is_scalar_type(type_text, scalar_types):
    # `*`/`&` inside template arguments (std::map<int, T *>) say
    # nothing about the member itself; only top-level ones do.
    lt = type_text.find("<")
    gt = type_text.rfind(">")
    if lt != -1 and gt > lt:
        type_text = type_text[:lt] + " " + type_text[gt + 1:]
    toks = _type_tokens(type_text)
    if not toks:
        return False
    if "&" in toks:
        return False  # references must be bound, the compiler enforces
    if "*" in toks:
        return True  # an uninitialized pointer is the classic hazard
    last = toks[-1]
    return last in scalar_types


# ------------------------------------------------------- clone-completeness


def check_clone_completeness(analysis):
    findings = []
    scope = analysis.config["clone_scope"]
    for cls in analysis.classes:
        if not _in_scope(cls.file, scope):
            continue
        copy_ctors = [c for c in analysis.ctors_of(cls)
                      if c.is_copy_like]
        if not copy_ctors:
            continue
        bodies = [c for c in copy_ctors if c.has_body]
        if not bodies:
            continue  # declared here, defined out of the scanned set
        covered = set()
        for c in bodies:
            covered |= c.idents
        where = ", ".join(sorted({"%s:%d" % (c.file, c.line)
                                  for c in bodies}))
        for m in cls.members:
            if m.name in covered:
                continue
            findings.append(Finding(
                cls.file, m.line, "clone-completeness",
                "member '%s' of %s is not referenced by its "
                "copy/clone constructor (%s); a member missing from "
                "the clone path silently diverges on checkpoint "
                "restore" % (m.name, cls.qualified_name, where)))
    return findings


# ------------------------------------------------------ determinism-hazards


def _banned_source_calls(tokens, relpath, config):
    """rand()/random_device/wall-clock reads in sim-reachable code."""
    findings = []
    banned = config["banned_sources"]
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text not in banned:
            continue
        prev = tokens[i - 1] if i > 0 else None
        nxt = tokens[i + 1] if i + 1 < n else None
        # Member access `x.time(...)` is not the libc call.
        if prev is not None and prev.kind == "punct" and \
                prev.text == ".":
            continue
        # Call-shaped names need the call parenthesis; type-shaped
        # names (random_device, system_clock...) match bare.
        if banned[t.text] == "call" and not (
                nxt is not None and nxt.kind == "punct" and
                nxt.text == "("):
            continue
        findings.append(Finding(
            relpath, t.line, "determinism-hazards",
            "'%s' in sim-reachable code: results must be a pure "
            "function of the configuration; wall-clock and libc "
            "randomness belong only in src/obs/ and "
            "src/runner/progress.*" % t.text))
    return findings


def _unordered_iteration(tokens, relpath, unordered_names):
    """Range-for / .begin() iteration over unordered containers."""
    findings = []
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text == "for" and i + 1 < n and \
                tokens[i + 1].kind == "punct" and \
                tokens[i + 1].text == "(":
            end = _skip_balanced(tokens, i + 1, "(", ")")
            inner = tokens[i + 2:end - 1]
            colon = _top_level_colon(inner)
            if colon is not None:
                range_idents = {tk.text for tk in inner[colon + 1:]
                                if tk.kind == "id"}
                hit = sorted(range_idents & unordered_names)
                if hit:
                    findings.append(Finding(
                        relpath, t.line, "determinism-hazards",
                        "iteration over unordered container '%s': "
                        "traversal order is implementation-defined, "
                        "so anything it feeds (stats, output, "
                        "allocation order) loses bitwise "
                        "determinism" % hit[0]))
            i = end
            continue
        if t.kind == "id" and t.text in unordered_names and \
                i + 3 < n and tokens[i + 1].kind == "punct" and \
                tokens[i + 1].text == "." and \
                tokens[i + 2].kind == "id" and \
                tokens[i + 2].text in ("begin", "cbegin", "rbegin") and \
                tokens[i + 3].kind == "punct" and \
                tokens[i + 3].text == "(":
            findings.append(Finding(
                relpath, t.line, "determinism-hazards",
                "iterator over unordered container '%s': traversal "
                "order is implementation-defined, so anything it "
                "feeds loses bitwise determinism" % t.text))
            i += 4
            continue
        i += 1
    return findings


def _top_level_colon(tokens):
    """Index of a `:` at depth 0 (range-for separator), or None."""
    depth = 0
    for i, t in enumerate(tokens):
        if t.kind != "punct":
            continue
        if t.text in ("(", "{", "["):
            depth += 1
        elif t.text in (")", "}", "]"):
            depth -= 1
        elif t.text == "<" and _angle_open(tokens, i):
            depth += 1
        elif t.text == ">" and depth > 0:
            depth -= 1
        elif t.text == ":" and depth == 0:
            return i
    return None


def _pointer_keyed_ordered(tokens, relpath):
    """std::map/std::set keyed on raw pointers with the default
    comparator: std::less<T*> is the runtime address order."""
    findings = []
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "id" and \
                t.text in ("map", "set", "multimap", "multiset") and \
                i >= 1 and tokens[i - 1].kind == "punct" and \
                tokens[i - 1].text == "::" and i + 1 < n and \
                tokens[i + 1].kind == "punct" and \
                tokens[i + 1].text == "<":
            end = _skip_angles(tokens, i + 1)
            args = _split_template_args(tokens[i + 2:end - 1])
            if args:
                key = args[0]
                key_is_ptr = bool(key) and key[-1].kind == "punct" \
                    and key[-1].text == "*"
                has_cmp = (t.text in ("map", "multimap") and
                           len(args) >= 3) or \
                          (t.text in ("set", "multiset") and
                           len(args) >= 2)
                if key_is_ptr and not has_cmp:
                    findings.append(Finding(
                        relpath, t.line, "determinism-hazards",
                        "std::%s keyed on a raw pointer with the "
                        "default comparator: iteration order is the "
                        "allocation-dependent address order; key on "
                        "a stable id or supply a deterministic "
                        "comparator" % t.text))
            i = end
            continue
        i += 1
    return findings


def _split_template_args(tokens):
    args = []
    cur = []
    depth = 0
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct" and t.text in ("(", "{", "["):
            end = _skip_balanced(tokens, i, t.text,
                                 {"(": ")", "{": "}",
                                  "[": "]"}[t.text])
            cur.extend(tokens[i:end])
            i = end
            continue
        if t.kind == "punct" and t.text == "<" and _angle_open(tokens, i):
            end = _skip_angles(tokens, i)
            cur.extend(tokens[i:end])
            i = end
            continue
        if t.kind == "punct" and t.text == "," and depth == 0:
            args.append(cur)
            cur = []
            i += 1
            continue
        cur.append(t)
        i += 1
    if cur:
        args.append(cur)
    return args


def _uninitialized_scalars(analysis):
    findings = []
    scope = analysis.config["clone_scope"]
    scalar_types = set(analysis.config["scalar_types"])
    for cls in analysis.classes:
        if not _in_scope(cls.file, scope):
            continue
        ctors = analysis.ctors_of(cls)
        ctor_idents = set()
        for c in ctors:
            ctor_idents |= c.idents
        for m in cls.members:
            if m.has_initializer:
                continue
            if not _is_scalar_type(m.type_text, scalar_types):
                continue
            if m.name in ctor_idents:
                continue
            findings.append(Finding(
                cls.file, m.line, "determinism-hazards",
                "scalar member '%s' of %s has no default initializer "
                "and no constructor initializes it; an indeterminate "
                "value makes checkpoint clones and reruns diverge "
                "silently" % (m.name, cls.qualified_name)))
    return findings


def check_determinism_hazards(analysis):
    findings = []
    det_scope = analysis.config["determinism_scope"]
    allowed = analysis.config["clock_allowed"]
    for relpath, (tokens, _comments) in sorted(analysis.files.items()):
        if not _in_scope(relpath, det_scope):
            continue
        if _in_scope(relpath, allowed):
            continue
        findings += _banned_source_calls(tokens, relpath,
                                         analysis.config)
        findings += _unordered_iteration(
            tokens, relpath, analysis.unordered_names_for(relpath))
        findings += _pointer_keyed_ordered(tokens, relpath)
    findings += _uninitialized_scalars(analysis)
    return findings


# ---------------------------------------------------------- codec-coverage


def check_codec_coverage(analysis):
    """Every encoding of a wire struct -- the canonical writer and
    fingerprint, the Value encoder, the strict decoder, the trace
    archive -- is a run of its one field list, so covering the list
    covers them all."""
    findings = []
    classes_by_name = {}
    for cls in analysis.classes:
        classes_by_name.setdefault(cls.name, cls)
    for fl in analysis.field_lists:
        cls = classes_by_name.get(fl.struct)
        if cls is None:
            findings.append(Finding(
                fl.file, fl.line, "codec-coverage",
                "field list for '%s', which is not a struct in the "
                "scanned tree" % fl.struct))
            continue
        for m in cls.members:
            if m.name in fl.members:
                continue
            findings.append(Finding(
                fl.file, fl.line, "codec-coverage",
                "member '%s' of %s (%s:%d) is missing from its field "
                "list; a field that escapes the list escapes every "
                "encoding and the fingerprint, which corrupts caching "
                "and interchange fleet-wide" % (m.name, fl.struct,
                                               cls.file, m.line)))
    return findings


# ------------------------------------------- protocol-optional-discipline


def check_protocol_optional(analysis):
    findings = []
    scope = analysis.config["protocol_scope"]
    optional = set(analysis.config["optional_fields"])
    for relpath, (tokens, _comments) in sorted(analysis.files.items()):
        if not _in_scope(relpath, scope):
            continue
        n = len(tokens)
        for i, t in enumerate(tokens):
            if t.kind != "id" or t.text != "at":
                continue
            if i + 2 >= n or i == 0:
                continue
            prev = tokens[i - 1]
            if not (prev.kind == "punct" and prev.text in (".", ">")):
                continue  # `.at` or `->at` (-> lexes as '-' '>')
            if not (tokens[i + 1].kind == "punct" and
                    tokens[i + 1].text == "("):
                continue
            arg = tokens[i + 2]
            if arg.kind != "str":
                continue
            key = arg.text.strip('"')
            if key not in optional:
                continue
            findings.append(Finding(
                relpath, t.line, "protocol-optional-discipline",
                "optional protocol member \"%s\" decoded with .at(): "
                "older peers omit it, so the frame must be read via "
                "find() with a default" % key))
    return findings


ALL_CHECKS = {
    "clone-completeness": check_clone_completeness,
    "determinism-hazards": check_determinism_hazards,
    "codec-coverage": check_codec_coverage,
    "protocol-optional-discipline": check_protocol_optional,
}
