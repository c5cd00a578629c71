"""Declaration-level C++ model for shotgun-lint's C++ frontend.

Built on cpp_lexer tokens, this extracts exactly what the checks need:

  * classes/structs with their non-static data members (name, type
    text, whether they carry a default member initializer, line);
  * constructors, classified as copy-like (first parameter is
    `const ClassName &`), with the set of identifiers referenced
    after the parameter list (member-init list + body) -- the "clone
    path" of a copy constructor;
  * wire field lists -- `fields(V &v, S &s) { ... }` definitions --
    with the members of S each one names (for codec coverage);
  * per-file convenience sets (names of variables/members declared
    with unordered container types).

It is a heuristic parser: it tracks paren/brace/bracket depth plus a
conservative template-angle depth, and classifies class-body
statements by shape. That is enough to be exact on this repository's
idiom (and the fixture corpus pins the behaviours the checks rely
on); genuinely ambiguous constructs should be rare and are what
`lint:allow` suppressions are for.
"""

from collections import namedtuple

Member = namedtuple(
    "Member", ["name", "type_text", "has_initializer", "line"])

Ctor = namedtuple(
    "Ctor",
    [
        "class_name",   # unqualified class name
        "is_copy_like",  # first param is `const ClassName &`
        "has_body",     # definition (not just a declaration)
        "idents",       # names the ctor initializes/copies (see
                        # _covered_names)
        "line",
        "file",
    ],
)

ClassInfo = namedtuple(
    "ClassInfo",
    ["name", "qualified_name", "file", "line", "members", "ctors"],
)

FieldList = namedtuple(
    "FieldList", ["struct", "members", "line", "file"])

# Keywords that can prefix a declaration without changing its shape.
_DECL_QUALIFIERS = {
    "inline", "constexpr", "explicit", "virtual", "mutable",
    "volatile", "extern", "thread_local", "alignas",
}

_SKIP_STATEMENT_STARTS = {
    "using", "typedef", "friend", "template", "operator",
    "public", "private", "protected", "static_assert",
}


class _TokenCursor:
    """Iteration helper with angle-aware depth bookkeeping."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def eof(self):
        return self.i >= len(self.tokens)

    def peek(self, offset=0):
        j = self.i + offset
        if j < len(self.tokens):
            return self.tokens[j]
        return None

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


def _skip_balanced(tokens, i, open_ch, close_ch):
    """tokens[i] is `open_ch`; return index just past its match."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == open_ch:
                depth += 1
            elif t.text == close_ch:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _angle_open(tokens, i):
    """Heuristic: `<` at tokens[i] opens a template argument list when
    the previous token is an identifier or `::` (Foo<...>, std::map<)."""
    if i == 0:
        return False
    prev = tokens[i - 1]
    return (prev.kind == "id") or (prev.kind == "punct" and
                                   prev.text in ("::", ">"))


def _skip_angles(tokens, i):
    """tokens[i] is an opening `<`; return index past the matching `>`.

    Conservative: gives up (returns i + 1) if no plausible match is
    found before a `;` at depth 0, so a stray comparison cannot
    swallow the rest of the file.
    """
    depth = 0
    n = len(tokens)
    j = i
    while j < n:
        t = tokens[j]
        if t.kind == "punct":
            if t.text == "<" and (j == i or _angle_open(tokens, j)):
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t.text == ";" and depth > 0:
                return i + 1  # unmatched: treat as comparison
            elif t.text in ("(", "{", "["):
                j = _skip_balanced(tokens, j,
                                   t.text,
                                   {"(": ")", "{": "}",
                                    "[": "]"}[t.text])
                continue
        j += 1
    return i + 1


def _split_statements(tokens):
    """Split a class body's token list into statements.

    A statement ends at a top-level `;`, or at the `}` of a function
    body / nested type that is directly followed by something other
    than a declarator (the trailing `;` of `struct X {...};` stays
    attached). Nested braces/parens/brackets are kept inside the
    statement tokens so callers can inspect them.
    """
    statements = []
    cur = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct" and t.text == ";":
            cur.append(t)
            statements.append(cur)
            cur = []
            i += 1
            continue
        if t.kind == "punct" and t.text in ("(", "["):
            end = _skip_balanced(tokens, i, t.text,
                                 ")" if t.text == "(" else "]")
            cur.extend(tokens[i:end])
            i = end
            continue
        if t.kind == "punct" and t.text == "<" and _angle_open(tokens, i):
            end = _skip_angles(tokens, i)
            cur.extend(tokens[i:end])
            i = end
            continue
        if t.kind == "punct" and t.text == "{":
            end = _skip_balanced(tokens, i, "{", "}")
            cur.extend(tokens[i:end])
            i = end
            # `= {...}` initializers and nested types continue until
            # `;`; a function body terminates its statement.
            if _brace_was_initializer(cur, len(cur)):
                continue
            nxt = tokens[i] if i < n else None
            if nxt is not None and nxt.kind == "punct" and \
                    nxt.text == ";":
                cur.append(nxt)
                i += 1
            statements.append(cur)
            cur = []
            continue
        cur.append(t)
        i += 1
    if cur:
        statements.append(cur)
    return statements


def _brace_was_initializer(stmt_tokens, brace_group_end):
    """Decide whether the brace group that just closed at the end of
    `stmt_tokens` was a brace initializer (continue the statement)
    rather than a function/class body (end it)."""
    # Find the token immediately before the group's opening `{`.
    depth = 0
    idx = brace_group_end - 1
    while idx >= 0:
        t = stmt_tokens[idx]
        if t.kind == "punct":
            if t.text == "}":
                depth += 1
            elif t.text == "{":
                depth -= 1
                if depth == 0:
                    break
        idx -= 1
    before = stmt_tokens[idx - 1] if idx >= 1 else None
    if before is None:
        return False
    if before.kind == "punct" and before.text in ("=", ","):
        return True
    # `Type name{...}` (no parens seen yet): brace init of a declarator.
    if before.kind == "id":
        seen_paren = any(
            t.kind == "punct" and t.text == "(" for t in
            stmt_tokens[:idx])
        first = _first_significant(stmt_tokens)
        is_type_def = first is not None and first.kind == "id" and \
            first.text in ("class", "struct", "enum", "union")
        return not seen_paren and not is_type_def
    return False


def _first_significant(stmt_tokens):
    for t in stmt_tokens:
        if t.kind == "id" and t.text in _DECL_QUALIFIERS:
            continue
        return t
    return None


def _strip_qualifiers(stmt_tokens):
    i = 0
    while i < len(stmt_tokens) and stmt_tokens[i].kind == "id" and \
            stmt_tokens[i].text in _DECL_QUALIFIERS:
        i += 1
    return stmt_tokens[i:]


def _top_level_split(tokens, sep=","):
    """Split on `sep` at paren/brace/bracket/angle depth zero."""
    parts = []
    cur = []
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
        if t.kind == "punct" and t.text == sep:
            parts.append(cur)
            cur = []
            i += 1
            continue
        cur.append(t)
        i += 1
    parts.append(cur)
    return parts


def _idents(tokens):
    return {t.text for t in tokens if t.kind == "id"}


def _first_param_name(params):
    """Declarator name of the first parameter, or None if unnamed."""
    first = _top_level_split(params)[0] if params else []
    for t in reversed(first):
        if t.kind == "id":
            if t.text in ("const", "volatile"):
                return None
            return t.text
    return None


def _covered_names(tokens, src_name):
    """Names a constructor demonstrably initializes or copies.

    A bare mention is not coverage (`ctx.ras = &ras_;` in the body
    must not excuse `tage_` missing from the init list). A name
    counts when it is read from the source object (`other.m`) or is
    the target of an init/assignment (`m(...)`, `m{...}`, `m = ...`).
    """
    covered = set()
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        prev = tokens[i - 1] if i > 0 else None
        prev2 = tokens[i - 2] if i > 1 else None
        if src_name is not None and prev is not None and \
                prev.kind == "punct" and prev.text == "." and \
                prev2 is not None and prev2.kind == "id" and \
                prev2.text == src_name:
            covered.add(t.text)
            continue
        nxt = tokens[i + 1] if i + 1 < n else None
        if nxt is not None and nxt.kind == "punct" and \
                nxt.text in ("(", "{", "="):
            covered.add(t.text)
    return covered


def _find_matching_paren(tokens, i):
    return _skip_balanced(tokens, i, "(", ")")


def _is_copy_like_params(param_tokens, class_name):
    """First parameter is `const ClassName [<...>] &`."""
    toks = [t for t in param_tokens
            if not (t.kind == "id" and t.text in ("const", "volatile"))]
    if not toks:
        return False
    if not (toks[0].kind == "id" and toks[0].text == class_name):
        return False
    j = 1
    if j < len(toks) and toks[j].kind == "punct" and toks[j].text == "<":
        j = _skip_angles(toks, j)
    return j < len(toks) and toks[j].kind == "punct" and \
        toks[j].text == "&"


def _has_top_level_paren_before_init(tokens):
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct" and t.text == "=":
            return False  # initializer begins; declaration part clean
        if t.kind == "punct" and t.text == "<" and _angle_open(tokens, i):
            i = _skip_angles(tokens, i)
            continue
        if t.kind == "punct" and t.text in ("{", "["):
            i = _skip_balanced(tokens, i, t.text,
                               "}" if t.text == "{" else "]")
            continue
        if t.kind == "punct" and t.text == "(":
            return True
        i += 1
    return False


def _parse_member_statement(stmt, file_line_fallback):
    """Parse one class-body statement shaped like a data-member
    declaration. Returns a list of Member (multi-declarator aware),
    or [] when the statement is not a data member."""
    stmt = _strip_qualifiers(stmt)
    if not stmt:
        return []

    # Drop the trailing `;`.
    if stmt[-1].kind == "punct" and stmt[-1].text == ";":
        stmt = stmt[:-1]
    if not stmt:
        return []

    # A top-level `(` before any initializer means this is a function
    # declaration/definition, not a data member. Parens inside
    # template arguments (std::function<void(int)>), brace
    # initializers and array extents do not count.
    if _has_top_level_paren_before_init(stmt):
        return []

    declarators = _top_level_split(stmt)
    members = []
    type_end_name = None
    for seg_idx, seg in enumerate(declarators):
        if not seg:
            continue
        # Split off any initializer.
        init_idx = None
        for k, t in enumerate(seg):
            if t.kind == "punct" and t.text in ("=", "{"):
                init_idx = k
                break
            if t.kind == "punct" and t.text == ":" and k > 0:
                init_idx = k  # bitfield width: treat like "the rest"
                break
        decl_part = seg if init_idx is None else seg[:init_idx]
        has_init = init_idx is not None and \
            seg[init_idx].text in ("=", "{")
        # Declarator name: last identifier of the declaration part
        # (skipping a trailing array extent).
        name_tok = None
        for t in reversed(decl_part):
            if t.kind == "id":
                name_tok = t
                break
        if name_tok is None:
            continue
        if name_tok.text in ("class", "struct", "enum", "union",
                             "const", "unsigned", "signed"):
            continue
        if seg_idx == 0:
            # The first segment holds the type; require at least one
            # token before the name (a bare identifier is not a
            # declaration).
            pos = decl_part.index(name_tok)
            if pos == 0:
                continue
            type_text = " ".join(t.text for t in decl_part[:pos])
            type_end_name = type_text
        else:
            type_text = type_end_name or ""
        members.append(Member(name_tok.text, type_text, has_init,
                              name_tok.line
                              if name_tok.line else file_line_fallback))
    return members


def _parse_class_body(tokens, name, qualified, file, line, classes):
    """Parse the token list of one class body (without braces)."""
    members = []
    ctors = []
    statements = _split_statements(tokens)
    for stmt in statements:
        stripped = _strip_qualifiers(stmt)
        if not stripped:
            continue
        first = stripped[0]
        # Access specifiers arrive as `public : ...` fused with the
        # following statement only when the statement splitter saw no
        # `;` between them -- strip leading `spec :` pairs.
        while first.kind == "id" and first.text in ("public", "private",
                                                    "protected"):
            if len(stripped) >= 2 and stripped[1].kind == "punct" and \
                    stripped[1].text == ":":
                stripped = _strip_qualifiers(stripped[2:])
                if not stripped:
                    break
                first = stripped[0]
            else:
                break
        if not stripped:
            continue
        first = stripped[0]
        if first.kind != "id" and not (first.kind == "punct" and
                                       first.text == "~"):
            continue
        if first.kind == "id" and first.text in _SKIP_STATEMENT_STARTS:
            continue
        if first.kind == "punct" and first.text == "~":
            continue  # destructor
        if first.kind == "id" and first.text == "static":
            continue  # static member or function
        # Nested class/struct definition.
        if first.kind == "id" and first.text in ("class", "struct",
                                                 "union", "enum"):
            _parse_nested_type(stripped, qualified, file, classes,
                               members)
            continue
        # Constructor?
        if first.kind == "id" and first.text == name and \
                len(stripped) >= 2 and stripped[1].kind == "punct" and \
                stripped[1].text == "(":
            ctors.append(_parse_ctor(stripped, name, file))
            continue
        # Data member (or a member function, which parses to []).
        mems = _parse_member_statement(stripped, line)
        members.extend(mems)
    classes.append(ClassInfo(name, qualified, file, line, members,
                             ctors))


def _parse_nested_type(stmt, outer_qualified, file, classes, members):
    """`struct X { ... } [declarator];` inside a class body."""
    kind = stmt[0].text
    i = 1
    if kind == "enum" and i < len(stmt) and stmt[i].kind == "id" and \
            stmt[i].text in ("class", "struct"):
        i += 1
    nested_name = None
    if i < len(stmt) and stmt[i].kind == "id":
        nested_name = stmt[i].text
        i += 1
    # Skip an enum base (`: underlying_type`).
    while i < len(stmt) and not (stmt[i].kind == "punct" and
                                 stmt[i].text in ("{", ";")):
        i += 1
    if i >= len(stmt) or stmt[i].text == ";":
        return  # forward declaration
    body_end = _skip_balanced(stmt, i, "{", "}")
    if kind in ("class", "struct") and nested_name is not None:
        _parse_class_body(stmt[i + 1:body_end - 1], nested_name,
                          outer_qualified + "::" + nested_name, file,
                          stmt[0].line, classes)
    # Trailing declarator: `struct X { ... } x_;`
    tail = stmt[body_end:]
    for t in tail:
        if t.kind == "id":
            members.append(Member(t.text, nested_name or kind, False,
                                  t.line))
            break


def _parse_ctor(stmt, class_name, file):
    paren = 1
    params_end = _find_matching_paren(stmt, paren)
    params = stmt[paren + 1:params_end - 1]
    rest = stmt[params_end:]
    has_body = any(t.kind == "punct" and t.text == "{" for t in rest)
    covered = _covered_names(rest, _first_param_name(params))
    return Ctor(class_name, _is_copy_like_params(params, class_name),
                has_body, covered, stmt[0].line, file)


def parse_file(tokens, file):
    """Extract every class/struct definition in a token stream.

    Handles namespaces transparently (their braces are walked through)
    and nested classes (recorded with `Outer::Inner` qualified names).
    Returns (classes, out_of_line_ctors).
    """
    classes = []
    ctors = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        # Out-of-line constructor: `X :: X (`
        if t.kind == "id" and i + 3 < n and \
                tokens[i + 1].kind == "punct" and \
                tokens[i + 1].text == "::" and \
                tokens[i + 2].kind == "id" and \
                tokens[i + 2].text == t.text and \
                tokens[i + 3].kind == "punct" and \
                tokens[i + 3].text == "(":
            params_end = _find_matching_paren(tokens, i + 3)
            params = tokens[i + 4:params_end - 1]
            # Definition runs to the end of its body (or `;` for a
            # qualified declaration, which cannot happen for ctors).
            j = params_end
            body_start = None
            while j < n:
                tj = tokens[j]
                if tj.kind == "punct" and tj.text == "{":
                    body_start = j
                    break
                if tj.kind == "punct" and tj.text == ";":
                    break
                j += 1
            if body_start is not None:
                body_end = _skip_balanced(tokens, body_start, "{", "}")
                covered = _covered_names(
                    tokens[params_end:body_end],
                    _first_param_name(params))
                ctors.append(Ctor(
                    t.text,
                    _is_copy_like_params(params, t.text),
                    True, covered, t.line, file))
                i = body_end
                continue
            i = params_end
            continue

        if t.kind == "id" and t.text in ("class", "struct"):
            # Skip `enum class` handled elsewhere; find the name.
            j = i + 1
            # alignas/attributes are not used in this tree.
            if j < n and tokens[j].kind == "id":
                cls_name = tokens[j].text
                k = j + 1
                # Base clause or body?
                while k < n and not (tokens[k].kind == "punct" and
                                     tokens[k].text in ("{", ";")):
                    # `class X final : public Y {`
                    k += 1
                if k < n and tokens[k].text == "{":
                    body_end = _skip_balanced(tokens, k, "{", "}")
                    _parse_class_body(tokens[k + 1:body_end - 1],
                                      cls_name, cls_name, file,
                                      t.line, classes)
                    i = body_end
                    continue
            i = j
            continue
        i += 1
    return classes, ctors


def find_field_lists(tokens, file, name="fields"):
    """Locate wire field-list definitions, `name(V &v, S &s) { ... }`
    (see src/common/wire.hh): return FieldList records naming S and
    the members the body reads as `s.<member>`."""
    found = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text == name and i + 1 < n and \
                tokens[i + 1].kind == "punct" and \
                tokens[i + 1].text == "(":
            # Exclude calls: a definition's `)` is followed by `{`.
            params_end = _find_matching_paren(tokens, i + 1)
            params = _top_level_split(tokens[i + 2:params_end - 1])
            if params_end < n and tokens[params_end].kind == "punct" \
                    and tokens[params_end].text == "{" and \
                    len(params) == 2:
                ids = [p for p in params[1] if p.kind == "id"]
                body_end = _skip_balanced(tokens, params_end, "{", "}")
                if len(ids) >= 2:
                    struct, param = ids[-2].text, ids[-1].text
                    body = tokens[params_end:body_end]
                    members = {
                        body[k + 2].text
                        for k in range(len(body) - 2)
                        if body[k].kind == "id" and
                        body[k].text == param and
                        body[k + 1].kind == "punct" and
                        body[k + 1].text == "." and
                        body[k + 2].kind == "id"}
                    found.append(FieldList(struct, members, t.line, file))
                i = body_end
                continue
        i += 1
    return found


def unordered_container_names(tokens):
    """Names declared (anywhere in this token stream) with an
    unordered_map/unordered_set type -- members, locals and params."""
    names = set()
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text in ("unordered_map",
                                         "unordered_set",
                                         "unordered_multimap",
                                         "unordered_multiset"):
            j = i + 1
            if j < n and tokens[j].kind == "punct" and \
                    tokens[j].text == "<":
                j = _skip_angles(tokens, j)
            # Reference/pointer declarators.
            while j < n and tokens[j].kind == "punct" and \
                    tokens[j].text in ("&", "*"):
                j += 1
            if j < n and tokens[j].kind == "id":
                names.add(tokens[j].text)
            i = j
            continue
        i += 1
    return names
