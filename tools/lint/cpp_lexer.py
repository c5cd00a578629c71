"""Tokenizer for shotgun-lint's C++ frontend.

This is not a conforming C++ lexer; it is the narrow subset the lint
checks need: identifiers, numbers, string/char literals (including raw
strings), `::` as a single token, every other punctuator as a single
character, with comments and preprocessor directives stripped into
side tables. Line numbers are preserved on every token so findings and
suppressions anchor correctly.

The deliberate simplifications (single-char operators, no trigraphs,
no UCNs) are safe because every check in checks.py works on token
patterns and identifier sets, never on full expression grammar.
"""

from collections import namedtuple

# kind: "id" | "num" | "str" | "chr" | "punct"
Token = namedtuple("Token", ["kind", "text", "line"])

# A comment with its location, for suppression parsing.
Comment = namedtuple("Comment", ["line", "text"])

_ID_START = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_DIGITS = set("0123456789")


class LexError(Exception):
    """Unterminated literal/comment; carries the source line."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def tokenize(text):
    """Return (tokens, comments) for one translation unit's text."""
    tokens = []
    comments = []
    i = 0
    n = len(text)
    line = 1

    while i < n:
        c = text[i]

        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        # ---------------------------------------------------- comments
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                end = text.find("\n", i)
                if end == -1:
                    end = n
                comments.append(Comment(line, text[i:end]))
                i = end
                continue
            if text[i + 1] == "*":
                end = text.find("*/", i + 2)
                if end == -1:
                    raise LexError("unterminated block comment", line)
                body = text[i:end + 2]
                # A block comment may span lines; record it at its
                # first line (suppressions are single-line anyway).
                comments.append(Comment(line, body))
                line += body.count("\n")
                i = end + 2
                continue

        # ---------------------------------------- preprocessor directive
        if c == "#" and _at_line_start(tokens, text, i):
            # Consume the directive including backslash continuations.
            while True:
                end = text.find("\n", i)
                if end == -1:
                    i = n
                    break
                if text[end - 1] == "\\":
                    line += 1
                    i = end + 1
                    continue
                i = end  # leave the newline for the main loop
                break
            continue

        # --------------------------------------------------- raw string
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            j = text.find("(", i + 2)
            if j == -1:
                raise LexError("malformed raw string", line)
            delim = text[i + 2:j]
            closer = ")" + delim + '"'
            end = text.find(closer, j + 1)
            if end == -1:
                raise LexError("unterminated raw string", line)
            body = text[i:end + len(closer)]
            tokens.append(Token("str", body, line))
            line += body.count("\n")
            i = end + len(closer)
            continue

        # ------------------------------------------------ string literal
        if c == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    raise LexError("unterminated string literal", line)
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", line)
            tokens.append(Token("str", text[i:j + 1], line))
            i = j + 1
            continue

        # -------------------------------------------------- char literal
        if c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    raise LexError("unterminated char literal", line)
                j += 1
            if j >= n:
                raise LexError("unterminated char literal", line)
            tokens.append(Token("chr", text[i:j + 1], line))
            i = j + 1
            continue

        # ---------------------------------------------------- identifier
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue

        # -------------------------------------------------------- number
        if c in _DIGITS or (c == "." and i + 1 < n and
                            text[i + 1] in _DIGITS):
            # pp-number: digits, identifier chars, '.', digit
            # separators, and exponent signs.
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in _ID_CONT or ch in ".'":
                    j += 1
                    continue
                if ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                    continue
                break
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue

        # ---------------------------------------------------- punctuators
        if c == ":" and i + 1 < n and text[i + 1] == ":":
            tokens.append(Token("punct", "::", line))
            i += 2
            continue
        tokens.append(Token("punct", c, line))
        i += 1

    return tokens, comments


def _at_line_start(tokens, text, i):
    """True when text[i] is the first non-whitespace char of its line.

    `#` only introduces a directive at line start; `a # b` cannot
    appear in C++, but being precise here is cheap.
    """
    j = i - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    return j < 0 or text[j] == "\n"
