"""Reference implementation of the IR tokenizer, kept only as a test
oracle.

This is the straightforward tokenizer that ``repro.ir.parser``
replaced: one ``match`` per token *and* per skipped run of blanks or
comment, each a trip through the Python loop.  ``test_ir_parser.py``
demands that the production tokenizer yields the same
``(kind, text, line)`` stream and raises the same ``ParseError``
(message and line) on every input it tries.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.ir import ParseError

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>;[^\n]*)
  | (?P<newline>\n)
  | (?P<arrow>->)
  | (?P<float>-?\d+\.\d+(e-?\d+)?)
  | (?P<int>-?\d+)
  | (?P<gname>@[A-Za-z_][\w.]*)
  | (?P<lname>%[A-Za-z_][\w.]*)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<word>[A-Za-z_][\w.]*)
  | (?P<punct>[{}\[\](),:=*])
""", re.VERBOSE)


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens: List[Tuple[str, str, int]] = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            if tokens and tokens[-1][0] != "newline":
                tokens.append(("newline", "\n", line - 1))
            continue
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, m.group(), line))
    tokens.append(("eof", "", line))
    return tokens
