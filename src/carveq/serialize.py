"""Canonical textual serialization of codes.

Grammar (whitespace-insensitive between tokens):

    atom   := "(rat " int " " posint ")" | "(tag " bit " " atom ")" | "(word " bits ")"
    aseq   := "(cyc" {" " atom}+ ")" | "(pairmerge " zcode ")"
    binseq := "(cw " bits ")" | "(pull " aseq " (set" {" " atom}* "))"
    yseq   := "(ylist" {" " binseq}+ ")"
    zcode  := "(zlist" {" " "(cyc" {" " atom}+ ")"}+ ")"
    ppoint := "(p " aseq " " yseq ")"

Tokens are parentheses and maximal runs of characters that are neither
parentheses nor whitespace, where whitespace is ``str.isspace`` (Unicode
included).  The parser finds them with ``str.split()`` once it pads each
parenthesis with spaces.  Error positions count characters from the start
of the text.

The printer emits canonical forms (single spaces, lowest terms, primitive
words, normalized pullbacks); the parser builds values through the normal
constructors, so print . parse is idempotent and parse . print is the
identity on canonical values.  A repeated atom-sequence text, such as a
point's base inside each pullback entry, is parsed once per text, and the
entries share its value and what its slots keep.  So is a repeated rational
text: its occurrences in one text share one ``Rational``.
"""

import re

from .atoms import MAX_TAG_DEPTH, AtomSet, Rational, Tag, WordAtom
from .codes import CycW, Cyclic, PairMerge, Pullback, YSeq, ZCode, pullback
from .errors import ParseError
from .relations import PPoint

_INT = re.compile(r"-?\d+")
_POSINT = re.compile(r"\d+")
_BIT = re.compile(r"[01]")
_BITS = re.compile(r"[01]+")


def to_text(value):
    """Serialize any value of the algebra."""
    return _to_text(value)


def _to_text(value):
    """One dispatch on the type of ``value``, applied again to each of its
    parts; the recursion stays here, so one :func:`to_text` call is one
    call through the public name."""
    if isinstance(value, Rational):
        return f"(rat {value.num} {value.den})"
    if isinstance(value, Tag):
        return f"(tag {value.bit} {_to_text(value.inner)})"
    if isinstance(value, WordAtom):
        return f"(word {value.word.bits})"
    if isinstance(value, Cyclic):
        return "(cyc " + " ".join(map(_to_text, value.entries)) + ")"
    if isinstance(value, PairMerge):
        return f"(pairmerge {_to_text(value.z)})"
    if isinstance(value, CycW):
        return f"(cw {value.word.bits})"
    if isinstance(value, Pullback):
        return f"(pull {_to_text(value.base)} (set {' '.join(map(_to_text, value.aset))}))"
    if isinstance(value, YSeq):
        return "(ylist " + " ".join(map(_to_text, value.entries)) + ")"
    if isinstance(value, ZCode):
        return "(zlist " + " ".join(map(_to_text, value.entries)) + ")"
    if isinstance(value, PPoint):
        return f"(p {_to_text(value.x)} {_to_text(value.y)})"
    raise TypeError(f"not serializable: {value!r}")


class _Parser:
    """Recursive descent over the token tuple, which ends in the sentinel
    ``""``: no token is empty, so the sentinel matches nothing, and each
    read is an index into the tuple with no end check of its own.

    The tokens are the words that ``str.split()`` finds once each
    parenthesis is padded with spaces.  It splits on exactly the
    ``str.isspace`` characters, which ``\\s`` in a str pattern also
    matches, so they equal the matches of ``[()]|[^\\s()]+``
    (``tests/test_serialize.py`` checks every code point).

    ``rationals`` maps the five tokens of each rational atom parsed so far
    in this text, ``( rat N D )``, to its value.  :meth:`atom` looks up the
    five tokens at ``pos`` first, so a repeated rational text is parsed
    once and its occurrences share one value.  The lookup is a tuple slice,
    which is shorter near the end of the text and then matches no key; a
    key is stored only after its tokens parsed, so a hit hides no error."""

    def __init__(self, text):
        self.text = text
        self.tokens = (*text.replace("(", " ( ").replace(")", " ) ").split(), "")
        self.pos = 0
        self.last_span = self.last_aseq = None
        self.rationals = {}

    def error(self, message):
        """Raise at the start of token ``pos``, the end of the text at the
        sentinel.  Only whitespace lies between two tokens and no token
        holds any, so finding each token from the end of the one before
        lands on its own start; only a failing parse pays for the walk."""
        text, tokens, at = self.text, self.tokens, 0
        for tok in tokens[:self.pos]:
            at = text.find(tok, at) + len(tok)
        raise ParseError(message, text.find(tokens[self.pos], at) if tokens[self.pos] else len(text))

    def fail(self, message):
        """Raise ``message``, or ``unexpected end of input`` at the sentinel."""
        self.error("unexpected end of input" if self.tokens[self.pos] == "" else message)

    def expect(self, tok):
        found = self.tokens[self.pos]
        if found != tok:
            self.fail(f"expected {tok!r}, found {found!r}")
        self.pos += 1

    def open(self, keywords, mismatch=None):
        """Consume '(' and the keyword after it, and return the keyword.  A
        keyword not in ``keywords`` raises ``mismatch`` and its repr at it;
        ``mismatch`` defaults to ``expected <the one keyword>, found ``."""
        self.expect("(")
        kw = self.tokens[self.pos]
        if kw not in keywords:
            if kw in "()":
                self.fail("expected a keyword after '('")
            self.error((mismatch or f"expected {keywords[0]!r}, found ") + repr(kw))
        self.pos += 1
        return kw

    def token(self, pattern, noun):
        """Consume and return a token that ``pattern`` matches in full, or
        raise ``expected <noun>, found <token>`` at it."""
        tok = self.tokens[self.pos]
        if not pattern.fullmatch(tok):
            self.fail(f"expected {noun}, found {tok!r}")
        self.pos += 1
        return tok

    def integer(self, pattern, noun):
        """int() of a digit token as :meth:`token` reads it; a token with
        more digits than int() converts is a parse error at its position."""
        tok = self.tokens[self.pos]
        if not pattern.fullmatch(tok):
            self.fail(f"expected {noun}, found {tok!r}")
        try:
            value = int(tok)
        except ValueError:
            self.error(f"integer too long to convert ({len(tok)} characters)")
        self.pos += 1
        return value

    def atom(self, depth=0):
        start = self.pos
        key = self.tokens[start:start + 5]
        value = self.rationals.get(key)
        if value is not None:
            self.pos = start + 5
            return value
        kw = self.open(("rat", "tag", "word"), "expected an atom keyword, found ")
        if kw == "rat":
            num = self.integer(_INT, "an integer")
            den = self.integer(_POSINT, "a positive integer")
            if den == 0:
                self.pos -= 1
                self.error(f"expected a positive integer, found {self.tokens[self.pos]!r}")
            self.expect(")")
            value = self.rationals[key] = Rational(num, den)
            return value
        if kw == "tag":
            bit = int(self.token(_BIT, "a bit"))
            if depth == MAX_TAG_DEPTH:
                self.error(f"tags nested deeper than {MAX_TAG_DEPTH}")
            value = Tag(bit, self.atom(depth + 1))
        else:
            value = WordAtom(self.token(_BITS, "a 0/1 string"))
        self.expect(")")
        return value

    def rest(self, kw, item, noun):
        """Parse the items after keyword ``kw`` up to and including ')' and
        return them as a tuple.  An empty list is an error naming ``noun``,
        unless ``noun`` is None.  At the sentinel the next item fails in
        :meth:`open`."""
        items = []
        while self.tokens[self.pos] != ")":
            items.append(item())
        if not items and noun is not None:
            self.error(f"{kw} needs at least one {noun}")
        self.pos += 1
        return tuple(items)

    def listed(self, kw, item, noun):
        """Parse ``( kw item* )`` as :meth:`rest` does."""
        self.open((kw,))
        return self.rest(kw, item, noun)

    def row(self):
        return Cyclic(self.listed("cyc", self.atom, "atom"))

    def aseq(self):
        """Parse an atom-sequence, or skip a repeat of the tokens of the
        last one parsed in this text and return its value.  The grammar is
        context-free and tag depth restarts at 0 in every atom-sequence, so
        equal token runs parse to equal values, and a run that parsed once
        cannot fail: the repeat would parse to an equal value."""
        start, span = self.pos, self.last_span
        if span is not None and self.tokens[start:start + len(span)] == span:
            self.pos += len(span)
            return self.last_aseq
        if self.open(("cyc", "pairmerge"), "expected an atom-sequence keyword, found ") == "cyc":
            value = Cyclic(self.rest("cyc", self.atom, "atom"))
        else:
            value = PairMerge(self.zcode())
            self.expect(")")
        self.last_span, self.last_aseq = self.tokens[start:self.pos], value
        return value

    def binseq(self):
        if self.open(("cw", "pull"), "expected a binary-sequence keyword, found ") == "cw":
            value = CycW(self.token(_BITS, "a 0/1 string"))
        else:
            value = pullback(self.aseq(), AtomSet(self.listed("set", self.atom, None)))
        self.expect(")")
        return value

    def yseq(self):
        return YSeq(self.listed("ylist", self.binseq, "entry"))

    def zcode(self):
        return ZCode(self.listed("zlist", self.row, "row"))

    def ppoint(self):
        self.open(("p",))
        x, y = self.aseq(), self.yseq()
        self.expect(")")
        return PPoint(x, y)

    def any(self):
        """Open the form, then step back over its '(' and keyword and hand
        it to the method that parses its kind."""
        kw = self.open(_FORMS, "unknown form keyword ")
        self.pos -= 2
        return _FORMS[kw](self)


# The form each leading keyword starts, for parse_any.
_FORMS = {
    **dict.fromkeys(("rat", "tag", "word"), _Parser.atom),
    **dict.fromkeys(("cyc", "pairmerge"), _Parser.aseq),
    **dict.fromkeys(("cw", "pull"), _Parser.binseq),
    "ylist": _Parser.yseq, "zlist": _Parser.zcode, "p": _Parser.ppoint,
}


def _run(text, method):
    p = _Parser(text)
    value = method(p)
    if p.tokens[p.pos]:
        p.error("trailing input after complete form")
    return value


def parse_atom(text):
    return _run(text, _Parser.atom)


def parse_aseq(text):
    return _run(text, _Parser.aseq)


def parse_binseq(text):
    return _run(text, _Parser.binseq)


def parse_ppoint(text):
    return _run(text, _Parser.ppoint)


def parse_any(text):
    """Parse any form of the grammar, dispatching on the leading keyword."""
    return _run(text, _Parser.any)
