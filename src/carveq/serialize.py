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
included).  Error positions count characters from the start of the text.

The printer emits canonical forms (single spaces, lowest terms, primitive
words, normalized pullbacks); the parser builds values through the normal
constructors, so print . parse is idempotent and parse . print is the
identity on canonical values.
"""

import re

from .atoms import MAX_TAG_DEPTH, AtomSet, Rational, Tag, WordAtom
from .codes import CycW, Cyclic, PairMerge, Pullback, YSeq, ZCode, pullback
from .errors import ParseError
from .relations import PPoint

# On a str pattern \s matches exactly the characters for which str.isspace
# is true.
_TOKEN = re.compile(r"[()]|[^\s()]+")
_INT = re.compile(r"-?\d+")
_POSINT = re.compile(r"\d+")
_BIT = re.compile(r"[01]")
_BITS = re.compile(r"[01]+")


def to_text(value):
    """Serialize any value of the algebra: one dispatch on its type, applied
    again to each of its parts."""
    if isinstance(value, Rational):
        return f"(rat {value.num} {value.den})"
    if isinstance(value, Tag):
        return f"(tag {value.bit} {to_text(value.inner)})"
    if isinstance(value, WordAtom):
        return f"(word {value.word.bits})"
    if isinstance(value, Cyclic):
        return "(cyc " + " ".join(map(to_text, value.entries)) + ")"
    if isinstance(value, PairMerge):
        return f"(pairmerge {to_text(value.z)})"
    if isinstance(value, CycW):
        return f"(cw {value.word.bits})"
    if isinstance(value, Pullback):
        return f"(pull {to_text(value.base)} (set {' '.join(map(to_text, value.aset))}))"
    if isinstance(value, YSeq):
        return "(ylist " + " ".join(map(to_text, value.entries)) + ")"
    if isinstance(value, ZCode):
        return "(zlist " + " ".join(map(to_text, value.entries)) + ")"
    if isinstance(value, PPoint):
        return f"(p {to_text(value.x)} {to_text(value.y)})"
    raise TypeError(f"not serializable: {value!r}")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def error(self, message):
        """Raise at the start of token ``pos``, or at the end of the text
        past the last token.  Only a failing parse needs positions, so they
        are found here by scanning the text again."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        raise ParseError(message, (starts + [len(self.text)])[self.pos])

    def peek(self):
        if self.pos >= len(self.tokens):
            self.error("unexpected end of input")
        return self.tokens[self.pos]

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        if self.peek() != tok:
            self.error(f"expected {tok!r}, found {self.peek()!r}")
        return self.next()

    def head(self):
        """Consume '(' and return the keyword after it (not consumed)."""
        self.expect("(")
        kw = self.peek()
        if kw in "()":
            self.error("expected a keyword after '('")
        return kw

    def done(self):
        if self.pos != len(self.tokens):
            self.error("trailing input after complete form")

    def token(self, pattern, noun):
        """Consume and return a token that ``pattern`` matches in full, or
        raise ``expected <noun>, found <token>`` at it."""
        tok = self.peek()
        if not pattern.fullmatch(tok):
            self.error(f"expected {noun}, found {tok!r}")
        self.pos += 1
        return tok

    def _to_int(self, tok):
        """int() of the digit token just consumed; a token with more digits
        than int() converts is a parse error at its position."""
        try:
            return int(tok)
        except ValueError:
            self.pos -= 1
            self.error(f"integer too long to convert ({len(tok)} characters)")

    def atom(self, depth=0):
        kw = self.head()
        if kw == "rat":
            self.next()
            num = self._to_int(self.token(_INT, "an integer"))
            tok = self.token(_POSINT, "a positive integer")
            den = self._to_int(tok)
            if den == 0:
                self.pos -= 1
                self.error(f"expected a positive integer, found {tok!r}")
            self.expect(")")
            return Rational(num, den)
        if kw == "tag":
            self.next()
            bit = int(self.token(_BIT, "a bit"))
            if depth == MAX_TAG_DEPTH:
                self.error(f"tags nested deeper than {MAX_TAG_DEPTH}")
            inner = self.atom(depth + 1)
            self.expect(")")
            return Tag(bit, inner)
        if kw == "word":
            self.next()
            bits = self.token(_BITS, "a 0/1 string")
            self.expect(")")
            return WordAtom(bits)
        self.error(f"expected an atom keyword, found {kw!r}")

    def _items(self, kw, item, noun):
        """Parse ``( kw item* )`` and return the items as a tuple.  An empty
        list is an error naming ``noun``, unless ``noun`` is None."""
        found = self.head()
        if found != kw:
            self.error(f"expected {kw!r}, found {found!r}")
        self.next()
        items = []
        while self.peek() != ")":
            items.append(item())
        if not items and noun is not None:
            self.error(f"{kw} needs at least one {noun}")
        self.expect(")")
        return tuple(items)

    def _cyc(self):
        return Cyclic(self._items("cyc", self.atom, "atom"))

    def aseq(self):
        kw = self.head()
        if kw == "cyc":
            self.pos -= 1
            return self._cyc()
        if kw == "pairmerge":
            self.next()
            z = self.zcode()
            self.expect(")")
            return PairMerge(z)
        self.error(f"expected an atom-sequence keyword, found {kw!r}")

    def binseq(self):
        kw = self.head()
        if kw == "cw":
            self.next()
            bits = self.token(_BITS, "a 0/1 string")
            self.expect(")")
            return CycW(bits)
        if kw == "pull":
            self.next()
            base = self.aseq()
            atoms = self._items("set", self.atom, None)
            self.expect(")")
            return pullback(base, AtomSet(atoms))
        self.error(f"expected a binary-sequence keyword, found {kw!r}")

    def yseq(self):
        return YSeq(self._items("ylist", self.binseq, "entry"))

    def zcode(self):
        return ZCode(self._items("zlist", self._cyc, "row"))

    def ppoint(self):
        kw = self.head()
        if kw != "p":
            self.error(f"expected 'p', found {kw!r}")
        self.next()
        x = self.aseq()
        y = self.yseq()
        self.expect(")")
        return PPoint(x, y)

    def any(self):
        kw = self.head()
        self.pos -= 1
        if kw in ("rat", "tag", "word"):
            return self.atom()
        if kw in ("cyc", "pairmerge"):
            return self.aseq()
        if kw in ("cw", "pull"):
            return self.binseq()
        if kw == "ylist":
            return self.yseq()
        if kw == "zlist":
            return self.zcode()
        if kw == "p":
            return self.ppoint()
        self.pos += 1
        self.error(f"unknown form keyword {kw!r}")


def _run(text, method):
    p = _Parser(text)
    value = method(p)
    p.done()
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
