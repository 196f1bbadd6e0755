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
words, normalized pullbacks); the parser, whose one entry point is
:func:`parse_any`, builds values through the normal constructors, so
print . parse is idempotent and parse . print is the identity on canonical
values.  It reads each form's '(' and keyword once, and one table maps the
keyword to the rule that parses the rest of the form.  A repeated
atom-sequence text, such as a point's base inside each pullback entry, is
parsed once per text, and the entries share its value and what its slots
keep.  So is a repeated rational text: its occurrences in one text share
one ``Rational``.
"""

from .atoms import MAX_TAG_DEPTH, AtomSet, Rational, Tag, WordAtom
from .codes import CycW, Cyclic, PairMerge, Pullback, YSeq, ZCode, pullback
from .errors import ParseError
from .relations import PPoint


def _is_int(tok):
    return tok.isdecimal() or tok[:1] == "-" and tok[1:].isdecimal()


def _is_bit(tok):
    return tok in ("0", "1")


def _is_bits(tok):
    """A nonempty run of 0 and 1; the sentinel ``""`` is not one."""
    return tok != "" and not tok.strip("01")


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

    Every nonterminal is :meth:`form` over its keywords.  ``depth`` counts
    the tags open around the atom being read.

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
        self.depth = 0

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

    def form(self, keywords, mismatch=None):
        """Parse a whole form: consume '(' and the keyword after it, then
        let the keyword's rule in ``_RULES`` parse the rest through ')'.
        A keyword not in ``keywords`` raises ``mismatch`` and its repr at
        it; ``mismatch`` defaults to ``expected <the one keyword>, found ``.
        This is the only code that reads a '(' or a keyword."""
        if self.tokens[self.pos] != "(":
            self.fail(f"expected '(', found {self.tokens[self.pos]!r}")
        self.pos += 1
        kw = self.tokens[self.pos]
        if kw not in keywords:
            if kw in "()":
                self.fail("expected a keyword after '('")
            self.error((mismatch or f"expected {keywords[0]!r}, found ") + repr(kw))
        self.pos += 1
        return _RULES[kw](self)

    def close(self, value=None):
        """Consume ')' and return ``value``."""
        if self.tokens[self.pos] != ")":
            self.fail(f"expected ')', found {self.tokens[self.pos]!r}")
        self.pos += 1
        return value

    def token(self, accepts, noun):
        """Consume and return a token for which ``accepts`` is true, or
        raise ``expected <noun>, found <token>`` at it.  A digit is a
        ``str.isdecimal`` character, exactly what ``\\d`` matches in a str
        pattern and what int() reads."""
        tok = self.tokens[self.pos]
        if not accepts(tok):
            self.fail(f"expected {noun}, found {tok!r}")
        self.pos += 1
        return tok

    def integer(self, accepts, noun):
        """int() of a digit token read by :meth:`token`; a token with more
        digits than int() converts is a parse error at its position."""
        tok = self.token(accepts, noun)
        try:
            return int(tok)
        except ValueError:
            self.pos -= 1
            self.error(f"integer too long to convert ({len(tok)} characters)")

    def atom(self):
        """Parse an atom, or skip the five tokens of a rational text parsed
        before in this text and return its value."""
        value = self.rationals.get(self.tokens[self.pos:self.pos + 5])
        if value is None:
            return self.form(("rat", "tag", "word"), "expected an atom keyword, found ")
        self.pos += 5
        return value

    def rat(self):
        num = self.integer(_is_int, "an integer")
        den = self.integer(str.isdecimal, "a positive integer")
        if den == 0:
            self.pos -= 1
            self.error(f"expected a positive integer, found {self.tokens[self.pos]!r}")
        self.close()
        value = self.rationals[self.tokens[self.pos - 5:self.pos]] = Rational(num, den)
        return value

    def tag(self):
        """Refuse a tag nested deeper than ``MAX_TAG_DEPTH`` at its inner
        atom, before descending into it."""
        bit = int(self.token(_is_bit, "a bit"))
        if self.depth == MAX_TAG_DEPTH:
            self.error(f"tags nested deeper than {MAX_TAG_DEPTH}")
        self.depth += 1
        value = Tag(bit, self.atom())
        self.depth -= 1
        return self.close(value)

    def rest(self, kw, item, noun):
        """Parse the items after keyword ``kw`` up to and including ')' and
        return them as a tuple.  An empty list is an error naming ``noun``,
        unless ``noun`` is None.  At the sentinel the next item fails in
        :meth:`form`."""
        items = []
        while self.tokens[self.pos] != ")":
            items.append(item())
        if not items and noun is not None:
            self.error(f"{kw} needs at least one {noun}")
        self.pos += 1
        return tuple(items)

    def aseq(self):
        """Parse an atom-sequence, or skip a repeat of the tokens of the
        last one parsed in this text and return its value.  The grammar is
        context-free and no atom-sequence lies inside a tag, so equal token
        runs parse to equal values, and a run that parsed once cannot fail:
        the repeat would parse to an equal value."""
        start, span = self.pos, self.last_span
        if span is not None and self.tokens[start:start + len(span)] == span:
            self.pos += len(span)
            return self.last_aseq
        value = self.form(("cyc", "pairmerge"), "expected an atom-sequence keyword, found ")
        self.last_span, self.last_aseq = self.tokens[start:self.pos], value
        return value

    def binseq(self):
        return self.form(("cw", "pull"), "expected a binary-sequence keyword, found ")


# Each keyword of the grammar, with the rule that parses the rest of its
# form through ')'.  A point is built only after its ')', so a syntax
# error in it wins over a clause error.
_RULES = {
    "rat": _Parser.rat,
    "tag": _Parser.tag,
    "word": lambda p: p.close(WordAtom(p.token(_is_bits, "a 0/1 string"))),
    "cyc": lambda p: Cyclic(p.rest("cyc", p.atom, "atom")),
    "pairmerge": lambda p: p.close(PairMerge(p.form(("zlist",)))),
    "cw": lambda p: p.close(CycW(p.token(_is_bits, "a 0/1 string"))),
    "pull": lambda p: p.close(pullback(p.aseq(), p.form(("set",)))),
    "set": lambda p: AtomSet(p.rest("set", p.atom, None)),
    "ylist": lambda p: YSeq(p.rest("ylist", p.binseq, "entry")),
    "zlist": lambda p: ZCode(p.rest("zlist", lambda: p.form(("cyc",)), "row")),
    "p": lambda p: PPoint(*p.close((p.aseq(), p.form(("ylist",))))),
}

# The forms parse_any reads: every keyword's but the set of a pullback.
_TOP = _RULES.keys() - {"set"}


def parse_any(text):
    """Parse any form of the grammar through :meth:`_Parser.form` and refuse
    trailing input.  ``text`` must be a ``str``; any other kind raises
    ``TypeError``."""
    if not isinstance(text, str):
        raise TypeError(f"parse_any takes a str, not {type(text).__name__}")
    p = _Parser(text)
    value = p.form(_TOP, "unknown form keyword ")
    if p.tokens[p.pos]:
        p.error("trailing input after complete form")
    return value
