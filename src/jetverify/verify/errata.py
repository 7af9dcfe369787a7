"""The correction ledger.

Each entry records one display-level correction the suite applies: the
check that needs it, where the displayed term sits, the term as
displayed, the term the re-derivation produces, and why.
"""

import os

FIELDS = ("check_id", "citation", "original", "corrected", "justification")


class ErratumEntry:
    """One recorded correction."""

    __slots__ = ("ident",) + FIELDS

    def __init__(self, ident, check_id, citation, original, corrected,
                 justification):
        self.ident = ident
        self.check_id = check_id
        self.citation = citation
        self.original = original
        self.corrected = corrected
        self.justification = justification

    def __repr__(self):
        return "ErratumEntry(%r, check_id=%r)" % (self.ident, self.check_id)


def parse_ledger(text):
    """Parse the structured-text ledger into {ident: ErratumEntry}."""
    entries = {}
    ident = None
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[erratum "):
            if ident is not None:
                raise ValueError("line %d: unterminated entry %r"
                                 % (lineno, ident))
            ident = line[len("[erratum "):].rstrip("]").strip()
            if not ident:
                raise ValueError("line %d: empty erratum identifier"
                                 % lineno)
            fields = {}
            continue
        if line == "[end]":
            if ident is None:
                raise ValueError("line %d: [end] outside an entry" % lineno)
            missing = [f for f in FIELDS if f not in fields]
            if missing:
                raise ValueError("entry %r lacks fields: %s"
                                 % (ident, ", ".join(missing)))
            if ident in entries:
                raise ValueError("duplicate erratum identifier %r"
                                 % (ident,))
            entries[ident] = ErratumEntry(ident, **fields)
            ident = None
            continue
        if ident is None:
            raise ValueError("line %d: text outside an entry" % lineno)
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in FIELDS:
            raise ValueError("line %d: expected one of %s"
                             % (lineno, ", ".join(FIELDS)))
        fields[key] = value.strip()
    if ident is not None:
        raise ValueError("unterminated entry %r" % (ident,))
    return entries


def load_ledger():
    """The packaged ledger, jetverify/errata.txt, as {ident: ErratumEntry}."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(os.path.dirname(here), "errata.txt")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ledger(fh.read())
