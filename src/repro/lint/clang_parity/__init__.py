"""Compiler-free C extraction for reprolint.

Each kernel compiles against a header :mod:`repro.cbuild` renders from
the Python definitions, so no C copy of a Python fact exists to be
compared.  This package holds the parsing the certifier needs, with no
compiler dependency:

* :mod:`repro.lint.clang_parity.cextract` — ``#define`` tables with
  evaluated integer values and ``typedef struct`` field lists, read
  from a kernel's rendered header and then its source;
* :mod:`repro.lint.clang_parity.cparse` — the statement-level parse of
  the function bodies the interval certifier interprets.
"""

from repro.lint.clang_parity.cextract import extract_c  # noqa: F401
