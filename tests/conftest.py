"""Shared test helpers."""

import pytest

from repro.cfront.parser import parse
from repro.engine.analysis import Analysis, AnalysisOptions

try:
    from hypothesis import settings
except ImportError:  # the lanes that install pytest alone
    pass
else:
    #: The frontend fuzz lane's budget: ``pytest
    #: --hypothesis-profile=frontend tests/test_frontend_fuzz.py`` runs
    #: each property this many times instead of the default 100.
    settings.register_profile("frontend", max_examples=2000, deadline=None)


def run_checker(code, extension, filename="test.c", options=None, roots=None):
    """Parse C text and run one extension; returns the AnalysisResult."""
    unit = parse(code, filename)
    analysis = Analysis([unit], options=options or AnalysisOptions())
    return analysis.run(extension, roots=roots)


def messages(result):
    """The report messages, sorted for stable assertions."""
    return sorted(r.message for r in result.reports)


def lines(result):
    """The report line numbers, sorted."""
    return sorted(r.location.line for r in result.reports)


@pytest.fixture
def fig2_code():
    """The paper's Figure 2 example, verbatim (same line numbers)."""
    return (
        "int contrived(int *p, int *w, int x) {\n"  # line 1, as in the paper
        "    int *q;\n"
        "\n"
        "    if(x)\n"
        "    {\n"
        "        kfree(w);\n"
        "        q = p;\n"
        "        p = 0;\n"
        "    }\n"
        "    if(!x)\n"
        "        return *w;\n"
        "    return *q;\n"
        "}\n"
        "int contrived_caller(int *w, int x, int *p) {\n"
        "    kfree(p);\n"
        "    contrived(p, w, x);\n"
        "    return *w;\n"
        "}\n"
    )
