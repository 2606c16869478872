"""Shared fixtures: the corpus groups, built once per session."""

import time

import pytest

from chiefblocks import named
from chiefblocks.group import direct_product

CORPUS_NAMES = [
    "V4", "S4", "S5", "A5", "SL23", "SL25", "Q8", "D8", "ES32",
    "A5xA5", "A5wrC2", "S5wrC2",
]

_SESSION_START = time.monotonic()
ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def _build_corpus() -> dict:
    a5 = named.alternating(5)
    groups = {
        "V4": named.klein_four(),
        "S4": named.symmetric(4),
        "S5": named.symmetric(5),
        "A5": a5,
        "SL23": named.sl23(),
        "SL25": named.sl25(),
        "Q8": named.quaternion8(),
        "D8": named.dihedral(8),
        "ES32": named.extraspecial32().group,
        "A5xA5": direct_product(a5, a5),
        "A5wrC2": named.a5_wr_c2(),
        "S5wrC2": named.s5_wr_c2(),
    }
    return groups


@pytest.fixture(scope="session")
def corpus():
    return _build_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Corpus members small enough for the brute-force subgroup oracle."""
    return {k: g for k, g in corpus.items() if g.order <= 24}


@pytest.fixture(scope="session")
def dense_corpus():
    """p-groups and a product with many normal subgroups and chief factors."""
    c2 = named.cyclic(2)
    return {
        "C2^4": direct_product(direct_product(c2, c2),
                               direct_product(c2, c2)),
        "Q8xD8": direct_product(named.quaternion8(), named.dihedral(8)),
        "ES32": named.extraspecial32().group,
        "D8xS4": direct_product(named.dihedral(8), named.symmetric(4)),
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for n in sorted(ACCEPTANCE_RESULTS):
            name, verdict = ACCEPTANCE_RESULTS[n]
            terminalreporter.write_line(f"criterion {n} ({name}): {verdict}")
    elapsed = time.monotonic() - _SESSION_START
    terminalreporter.write_line(f"session wall time: {elapsed:.1f}s")
