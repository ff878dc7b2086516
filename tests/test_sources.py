"""Rules on the package sources themselves."""

import os
import re

import gkzfrac

# Fraction(n, d, _normalize=False) exists up to Python 3.11 and
# Fraction._from_coprime_ints from 3.12; the package supports 3.10-3.13, and
# either skips the gcd that keeps a Fraction in lowest terms.
PRIVATE_FRACTION = re.compile(r"_normalize\s*=|_from_coprime_ints")


def package_sources():
    root = os.path.dirname(gkzfrac.__file__)
    for folder, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def test_no_private_fraction_constructor():
    hits = []
    for path in package_sources():
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                if PRIVATE_FRACTION.search(line):
                    hits.append(f"{os.path.basename(path)}:{number}")
    assert not hits, hits


def test_private_fraction_pattern_matches_both_forms():
    assert PRIVATE_FRACTION.search("Fraction(n, d, _normalize=False)")
    assert PRIVATE_FRACTION.search("Fraction._from_coprime_ints(n, d)")
    assert not PRIVATE_FRACTION.search("Fraction(n, d)")
    assert len(list(package_sources())) > 10
