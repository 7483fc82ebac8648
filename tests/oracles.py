"""Reference computations the tests hold the program to.

Kept here, not in ``src/``: nothing in the program calls them.  Test modules
import this one by name (``tests/`` is on ``sys.path`` through the root
``conftest.py``).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.rules import TcamRule


def missing_matches(
    expected: Iterable[TcamRule], deployed: Iterable[TcamRule]
) -> List[TcamRule]:
    """The expected rules whose match key is absent from the deployed set.

    The syntactic set difference: it cross-checks the equivalence checker
    on wildcard-free rules, where the two must agree, and bounds it from
    above on any rules (a covered key can only be over-reported here).
    """
    deployed_keys = {rule.match_key() for rule in deployed}
    return [rule for rule in expected if rule.match_key() not in deployed_keys]
