"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line; `zforce reproduce` runs the same
criteria from the command line.
"""

import pytest

from zforce.reproduce import CRITERIA

_BY_NAME = dict(CRITERIA)

# Each summary as the suite prints it.  tree-clique and h43 print floats
# that depend on the BLAS build, so only their verdict is checked.
SUMMARIES = {
    "pinwheel": (
        "PASS pinwheel: Z expected 4, computed 4; Z+ expected 3, computed "
        "3; P expected 3, computed 3; cc expected 9, computed 9"
    ),
    "trees": (
        "PASS trees: Z+ = 1 on all 1641 trees (n <= 10); 0 violations; P = "
        "Z on all 1641 trees; 0 violations"
    ),
    "duality": (
        "PASS duality: OS + Z+ = n on 143 connected classes (n <= 6) and "
        "200 random graphs; 0 violations"
    ),
    "reversal": (
        "PASS reversal: reversal of 12322 minimum-set logs (n <= 7) is "
        "again forcing; 0 failures"
    ),
    "intersection": (
        "PASS intersection: empty minimum-set intersection on all 995 "
        "connected classes, 2 <= n <= 7; 0 violations; every minimum-set "
        "vertex keeps an outside neighbor; 0 violations"
    ),
    "sandwich": (
        "PASS sandwich: delta <= Z+ <= Z, P <= Z, n - cc <= Z+ on 1196 "
        "graphs; 0 violations"
    ),
    "mobius": (
        "PASS mobius: Z+(ML8) expected 4, computed 4; report records the "
        "literature gap Z+ > hM+ = 3: 'literature value hM+ = 3 (external "
        "datum): Z+ > hM+'"
    ),
    "books": (
        "PASS books: Z+ = 2 on all 9 generalized books (m in 2..4, t in "
        "3..5); violations: []"
    ),
    "product-bound": (
        "PASS product-bound: Z+(G x H) <= min(Z+(G)|H|, Z+(H)|G|) on 14 "
        "products of order <= 20; violations: []"
    ),
}


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name):
    result = _BY_NAME[name]()
    print(result.summary())
    assert result.passed, result.summary()
    assert result.summary() == SUMMARIES.get(name, result.summary())
