"""End-to-end gate: one test per built-in verification criterion.

Each test asserts the criterion as stated, with its tolerance pinned in
the docstring.  Criteria 4 and 6 fail for structural reasons that are
analyzed in the acceptance module docstring (finite-size bias of the
24 x 24 pair estimate at this exact sample budget, and non-monotone
approach to 1 when the gap set sits on zeros of the limiting kernel).
Their tests assert the stated gates anyway, so the failures stay
visible instead of being papered over.
"""

import pytest

from kronphase.acceptance import run_criteria


@pytest.fixture(scope="session")
def verdicts():
    results = run_criteria()
    return {int(r.cid): r for r in results}


def _check(verdicts, cid):
    r = verdicts[cid]
    assert r.passed, "%s: %s" % (r.title, r.details)


def test_criterion_01(verdicts):
    """Single 30-point factor vs the sine curve: rms < 0.03, no bin over 4 sigma."""
    _check(verdicts, 1)


def test_criterion_02(verdicts):
    """Tensor pairs (2,40) and (3,30) vs the m-fold superposition curve: rms < 0.03."""
    _check(verdicts, 2)


def test_criterion_03(verdicts):
    """rms deviation from the superposition curve decreases along n = 10, 20, 40."""
    _check(verdicts, 3)


def test_criterion_04(verdicts):
    """24 x 24 pair vs Poisson: rms < 0.05, KS passes 4/5 seeds, |var - l| <= 0.15 l."""
    _check(verdicts, 4)


def test_criterion_05(verdicts):
    """Triple product (2,16,16) pair correlation vs constant 1: rms < 0.06."""
    _check(verdicts, 5)


def test_criterion_06(verdicts):
    """Superposition value at gaps (0,1,2) rises monotonically to 1 as m doubles."""
    _check(verdicts, 6)


def test_criterion_07(verdicts):
    """Partition counts equal Bell numbers for k <= 8; Stirling identity exact."""
    _check(verdicts, 7)


def test_criterion_08(verdicts):
    """Hadamard bound holds over 1e4 random queries; kernel sup bound to 1e-12."""
    _check(verdicts, 8)


def test_criterion_09(verdicts):
    """Poisson oracle within 4 sigma; split bit-exact; duplicate sums to 1e-12."""
    _check(verdicts, 9)


def test_criterion_10(verdicts):
    """Haar sampler: E|Tr U|^2 = 1 within 4 se; pooled phases pass chi-square.
    Its numbers are pinned, so a rewired draw that moved them shows here."""
    _check(verdicts, 10)
    assert verdicts[10].details == (
        "n=2: |mean-1| = 0.001661 (4 se = 0.0397); n=10: |mean-1| = 0.01638 (4 se = 0.04042); "
        "n=30: |mean-1| = 0.007639 (4 se = 0.04019); chi2(31 dof) = 28.06 (1% gate 52.191)"
    )
