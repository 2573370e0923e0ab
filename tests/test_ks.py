"""The KS p-value of `compare ks` against scipy.stats, which only tests load.

`scenarios._ks_pvalue` computes D as scipy.stats.ks_1samp does and p from the
Pelz-Good expansion that scipy's kstwo.sf takes for large samples.  Where
scipy takes that branch the two agree bit for bit; elsewhere each gap is
bounded at twice the value read when the port was written.
"""

import numpy as np
import pytest
from scipy import stats

from entrolab._pelz_good import pelz_good_cdf
from entrolab.scenarios import _ks_pvalue

Z_GRID = np.linspace(0.2, 2.6, 13)

# n -> (largest |p - scipy's p| read on Z_GRID outside the Pelz-Good branch,
#       largest relative gap where scipy's p >= 1e-5)
GAPS = {
    10: (1.4790e-3, 0.36341),
    30: (3.5952e-5, 1.4753e-2),
    100: (4.7985e-6, 3.2993e-3),
    141: (1.4302e-6, 1.5898e-3),
    1000: (6.1664e-9, 2.8745e-5),
    200_000: (2.5259e-9, 2.1184e-7),
}


def _uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


def _pelz_good_branch(n, d):
    """Where scipy's kstwo.sf is the Pelz-Good expansion (Simard & L'Ecuyer)."""
    return n > 140 and n * d * d < 2.2 and (n > 100_000 or n * d**1.5 > 1.4)


def _pvalue(n, d):
    return float(np.clip(1.0 - pelz_good_cdf(n, d), 0.0, 1.0))


@pytest.mark.parametrize("n", [141, 500, 5000, 200_000])
def test_the_pvalue_of_a_sample_is_scipys_inside_its_pelz_good_branch(n):
    """A sample bent either way from uniform by sqrt(n) D of 0.7 to 1.3, so
    that D is D+ or D-: bit for bit scipy.stats.ks_1samp's p-value."""
    rng = np.random.default_rng(n)
    u = (np.arange(n) + 0.5) / n
    for z in (0.7, -0.9, 1.1, -1.3):
        x = u + z / np.sqrt(n) * np.sin(np.pi * u) + rng.normal(0.0, 0.1 / n, n)
        ref = stats.ks_1samp(x, _uniform_cdf)
        assert _pelz_good_branch(n, ref.statistic)
        assert _ks_pvalue(rng.permutation(x), _uniform_cdf) == ref.pvalue


@pytest.mark.parametrize("n", sorted(GAPS))
def test_the_pvalue_stays_within_the_gaps_read_against_kstwo(n):
    abs_gap, rel_gap = GAPS[n]
    for z in Z_GRID:
        d = z / np.sqrt(n)
        ref = float(np.clip(stats.kstwo.sf(d, n), 0.0, 1.0))
        p = _pvalue(n, d)
        if _pelz_good_branch(n, d):
            assert p == ref, z
            continue
        assert abs(p - ref) <= 2 * abs_gap, z
        if ref >= 1e-5:
            assert abs(p - ref) <= 2 * rel_gap * ref, z


@pytest.mark.parametrize("n", [10, 100, 1000, 200_000])
def test_a_far_sample_reads_a_pvalue_far_below_the_floor(n):
    """Past z = 3 scipy's p is below 4e-8; the expansion's roundoff keeps this
    p within [0, 4e-8] up to D = 1, far below the 1e-2 floor."""
    for z in (3.0, 4.0, 10.0, 30.0, 100.0, np.sqrt(n)):
        d = min(z / np.sqrt(n), 1.0)
        assert 0.0 <= _pvalue(n, d) <= 4e-8, z
    assert _pvalue(n, 1.0) == 0.0
