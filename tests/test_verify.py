import numpy as np

from heptapile.verify import CheckReport, check_mass_ratio, site_families


def test_report_summary_lines():
    rep = CheckReport("demo")
    rep.note("context")
    assert rep.summary() == "[PASS] demo"
    rep.fail("broke")
    assert rep.summary() == "[FAIL] demo"
    assert rep.lines == ["context", "FAIL broke"]


def test_site_families_shape_and_determinism(ball_cache):
    b = ball_cache(3)
    fams1 = site_families(b, 10, np.random.default_rng([7, 3]))
    fams2 = site_families(b, 10, np.random.default_rng([7, 3]))
    assert fams1 == fams2
    assert len(fams1) == 10
    assert fams1[0] == [0]
    (lone,) = fams1[1]
    assert b.level[lone] == 3
    assert len(fams1[2]) == 5
    tied = fams1[3]
    low = min(int(b.level[v]) for v in tied)
    assert sum(1 for v in tied if b.level[v] == low) >= 2
    for fam in fams1:
        assert fam == sorted(set(fam))
        assert all(0 <= v < b.n for v in fam)


def test_mass_ratio_report_contents():
    rep = check_mass_ratio()
    assert rep.passed
    assert any("171332" in line for line in rep.lines)
