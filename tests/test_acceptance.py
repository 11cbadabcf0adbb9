"""Full-scale acceptance suite.

Each test runs one verification check at full scale, prints a single
pass/fail line (shown live, outside pytest's capture), and asserts both
the check outcome and its runtime budget.
"""

from distseq import verify


def _accept(capsys, number, result, budget):
    ok = result.passed and result.elapsed < budget
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {result.name}: "
              f"{'PASS' if ok else 'FAIL'} "
              f"({result.elapsed:.2f}s / budget {budget}s) {result.detail}")
    assert result.passed, result.detail
    assert result.elapsed < budget, f"{result.elapsed:.2f}s exceeds {budget}s"


def test_acceptance_1_cycle_family(capsys):
    _accept(capsys, 1, verify.check_fig1_family((3, 4, 5, 6)), 5)


def test_acceptance_2_exhaustive_worst_case(capsys):
    _accept(capsys, 2, verify.check_moore_n3(), 60)


def test_acceptance_3_lower_bound(capsys):
    _accept(capsys, 3,
            verify.check_lower_bound(((4, 2), (5, 2), (5, 3), (6, 2),
                                      (9, 4), (10, 3), (11, 4), (10, 5))),
            120)


def test_acceptance_4_landau_oracles(capsys):
    _accept(capsys, 4, verify.check_landau(brute_max=30, order_max=10), 10)


def test_acceptance_5_walk_compression(capsys):
    _accept(capsys, 5,
            verify.check_walk_compression(instances=500, max_walk_len=200), 120)


def test_acceptance_6_semigroup_oracles(capsys):
    _accept(capsys, 6, verify.check_semigroup_oracles(), 10)


def test_acceptance_7_entropy_limit(capsys):
    _accept(capsys, 7, verify.check_entropy_limit(), 5)


def test_acceptance_8_sync_properties(capsys):
    _accept(capsys, 8, verify.check_sync_properties(instances=200), 120)


def test_acceptance_9_pds_oracle(capsys):
    _accept(capsys, 9, verify.check_pds_oracle(instances=300, triples=1000), 120)
