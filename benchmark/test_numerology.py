"""Properties the benchmark's numerology table must have.

Run with ``python3 -m pytest benchmark/test_numerology.py`` or
``python3 benchmark/test_numerology.py``.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numerology as nm  # noqa: E402


def test_exponents_pair_up_to_the_coxeter_number():
    for label, (exps, h) in nm.TABLE.items():
        n = len(exps)
        assert list(exps) == sorted(exps), label
        for i in range(n):
            assert exps[i] + exps[n - 1 - i] == h, label


def test_exponents_sum_to_the_positive_root_count():
    for label, (exps, h) in nm.TABLE.items():
        assert sum(exps) == nm.positive_roots(label) == len(exps) * h // 2, label


def test_products_add_ranks_and_multiply_counts():
    assert nm.rank("A1xA2") == 3
    assert nm.positive_roots("A1xA2") == 4
    for m in range(4):
        assert nm.fuss_catalan("A1xA2", m) == \
            nm.fuss_catalan("A1", m) * nm.fuss_catalan("A2", m)


def test_known_values():
    # Catalan numbers of type A and the type-independent values at m = 0
    assert [nm.fuss_catalan("A%d" % n, 1) for n in (1, 2, 3, 4)] == [2, 5, 14, 42]
    assert nm.fuss_catalan("F4", 1) == 105
    assert nm.fuss_catalan_positive("D4", 1) == 20
    for label in nm.TABLE:
        assert nm.fuss_catalan(label, 0) == 1
        assert nm.fuss_catalan_positive(label, 0) == 0


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
