"""Table 1 — process-iteration normality pass rates per application and test.

Paper values (percent passing at 5 % significance):

====================  =======  =======  ========
Test                  MiniFE   MiniMD   MiniQMC
====================  =======  =======  ========
D'Agostino            3        77       95
Shapiro–Wilk          < 1      74       96
Anderson–Darling      < 1      76       96
====================  =======  =======  ========

The benchmark times the full Table-1 regeneration (battery of three tests on
every process-iteration group of every application) and asserts the paper's
qualitative classes: MiniFE almost never normal, MiniMD mostly normal,
MiniQMC ~95 % normal, with the same per-test ordering of applications.
"""

import numpy as np

from repro.experiments.paper import TABLE1_PASS_PERCENT
from repro.experiments.tables import table1
from repro.stats.battery import TEST_LABELS, TEST_NAMES


def _assert_table1_shape(rows):
    by_app = {row["application"]: row for row in rows}
    for test in TEST_NAMES:
        label = f"{TEST_LABELS[test]} (measured %)"
        minife = by_app["MiniFE"][label]
        minimd = by_app["MiniMD"][label]
        miniqmc = by_app["MiniQMC"][label]
        assert minife < 10.0, f"MiniFE should almost never pass {test}"
        assert minimd > 50.0, f"MiniMD should mostly pass {test}"
        assert miniqmc > 85.0, f"MiniQMC should pass ~95% of {test}"
        measured_order = np.argsort([minife, minimd, miniqmc]).tolist()
        paper_order = np.argsort(
            [TABLE1_PASS_PERCENT[a][test] for a in ("minife", "minimd", "miniqmc")]
        ).tolist()
        assert measured_order == paper_order


def test_table1_regeneration(benchmark, bench_results):
    rows = benchmark(table1, bench_results)
    _assert_table1_shape(rows)
