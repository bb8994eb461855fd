"""Train and ref are two inputs to one program: only the data may differ.

Figure 4 selects p-threads on ``ref`` and runs them on ``train``, which
is only the paper's experiment if both inputs run the same static code
(on Alpha the same binary runs both).
"""

import pytest

from repro.workloads.registry import benchmark_names, get_program

_BZIP2_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="bzip2's ref input has table_shift -1, which shrinks the "
    "block array and moves the bases of idx and out: pc 0 is "
    "'ld r7 r1 #589824' on train but '#327680' on ref, and pc 18 "
    "differs the same way",
)


@pytest.mark.parametrize("bench", [
    pytest.param(b, marks=_BZIP2_XFAIL) if b == "bzip2" else b
    for b in benchmark_names()
])
def test_train_and_ref_share_the_instruction_list(bench):
    train = get_program(bench, "train").instructions
    ref = get_program(bench, "ref").instructions
    assert train == ref
