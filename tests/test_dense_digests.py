"""Every dense closure basis of the recorded cases keeps its bytes.

``tests/data/dense_digests.json`` holds the achieved dimension, rounds,
verdict and basis digest of each case of ``tests/dense_digests.py``; a
change to how the dense engine stores its rows must leave all of them as
they are.  The records are computed in one child process with pinned BLAS
settings (see that script), then compared one case at a time."""

import json

import pytest

from dense_digests import DIGESTS_PATH, child_records, dense_cases

DENSE_DIGESTS = json.loads(DIGESTS_PATH.read_text())["cases"]


@pytest.fixture(scope="module")
def records():
    return child_records()


def test_dense_digest_grid_is_the_recorded_one():
    assert sorted(dense_cases()) == sorted(DENSE_DIGESTS)


@pytest.mark.parametrize("case", sorted(DENSE_DIGESTS))
def test_dense_closure_keeps_the_recorded_bytes(case, records):
    assert records[case] == DENSE_DIGESTS[case]
