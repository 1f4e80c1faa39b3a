"""Every lookup site the benchmark's tracer wraps still exists.

``bench/talbot.py`` names the functions a traced run wraps by owner and
key; a key deleted from the library would first show as a ``KeyError``
in ``bench/run.py --trace 1``.  This test reads ``bench/`` only.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def talbot():
    sys.path.insert(0, str(BENCH))
    try:
        import talbot
        yield talbot
    finally:
        sys.path.remove(str(BENCH))


def test_every_benchmark_binding_resolves(talbot):
    bindings = talbot.bindings()
    assert bindings
    missing = [
        (binding.name, binding.key) for binding in bindings
        if binding.key not in (binding.owner if isinstance(binding.owner, dict)
                               else vars(binding.owner))
    ]
    assert missing == []
