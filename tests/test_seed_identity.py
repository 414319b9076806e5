"""One result-cache identity per distinct simulation.

:meth:`repro.bench.Cell.config` keeps the runtime seed only for
:data:`~repro.analysis.experiment.SEEDED_VERSIONS`.  The rule is only sound if
every other version really simulates the same bits at any seed, so the
properties here run the simulator at the *submitted* seed rather than
at the normalized one, and tie ``SEEDED_VERSIONS`` to the structural
fact behind it: only a stochastic scheduler owns an RNG.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.analysis.experiment import (
    ALL_VERSIONS,
    SEEDED_VERSIONS,
    _make_runtime,
    run_version,
)
from repro.bench.cache import cache_key
from repro.bench.runner import Cell
from repro.machine import broadwell
from repro.sim.engine import SimulationEngine
from tests.test_property_dag import random_problem

SEED_FREE = sorted(set(ALL_VERSIONS) - SEEDED_VERSIONS)
SEEDS = st.integers(0, 2 ** 31 - 1)


def _cell(version, seed=0, **kw):
    return Cell(machine="broadwell", matrix="inline1", solver="lanczos",
                version=version, block_count=16, iterations=2,
                seed=seed, **kw)


def _summary_json(version, seed):
    """Canonical summary of a direct run at ``seed`` (no cache, no key)."""
    res = run_version("broadwell", "inline1", "lanczos", version,
                      block_count=16, iterations=2, seed=seed)
    return json.dumps(res.summary().to_dict(), sort_keys=True)


@given(st.sampled_from(SEED_FREE), SEEDS, SEEDS)
@settings(max_examples=12, deadline=None)
def test_seed_free_versions_share_one_key_and_one_result(version, s1, s2):
    a, b = _cell(version, s1), _cell(version, s2)
    assert a.config() == b.config()
    assert a.config()["seed"] == 0
    assert a.seed == s1            # the cell itself keeps what was sent
    assert _summary_json(version, s1) == _summary_json(version, s2)


def test_hpx_seed_stays_in_the_key_and_changes_the_result():
    k0, k1 = (cache_key(_cell("hpx", s).config()) for s in (0, 1))
    assert k0 != k1
    assert _summary_json("hpx", 0) != _summary_json("hpx", 1)


@given(random_problem(), SEEDS)
@settings(max_examples=8, deadline=None)
def test_only_seeded_versions_own_an_rng(dag, seed):
    """``SEEDED_VERSIONS`` is exactly the set of RNG-owning schedulers.

    A deterministic policy has no ``rng`` attribute after ``prepare``
    (so a draw would raise mid-run rather than silently share keys);
    the BSP versions have no scheduler at all.
    """
    bw = broadwell()
    for version in ALL_VERSIONS:
        rt = _make_runtime(version, bw, True, seed)
        make = getattr(rt, "make_scheduler", None)
        if make is None:
            assert version not in SEEDED_VERSIONS
            continue
        sched = make()
        SimulationEngine(bw, seed=seed).run(dag, sched, iterations=1)
        assert hasattr(sched, "rng") == (version in SEEDED_VERSIONS), \
            version


def test_seed_zero_keys_keep_their_bytes():
    """Keys written before the seed rule existed still hit."""
    pinned = {
        "libcsr": "0a2fa33558d4ff777ca37c8cdd0dab3489158f75f7d6eebfaf9a519379d32ef1",
        "deepsparse": "0d8598157d96980e70924d3b524728d6b9dacd86b330cb7d96f6d153890aeace",
        "hpx": "e82c3db516e64ba1c751e01220577448c8463f8c65b1744b3caf74650c7f521f",
    }
    for version, key in pinned.items():
        cell = Cell("broadwell", "inline1", "lanczos", version,
                    block_count=48)
        assert cache_key(cell.config()) == key, version
