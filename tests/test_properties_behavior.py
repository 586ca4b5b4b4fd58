"""Property-based tests on the behaviour model and profile identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.hardware import lonestar4_node, ranger_node
from repro.util.rng import RngFactory
from repro.workload.applications import APP_CATALOG, RATE_INDEX
from repro.workload.behavior import DerivedRates, JobBehavior
from repro.workload.users import generate_users

_USERS = generate_users(40, RngFactory(123).stream("prop-users"))
_APPS = sorted(APP_CATALOG)


@st.composite
def _behavior_args(draw):
    return dict(
        app=APP_CATALOG[draw(st.sampled_from(_APPS))],
        user=_USERS[draw(st.integers(0, len(_USERS) - 1))],
        node_hw=draw(st.sampled_from([ranger_node(), lonestar4_node()])),
        n_nodes=draw(st.integers(1, 32)),
        duration=draw(st.floats(600.0, 3 * 86400.0)),
        sample_interval=draw(st.sampled_from([60.0, 600.0, 1800.0])),
        behavior_seed=draw(st.integers(0, 2**40)),
        util_scale=draw(st.floats(0.5, 1.6)),
        variability_scale=draw(st.sampled_from([0.1, 1.0])),
    )


@given(_behavior_args())
@settings(max_examples=40, deadline=None)
def test_behavior_rates_always_physical(kwargs):
    """No parameterization may produce unphysical rates: negative values,
    CPU fractions summing past 1, memory beyond the node, FLOPS beyond
    the hardware peak."""
    b = JobBehavior(**kwargs)
    n = min(b.n_steps, 50)
    r = b.rates_matrix(n)
    assert np.isfinite(r).all()
    assert (r >= 0).all()
    busy = (r[:, RATE_INDEX["cpu_user_frac"]]
            + r[:, RATE_INDEX["cpu_sys_frac"]]
            + r[:, RATE_INDEX["cpu_iowait_frac"]])
    assert (busy <= 1.0 + 1e-9).all()
    assert (r[:, RATE_INDEX["mem_used_gb"]]
            <= kwargs["node_hw"].memory_gb).all()
    assert (r[:, RATE_INDEX["mem_cache_gb"]]
            <= r[:, RATE_INDEX["mem_used_gb"]] + 1e-12).all()
    assert (r[:, RATE_INDEX["flops_gf"]]
            < kwargs["node_hw"].peak_gflops).all()
    idle = DerivedRates.cpu_idle(r)
    assert ((idle >= 0) & (idle <= 1)).all()


@given(_behavior_args(), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_behavior_deterministic_per_seed(kwargs, slot):
    a = JobBehavior(**kwargs)
    b = JobBehavior(**kwargs)
    n = min(a.n_steps, 20)
    np.testing.assert_array_equal(a.rates_matrix(n), b.rates_matrix(n))
    slot = min(slot, kwargs["n_nodes"] - 1)
    np.testing.assert_array_equal(
        a.node_rates_at(0.0, slot), b.node_rates_at(0.0, slot)
    )


@given(_behavior_args(), st.integers(0, 31),
       st.lists(st.floats(0.0, 4 * 86400.0), min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_node_rates_block_equals_node_rates_at(kwargs, slot, elapsed):
    """The synthesis engine's rates for a block are the per-invocation
    rates, bit for bit, at any elapsed time — on the job's grid, between
    its steps and past its end."""
    b = JobBehavior(**kwargs)
    slot = min(slot, kwargs["n_nodes"] - 1)
    block = b.node_rates_block(b.steps_of(np.array(elapsed)), slot)
    assert block.shape[0] == len(elapsed)
    for row, e in zip(block, elapsed):
        assert row.tobytes() == b.node_rates_at(e, slot).tobytes(), e


@given(_behavior_args())
@settings(max_examples=20, deadline=None)
def test_derived_rates_consistency(kwargs):
    """lnet <= ib; reads/writes enter their derived aggregates."""
    b = JobBehavior(**kwargs)
    r = b.rates_matrix(min(b.n_steps, 30))
    lnet_tx = DerivedRates.lnet_tx_mb(r)
    ib_tx = DerivedRates.ib_tx_mb(r)
    assert (ib_tx >= lnet_tx - 1e-9).all()
    writes = (r[:, RATE_INDEX["io_scratch_write_mb"]]
              + r[:, RATE_INDEX["io_work_write_mb"]]
              + r[:, RATE_INDEX["io_share_write_mb"]])
    assert (lnet_tx >= writes).all()


def test_profile_normalization_identity(fast_query):
    """The node-hour-weighted average of any dimension's group profiles
    equals exactly 1 on every metric — the radar charts' '=1.0 means
    average' guarantee is an identity, not an approximation."""
    from repro.ingest.summarize import KEY_METRICS
    from repro.xdmod.profiles import UsageProfiler

    profiler = UsageProfiler(fast_query)
    for dimension in ("science_field", "app"):
        groups = fast_query.group_by(dimension, metrics=())
        total_nh = sum(g.node_hours for g in groups)
        acc = {m: 0.0 for m in KEY_METRICS}
        for g in groups:
            p = profiler.profile(dimension, g.key)
            for m in KEY_METRICS:
                acc[m] += p.values[m] * g.node_hours
        for m in KEY_METRICS:
            assert acc[m] / total_nh == pytest.approx(1.0, rel=1e-9), (
                dimension, m
            )
