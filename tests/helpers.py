"""Shared builders for synthetic windows and bundles used across test modules."""

import numpy as np

from homevitals.signals import (
    Channel,
    ChannelBundle,
    IbiSeries,
    SampleSeries,
    WindowSpec,
    make_windows,
)


def make_bundle(
    duration_s=90.0,
    subject="S00",
    eda=None,
    bvp=None,
    st=None,
    ibi_pairs=None,
    start_ms=0,
):
    """Bundle with given channel arrays, or neutral constants when omitted."""
    n4 = int(round(duration_s * 4))
    n64 = int(round(duration_s * 64))
    if eda is None:
        eda = np.full(n4, 2.0)
    if bvp is None:
        bvp = np.zeros(n64)
    if st is None:
        st = np.full(n4, 33.0)
    if ibi_pairs is None:
        ibi_pairs = [(start_ms + int(t * 1000), 0.8) for t in np.arange(0.4, duration_s, 0.8)]
    return ChannelBundle(
        subject_id=subject,
        eda=SampleSeries(Channel.EDA, 4.0, start_ms, eda),
        bvp=SampleSeries(Channel.BVP, 64.0, start_ms, bvp),
        st=SampleSeries(Channel.ST, 4.0, start_ms, st),
        ibi=IbiSeries.from_pairs(ibi_pairs),
        session_start_ms=start_ms,
    )


def every_entry(store):
    """Every index entry the store holds, of every kind and subject, in seq
    (append) order; `store.records(every_entry(store))` reads the whole log."""
    entries = (entry for listed in store._by_key.values() for entry in listed)
    return sorted(entries, key=lambda entry: entry.seq)


def single_window(**kwargs):
    bundle = make_bundle(**kwargs)
    return make_windows(bundle, WindowSpec(90.0, 45.0))[0]


def pulse_wave(duration_s, rate_hz, freq_hz, sharpness=4.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    v = np.exp(sharpness * (np.cos(2 * np.pi * freq_hz * t) - 1))
    if noise:
        v = v + noise * rng.normal(size=t.size)
    return v


def reference_leaf_ids(tree, X):
    """Leaf node id for every row of X, one tree at a time, routed level by
    level over the tree's own node arrays: the per-tree router that stacked
    routing replaced, kept as its oracle."""
    n = X.shape[0]
    feature = np.asarray(tree.feature)
    threshold = np.asarray(tree.threshold)
    left = np.asarray(tree.left)
    right = np.asarray(tree.right)
    node_of = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while active.size:
        nodes = node_of[active]
        feats = feature[nodes]
        internal = feats != -1
        active = active[internal]
        if not active.size:
            break
        nodes = nodes[internal]
        feats = feats[internal]
        go_left = X[active, feats] < threshold[nodes]
        node_of[active] = np.where(go_left, left[nodes], right[nodes])
    return node_of
