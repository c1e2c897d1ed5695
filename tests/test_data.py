"""Samplers, synthetic generator, dataset round trips."""

import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import arange_sample_episode, eligible_classes
from conceptshot import data
from conceptshot.data import (Dataset, SynthConfig, class_separation,
                              concept_levels_with, generate_synthetic, load_dataset,
                              sample_concept_episode, sample_entity_episode,
                              save_dataset, summarize)
from conceptshot.errors import ConfigError, DataError
from conceptshot.graph import VALID_SPLITS
from conceptshot.tensor import Rng


@pytest.fixture(scope="module")
def small_world():
    return generate_synthetic(SynthConfig(branching=2, num_levels=3, input_dim=8,
                                          semantic_dim=4, samples_per_class=25, seed=3))


# ---------------------------------------------------------------------------
# generator structure

def test_tree_arithmetic():
    g, ds = generate_synthetic(SynthConfig(branching=2, num_levels=3, seed=0))
    assert g.num_nodes == 7
    assert g.ids_at(g.entity_level).size == 4
    assert len(g.edges) == 6
    # every class (entity + concept) carries samples_per_class samples
    assert ds.num_samples == 7 * 50


def test_split_fractions():
    g, _ = generate_synthetic(SynthConfig(branching=4, num_levels=4, seed=1))
    assert g.ids_at(g.entity_level).size == 64
    train = g.ids_at(g.entity_level, "meta-train").tolist()
    test = g.ids_at(g.entity_level, "meta-test").tolist()
    assert len(train) == 51 and len(test) == 13
    assert not (set(train) & set(test))


def test_mix_mode_reserves_weak_only_leaves():
    cfg = SynthConfig(branching=4, num_levels=3, mix_mode=True, seed=2)
    g, ds = generate_synthetic(cfg)
    weak_leaves = g.ids_at(g.entity_level, "weak").tolist()
    assert len(weak_leaves) == round(0.2 * 16)
    for c in weak_leaves:  # weak-only leaves contribute no directly-labeled samples
        assert ds.indices_for(c).size == 0
    rng = Rng(0)
    for _ in range(30):
        ep = sample_entity_episode(ds, g, "meta-train", 3, 1, 5, rng)
        assert not (set(ep.class_ids.tolist()) & set(weak_leaves))


def test_weak_fraction_range_checked():
    # outside [0, 1), or leaving fewer than two leaves for meta-train and
    # meta-test; without mix_mode no leaf is weak-only, so only the range counts
    for frac in (-0.5, 1.0, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="weak_fraction"):
            SynthConfig(mix_mode=True, weak_fraction=frac)
        with pytest.raises(ConfigError, match="weak_fraction"):
            SynthConfig(weak_fraction=frac)
    with pytest.raises(ConfigError, match="fewer than two of 4 leaves"):
        SynthConfig(num_levels=3, mix_mode=True, weak_fraction=0.7)
    assert SynthConfig(num_levels=3, mix_mode=True, weak_fraction=0.5).weak_fraction == 0.5
    assert SynthConfig(num_levels=3, weak_fraction=0.9).weak_fraction == 0.9
    g, _ = generate_synthetic(SynthConfig(num_levels=3, mix_mode=True, weak_fraction=0.5))
    assert [g.ids_at(2, s).size for s in ("weak", "meta-train", "meta-test")] == [2, 1, 1]


def test_zero_sigma_collapses_to_prototypes():
    cfg = SynthConfig(branching=2, num_levels=3, input_dim=4, semantic_dim=4,
                      sigma_levels=[0.0, 0.0, 0.0], samples_per_class=5, seed=4)
    g, ds = generate_synthetic(cfg)
    # all samples of every class equal its prototype (= the root prototype here)
    for c in range(g.num_nodes):
        idx = ds.indices_for(c)
        if idx.size:
            x = ds.features[idx]
            npt.assert_array_equal(x, np.tile(x[0], (idx.size, 1)))


def test_generator_is_pure_function_of_config():
    a = generate_synthetic(SynthConfig(branching=3, num_levels=3, seed=9))
    b = generate_synthetic(SynthConfig(branching=3, num_levels=3, seed=9))
    assert a[0] == b[0]
    npt.assert_array_equal(a[1].features, b[1].features)
    npt.assert_array_equal(a[1].node_ids, b[1].node_ids)
    c = generate_synthetic(SynthConfig(branching=3, num_levels=3, seed=10))
    assert not np.array_equal(a[1].features, c[1].features)


# sha256 prefixes of the generated bytes on a grid of trees, the acceptance
# benchmark's data last: the features, node ids, each node's level and split,
# and the edges (the semantics go through a BLAS matmul and are left out)
PINNED_GENERATIONS = [
    (dict(branching=2, num_levels=2, seed=0), "94c47354f0154766"),
    (dict(branching=2, num_levels=4, mix_mode=True, seed=1), "78f38e006c63e624"),
    (dict(branching=3, num_levels=3, seed=7), "619a31eeb176c48f"),
    (dict(branching=3, num_levels=3, mix_mode=True, weak_fraction=0.3, seed=7),
     "c44f37f70eeea8ce"),
    (dict(branching=4, num_levels=2, mix_mode=True, input_dim=5, samples_per_class=7,
          seed=2), "0efb3010bdca3352"),
    (dict(branching=5, num_levels=3, sigma_levels=[1.0, 0.5, 0.0], seed=3),
     "0fa14d097c6a3331"),
    (dict(branching=8, num_levels=3, mix_mode=True, input_dim=4, samples_per_class=9,
          seed=1), "487c7237707a16f0"),
    (dict(branching=4, num_levels=4, input_dim=32, semantic_dim=16, samples_per_class=50,
          sigma_levels=[0.6, 0.4, 0.3, 1.0], seed=0), "08424126437844ef"),
]


@pytest.mark.parametrize("kwargs, digest", PINNED_GENERATIONS)
def test_generated_bytes_are_pinned(kwargs, digest):
    g, ds = generate_synthetic(SynthConfig(**kwargs))
    h = hashlib.sha256()
    h.update(ds.features.astype("<f4").tobytes())
    h.update(ds.node_ids.astype("<i4").tobytes())
    h.update(json.dumps([[n.level, n.split] for n in g.nodes]).encode())
    h.update(np.asarray(g.edges, dtype="<i8").tobytes())
    assert h.hexdigest()[:16] == digest


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(1, 4), st.integers(1, 6),
       st.integers(0, 2**16))
def test_noiseless_concept_samples_are_samples_of_leaves_beneath(
        branching, num_levels, input_dim, samples, seed):
    # no observation noise: a leaf's samples are its prototype, and each
    # sample of a concept node is the sample of one leaf beneath it
    sigmas = [0.5] * (num_levels - 1) + [0.0]
    g, ds = generate_synthetic(SynthConfig(
        branching=branching, num_levels=num_levels, input_dim=input_dim,
        semantic_dim=2, sigma_levels=sigmas, samples_per_class=samples, seed=seed))
    leaf_rows = {}
    for c in g.ids_at(g.entity_level):
        x = ds.features[ds.indices_for(c)]
        npt.assert_array_equal(x, np.tile(x[0], (samples, 1)))
        leaf_rows[int(c)] = x[0]
    for level in range(g.entity_level):
        for c in g.ids_at(level):
            beneath = [int(c)]
            for lv in range(level + 1, num_levels):
                beneath = [j for u in beneath for j in g.neighbors(u)
                           if g.nodes[j].level == lv]
            assert len(beneath) == branching ** (g.entity_level - level)
            for row in ds.features[ds.indices_for(c)]:
                assert any(np.array_equal(row, leaf_rows[j]) for j in beneath)


def test_classes_separate_with_default_sigmas(small_world):
    within, between = class_separation(*reversed(small_world))
    assert within < between


def test_weak_samples_labeled_with_level_ids(small_world):
    g, ds = small_world
    for level in range(g.entity_level):
        for c in g.ids_at(level):
            assert ds.indices_for(c).size == 25


def test_summarize_mentions_counts(small_world):
    g, ds = small_world
    text = summarize(ds, g)
    assert "level 2 (entities): 4 classes" in text
    assert "samples: 175" in text


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(branching=1, num_levels=3)
    with pytest.raises(ConfigError):
        SynthConfig(branching=2, num_levels=3, sigma_levels=[1.0])
    with pytest.raises(ConfigError):
        SynthConfig(branching=2, num_levels=3, sigma_levels=[1.0, -0.5, 0.1])
    with pytest.raises(ConfigError):
        SynthConfig(branching=2, num_levels=3, train_fraction=1.5)


# ---------------------------------------------------------------------------
# sampling

def test_entity_episode_layout(small_world):
    g, ds = small_world
    ep = sample_entity_episode(ds, g, "meta-train", 2, 3, 4, Rng(1))
    assert ep.level == g.entity_level
    assert len(set(ep.class_ids.tolist())) == 2
    npt.assert_array_equal(ep.support_y, [0, 0, 0, 1, 1, 1])
    npt.assert_array_equal(ep.query_y, [0] * 4 + [1] * 4)
    assert ep.support_x.shape == (6, 8) and ep.query_x.shape == (8, 8)
    for c in ep.class_ids:
        assert g.nodes[c].split == "meta-train"


def test_support_query_disjoint_property(small_world):
    g, ds = small_world
    rng = Rng(7)
    for i in range(10_000):
        ep = sample_entity_episode(ds, g, "meta-train", 2, 1, 3, rng)
        srows = {tuple(r) for r in ep.support_x}
        qrows = {tuple(r) for r in ep.query_x}
        assert not (srows & qrows)


def test_concept_episode_uses_level_classes(small_world):
    g, ds = small_world
    ep = sample_concept_episode(ds, g, 1, 2, 1, 5, Rng(2))
    assert ep.level == 1
    assert all(g.nodes[c].level == 1 for c in ep.class_ids)


def test_concept_episode_rejects_entity_level(small_world):
    g, ds = small_world
    with pytest.raises(DataError, match="non-leaf levels"):
        sample_concept_episode(ds, g, g.entity_level, 2, 1, 5, Rng(0))


def test_entity_episode_rejects_weird_split(small_world):
    g, ds = small_world
    with pytest.raises(ConfigError, match="meta-train/meta-test"):
        sample_entity_episode(ds, g, "weak", 2, 1, 5, Rng(0))


def test_insufficient_classes_message(small_world):
    g, ds = small_world
    with pytest.raises(DataError, match="need 5 classes with >=30 samples"):
        sample_entity_episode(ds, g, "meta-train", 5, 15, 15, Rng(0))


def test_one_way_one_shot_minimal():
    g, ds = generate_synthetic(SynthConfig(branching=2, num_levels=2, input_dim=4,
                                           semantic_dim=4, samples_per_class=2, seed=5))
    ep = sample_entity_episode(ds, g, "meta-train", 1, 1, 1, Rng(0))
    assert ep.support_x.shape == (1, 4) and ep.query_x.shape == (1, 4)


def test_class_draw_uniformity(small_world):
    g, ds = small_world
    rng = Rng(11)
    counts = np.zeros(g.num_nodes)
    for _ in range(10_000):
        ep = sample_entity_episode(ds, g, "meta-train", 2, 1, 1, rng)
        counts[ep.class_ids] += 1
    # 3 of the 4 leaves are meta-train; each should appear in 2/3 of draws
    freqs = counts[g.ids_at(g.entity_level, "meta-train")] / 10_000
    npt.assert_allclose(freqs, 2 / 3, atol=0.02)


def test_sampling_determinism(small_world):
    g, ds = small_world
    e1 = sample_entity_episode(ds, g, "meta-train", 2, 1, 5, Rng(42))
    e2 = sample_entity_episode(ds, g, "meta-train", 2, 1, 5, Rng(42))
    npt.assert_array_equal(e1.class_ids, e2.class_ids)
    npt.assert_array_equal(e1.support_x, e2.support_x)
    npt.assert_array_equal(e1.query_x, e2.query_x)


def test_concept_levels_with(small_world):
    g, ds = small_world
    levels = concept_levels_with(ds, g, k_shot=1, n_query=5)
    assert levels == [(1, 2)]  # root level has one class; level 1 has two


def _sparse_worlds(small_world):
    """The small world; one whose weak-only leaves have no samples; and one
    whose largest ids have no samples."""
    g, ds = small_world
    yield g, ds
    yield generate_synthetic(SynthConfig(branching=3, num_levels=3, input_dim=4,
                                         semantic_dim=4, samples_per_class=6,
                                         mix_mode=True, weak_fraction=0.3, seed=8))
    keep = ds.node_ids < g.num_nodes - 2
    yield g, Dataset(ds.features[keep], ds.node_ids[keep])


def test_eligible_matches_sorted_filter(small_world):
    for g, ds in _sparse_worlds(small_world):
        counts = ds.class_counts()
        for need in range(1, int(counts.max()) + 2):
            for level in range(g.num_levels):
                candidates = [g.ids_at(level)] + [g.ids_at(level, s)
                                                  for s in VALID_SPLITS]
                for cand in candidates:
                    got = data._eligible(ds, cand, need)
                    want = eligible_classes(ds, cand.tolist(), need)
                    assert got.dtype == want.dtype
                    npt.assert_array_equal(got, want)
            old_levels = [(lv, n) for lv in range(g.entity_level)
                          for n in [eligible_classes(ds, g.ids_at(lv).tolist(), need).size]
                          if n >= 2]
            assert concept_levels_with(ds, g, 1, need - 1) == old_levels


def test_sampler_matches_arange_draw():
    # drawing from the pool size gives the draws of an explicit np.arange
    g, _ = generate_synthetic(SynthConfig(branching=3, num_levels=4, input_dim=4,
                                          semantic_dim=4, samples_per_class=2, seed=8))
    rng = np.random.default_rng(8)
    ids = np.repeat(np.arange(g.num_nodes), rng.integers(30, 1500, g.num_nodes))
    ds = Dataset(rng.standard_normal((ids.size, 4)), ids)   # pools of 30-1499
    sources = [(g.ids_at(g.entity_level, split), g.entity_level, n_way)
               for split in ("meta-train", "meta-test") for n_way in (1, 5)]
    sources += [(g.ids_at(level), level, n_way)
                for level, n_way in ((1, 3), (2, 2), (2, 5))]
    for seed in range(100):
        for cand, level, n_way in sources:
            for k_shot, n_query in ((1, 1), (1, 15), (3, 20), (5, 25)):
                args = (ds, cand, level, n_way, k_shot, n_query)
                got = data._sample_episode(*args, Rng(seed), "here")
                want = arange_sample_episode(*args, Rng(seed), "here")
                for name in ("class_ids", "support_x", "support_y", "query_x",
                             "query_y"):
                    npt.assert_array_equal(getattr(got, name), getattr(want, name))
                assert got.level == want.level


# ---------------------------------------------------------------------------
# serialization

def test_dataset_roundtrip_bit_exact(tmp_path, small_world):
    _, ds = small_world
    p = tmp_path / "data.bin"
    save_dataset(ds, p)
    ds2 = load_dataset(p)
    npt.assert_array_equal(ds.features, ds2.features)
    npt.assert_array_equal(ds.node_ids, ds2.node_ids)
    save_dataset(ds2, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == p.read_bytes()


def test_dataset_bytes_are_the_artifact_framing(tmp_path):
    ds = Dataset(np.array([[1.5, -2.0]], dtype=np.float32), np.array([3]))
    p = tmp_path / "data.bin"
    save_dataset(ds, p)
    head = b'{"dim":2,"format":"conceptshot-dataset","rows":1,"version":2}'
    assert p.read_bytes() == (b"CSDS" + len(head).to_bytes(4, "little") + head
                              + ds.features.astype("<f4").tobytes()
                              + np.array([3], dtype="<i4").tobytes())
    old = head.replace(b'"version":2', b'"version":1')
    p.write_bytes(b"CSDS" + len(old).to_bytes(4, "little") + old + b"\0" * 12)
    with pytest.raises(DataError, match="unsupported dataset format.*version 1"):
        load_dataset(p)


def test_dataset_load_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_dataset(tmp_path / "missing.bin")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"CSDS" + b"\x01" + b"\x00" * 4)
    with pytest.raises(DataError, match="malformed dataset header"):
        load_dataset(bad)
    # a whole 1x1 dataset in the old layout: u8 version 1, u32 rows, u32 dim
    bad.write_bytes(b"CSDS\x01" + (1).to_bytes(4, "little") * 2 + b"\0" * 8)
    with pytest.raises(DataError, match="truncated"):
        load_dataset(bad)


def test_dataset_every_prefix_and_trailing_bytes(tmp_path):
    ds = Dataset(np.arange(6, dtype=np.float32).reshape(3, 2), np.array([0, 2, 1]))
    good = tmp_path / "good.bin"
    save_dataset(ds, good)
    blob = good.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_dataset(bad)
    bad.write_bytes(blob + b"\0")
    with pytest.raises(DataError, match="trailing bytes"):
        load_dataset(bad)
    with pytest.raises(DataError, match="cannot read"):
        load_dataset(tmp_path)
    back = load_dataset(good)
    npt.assert_array_equal(back.features, ds.features)
    npt.assert_array_equal(back.node_ids, ds.node_ids)


def test_dataset_validators(small_world):
    g, ds = small_world
    ds.validate_against(g)
    rogue = Dataset(np.zeros((2, 3), dtype=np.float32), np.array([0, 99]))
    with pytest.raises(DataError, match="node id 99"):
        rogue.validate_against(g)
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([[np.nan]], dtype=np.float32), np.array([0]))
