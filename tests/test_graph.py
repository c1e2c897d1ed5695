"""Concept graph: validation, serialization round trips, propagation operator."""

import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import _tape
from _oracles import (dense_propagation, every_row, graphs_equal, indented_graph_json,
                      neighbor_groups, padded_neighbor_sum, permute_graph,
                      select_task_rows)
from conceptshot import tensor as T
from conceptshot.config import SynthConfig
from conceptshot.data import generate_synthetic
from conceptshot.errors import DataError
from conceptshot.graph import (VALID_SPLITS, ConceptGraph, NodeRecord, describe,
                               load_graph, propagation_operator, save_graph)


def chain3(**kw):
    """root - mid - leaf."""
    nodes = [NodeRecord(0, "root", 0), NodeRecord(1, "mid", 1),
             NodeRecord(2, "leaf", 2, "meta-train")]
    sem = kw.pop("semantics", np.arange(6, dtype=float).reshape(3, 2))
    return ConceptGraph(nodes, [(0, 1), (1, 2)], sem, 3)


def binary_tree_7():
    nodes = [NodeRecord(0, "root", 0)]
    nodes += [NodeRecord(i, f"mid{i}", 1) for i in (1, 2)]
    nodes += [NodeRecord(i, f"leaf{i}", 2, "meta-train" if i < 6 else "meta-test")
              for i in (3, 4, 5, 6)]
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    rng = np.random.default_rng(0)
    return ConceptGraph(nodes, edges, rng.standard_normal((7, 4)), 3)


# ---------------------------------------------------------------------------
# validation

def test_chain_loads_and_queries():
    g = chain3()
    assert g.num_nodes == 3 and g.entity_level == 2
    assert propagation_operator(g).nbr_idx[1].tolist() == [0, 1, 2]   # self loop too
    assert g.ids_at(g.entity_level).tolist() == [2]
    assert g.ids_at(1).tolist() == [1]


def test_same_level_edge_rejected():
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 1), NodeRecord(2, "c", 1),
             NodeRecord(3, "d", 2, "none"), NodeRecord(4, "e", 2, "none")]
    with pytest.raises(DataError, match="1-2.*same level"):
        ConceptGraph(nodes, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)], np.zeros((5, 2)), 3)


def test_skip_level_edge_rejected():
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 1), NodeRecord(2, "c", 2)]
    with pytest.raises(DataError, match="skips levels"):
        ConceptGraph(nodes, [(0, 2), (1, 2)], np.zeros((3, 2)), 3)


def test_duplicate_node_id_rejected():
    nodes = [NodeRecord(0, "a", 0), NodeRecord(0, "b", 1)]
    with pytest.raises(DataError, match="duplicate node id 0"):
        ConceptGraph(nodes, [], np.zeros((2, 2)), 2)


def test_orphan_leaf_rejected():
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 1), NodeRecord(2, "c", 1)]
    with pytest.raises(DataError, match="entity node 2 has no parent"):
        ConceptGraph(nodes, [(0, 1)], np.zeros((3, 2)), 2)


def test_cycle_rejected():
    # diamond: two parents sharing two children closes an undirected loop
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 0),
             NodeRecord(2, "x", 1), NodeRecord(3, "y", 1)]
    with pytest.raises(DataError, match="cycle"):
        ConceptGraph(nodes, [(0, 2), (0, 3), (1, 2), (1, 3)], np.zeros((4, 2)), 2)


def test_semantics_shape_mismatch_rejected():
    with pytest.raises(DataError, match="semantics shape"):
        chain3(semantics=np.zeros((4, 2)))


def test_entity_split_on_internal_node_rejected():
    nodes = [NodeRecord(0, "a", 0, "meta-train"), NodeRecord(1, "b", 1, "none")]
    with pytest.raises(DataError, match="non-leaf"):
        ConceptGraph(nodes, [(0, 1)], np.zeros((2, 2)), 2)


def test_unknown_split_rejected():
    nodes = [NodeRecord(0, "a", 0, "validation")]
    with pytest.raises(DataError, match="unknown split"):
        ConceptGraph(nodes, [], np.zeros((1, 2)), 1)


# ---------------------------------------------------------------------------
# serialization

def test_graphs_equal_sees_the_sign_of_a_zero():
    # semantics that differ only in a zero's sign are equal as numbers but
    # not bit for bit
    g = binary_tree_7()
    plus, minus = g.semantics.copy(), g.semantics.copy()
    plus[2, 1], minus[2, 1] = 0.0, -0.0
    a, b = (ConceptGraph(g.nodes, g.edges, s, g.num_levels) for s in (plus, minus))
    assert np.array_equal(a.semantics, b.semantics)
    assert graphs_equal(a, a) and not graphs_equal(a, b)


def test_save_load_roundtrip_bit_exact(tmp_path):
    g = binary_tree_7()
    p = tmp_path / "tree.graph.json"
    save_graph(g, p)
    g2 = load_graph(p)
    assert graphs_equal(g2, g)
    # loading and saving again is byte-stable
    save_graph(g2, tmp_path / "tree2.graph.json")
    assert (tmp_path / "tree2.graph.json").read_bytes() == p.read_bytes()


EDGE_VALUES = [-0.0, 5e-324, 1e-07, 1e16, 1.7976931348623157e308]


@st.composite
def small_forests(draw):
    """A valid graph of at most 9 nodes: every level holds a node, each node
    below level 0 has at most one parent on the level above (an entity node
    always one), names hold non-ASCII, quotes, backslashes and control
    characters, and semantics are 0-3 wide."""
    num_levels = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 3), min_size=num_levels, max_size=num_levels))
    levels = [lv for lv, c in enumerate(counts) for _ in range(c)]
    perm = draw(st.permutations(range(len(levels))))
    chars = st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600'),
                      st.characters())
    nodes, edges = [], []
    for old, lv in enumerate(levels):
        leaf = lv == num_levels - 1
        split = draw(st.sampled_from(VALID_SPLITS if leaf else ("weak", "none")))
        nodes.append(NodeRecord(perm[old], draw(st.text(chars, max_size=5)), lv, split))
        above = [perm[k] for k, u in enumerate(levels) if u == lv - 1]
        if above and (leaf or draw(st.booleans())):
            edges.append((draw(st.sampled_from(above)), perm[old]))
    dim = draw(st.integers(0, 3))
    floats = st.one_of(st.sampled_from(EDGE_VALUES),
                       st.floats(allow_nan=False, allow_infinity=False))
    values = draw(st.lists(floats, min_size=len(levels) * dim, max_size=len(levels) * dim))
    return ConceptGraph(nodes, edges, np.array(values).reshape(len(levels), dim), num_levels)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_forests())
@example(ConceptGraph([NodeRecord(0, "", 0)], [], np.zeros((1, 0)), 1))
@example(ConceptGraph([NodeRecord(0, "r", 0), NodeRecord(1, 'q"\\\x01\u00e9', 1, "meta-test")],
                      [(0, 1)], np.array([EDGE_VALUES, EDGE_VALUES[::-1]]), 2))
def test_save_graph_writes_the_bytes_of_json_indent_1(tmp_path, g):
    p = tmp_path / "g.json"
    save_graph(g, p)
    assert p.read_text(encoding="ascii") == indented_graph_json(g)
    back = load_graph(p)
    assert graphs_equal(back, g)


def test_save_graph_skips_json_indent_encoder(tmp_path, monkeypatch):
    # json.dumps with an indent runs the pure-Python _make_iterencode; the
    # writer renders the layout itself, checked on the tree-585 shape
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("graph text went through json's indent encoder")

    g, _ = generate_synthetic(SynthConfig(branching=8, num_levels=4, samples_per_class=1))
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    save_graph(g, tmp_path / "g.json")
    assert g.num_nodes == 585 and (tmp_path / "g.json").stat().st_size > 0


def test_load_missing_file():
    with pytest.raises(DataError, match="not found"):
        load_graph("/nonexistent/g.json")


def test_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(DataError, match="not valid JSON"):
        load_graph(p)


def test_load_rejects_json_nested_too_deep(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    with pytest.raises(DataError, match="nested too deep"):
        load_graph(p)


def test_graph_every_prefix(tmp_path):
    good = tmp_path / "good.json"
    save_graph(binary_tree_7(), good)
    blob = good.read_bytes()
    assert blob.endswith(b"}\n")
    bad = tmp_path / "bad.json"
    for cut in range(len(blob) - 1):
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_graph(bad)
    # the one prefix left drops only the final newline: the whole document
    bad.write_bytes(blob[:-1])
    assert graphs_equal(load_graph(bad), load_graph(good))


def test_load_rejects_foreign_document(tmp_path):
    p = tmp_path / "other.json"
    for text in ('{"format": "something-else"}', "[]"):
        p.write_text(text)
        with pytest.raises(DataError):
            load_graph(p)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("num_levels"),
    lambda doc: doc.update(num_levels=2.5),
    lambda doc: doc.update(num_levels="3"),
    lambda doc: doc.update(semantics=doc["semantics"]["values"]),
    lambda doc: doc.update(semantics={"file": 3}),
    lambda doc: doc.update(semantics={"file": "g.semb"}),    # no sidecars
    lambda doc: doc.update(semantics={"values": [["x"]]}),
], ids=["no-num-levels", "float-num-levels", "string-num-levels", "semantics-list",
        "sidecar-number", "sidecar-reference", "semantics-strings"])
def test_load_rejects_malformed_fields(tmp_path, edit):
    p = tmp_path / "g.json"
    save_graph(binary_tree_7(), p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="malformed graph document"):
        load_graph(p)


def _edit_edge_end(value):
    def edit(doc):
        assert doc["edges"][0] == [0, 1]
        doc["edges"][0][1] = value
    return edit


def _edit_node(field, value):
    def edit(doc):
        assert doc["nodes"][1]["id"] == doc["nodes"][1]["level"] == 1
        doc["nodes"][1][field] = value
    return edit


# each value would load as the one it replaces if it were coerced
UNCOERCED_FIELDS = {
    "float-id": (_edit_node("id", 1.5), "node 1.5: id must be an integer"),
    "bool-id": (_edit_node("id", True), "node True: id must be an integer"),
    "string-id": (_edit_node("id", "1"), "node '1': id must be an integer"),
    "float-level": (_edit_node("level", 1.0), "node 1: level must be an integer"),
    "bool-level": (_edit_node("level", True), "node 1: level must be an integer"),
    "string-level": (_edit_node("level", "1"), "node 1: level must be an integer"),
    "null-name": (_edit_node("name", None), "node 1: name must be a string, got None"),
    "number-name": (_edit_node("name", 1), "node 1: name must be a string, got 1"),
    "float-edge-end": (_edit_edge_end(1.9), "edge 0-1.9: edge ends must be integers"),
    "bool-edge-end": (_edit_edge_end(True), "edge 0-True: edge ends must be integers"),
    "string-edge-end": (_edit_edge_end("1"), "edge 0-'1': edge ends must be integers"),
}


@pytest.mark.parametrize("edit, message", UNCOERCED_FIELDS.values(),
                         ids=UNCOERCED_FIELDS.keys())
def test_load_rejects_uncoerced_fields(tmp_path, edit, message):
    p = tmp_path / "g.json"
    save_graph(binary_tree_7(), p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(message)):
        load_graph(p)


def test_numpy_integer_node_id_rejected():
    nodes = [NodeRecord(np.int64(0), "a", 0)]
    with pytest.raises(DataError, match="node np.int64\\(0\\): id must be an integer"):
        ConceptGraph(nodes, [], np.zeros((1, 2)), 1)


def test_describe_mentions_counts():
    text = describe(binary_tree_7())
    assert "nodes: 7" in text and "level 2 (entities): 4 nodes" in text


# ---------------------------------------------------------------------------
# propagation operator

def test_propagation_middle_of_chain():
    prop = propagation_operator(chain3())
    npt.assert_allclose(dense_propagation(prop)[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    npt.assert_allclose(dense_propagation(prop)[0], [1 / 2, 1 / 2, 0.0], atol=1e-15)


def test_propagation_isolated_node_one_hot():
    # internal node with no links: with self loop its row is a one-hot on itself
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 0), NodeRecord(2, "x", 1)]
    g = ConceptGraph(nodes, [(0, 2)], np.zeros((3, 2)), 2)
    prop = propagation_operator(g)
    npt.assert_array_equal(dense_propagation(prop)[1], [0.0, 1.0, 0.0])


def test_propagation_rows_sum_to_one():
    rng = np.random.default_rng(1)
    # random 20-node two-level hierarchy
    n_top = 6
    nodes = [NodeRecord(i, f"t{i}", 0) for i in range(n_top)]
    nodes += [NodeRecord(i, f"l{i}", 1) for i in range(n_top, 20)]
    edges = [(int(rng.integers(0, n_top)), i) for i in range(n_top, 20)]
    g = ConceptGraph(nodes, edges, rng.standard_normal((20, 3)), 2)
    p = dense_propagation(propagation_operator(g))
    npt.assert_allclose(p.sum(axis=1), np.ones(20), atol=1e-12)
    assert (p >= 0).all()


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def padded_apply(prop, x):
    """P·x of one node matrix, the padded way."""
    return padded_neighbor_sum(x, prop.nbr_idx) / prop.degrees[:, None]


def padded_apply_vjp(prop, g):
    """Pᵀ·g of one node matrix, the padded way."""
    return padded_neighbor_sum(g / prop.degrees[:, None], prop.nbr_idx)


def test_apply_matches_dense_matmul():
    g = binary_tree_7()
    prop = propagation_operator(g)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((7, 5))
    out = prop.apply(z, every_row(prop))
    npt.assert_allclose(out, dense_propagation(prop) @ z, atol=1e-12)
    npt.assert_array_equal(bits(out), bits(padded_apply(prop, z)))


def test_propagation_matches_augmented_matrix():
    g = binary_tree_7()
    prop = propagation_operator(g)
    a = np.eye(7)
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    npt.assert_allclose(dense_propagation(prop), a / a.sum(axis=1, keepdims=True), atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_propagation_permutation_equivariance_exact(seed):
    rng = np.random.default_rng(seed)
    g = binary_tree_7()
    z = rng.standard_normal((7, 4))
    perm = rng.permutation(7)
    gp = permute_graph(g, perm)
    zp = np.empty_like(z)
    zp[perm] = z
    prop, prop_p = propagation_operator(g), propagation_operator(gp)
    out = prop.apply(z, every_row(prop))
    outp = prop_p.apply(zp, every_row(prop_p))
    npt.assert_array_equal(outp[perm], out)  # bitwise
    npt.assert_array_equal(bits(out), bits(padded_apply(prop, z)))


def grown_tree(num_levels, n_children, max_nodes=None):
    """A hierarchy grown level by level: each node gets ``n_children()``
    children until ``max_nodes`` exist; it ends at the first empty level."""
    nodes, edges, parents = [NodeRecord(0, "n0", 0)], [], [0]
    for lv in range(1, num_levels):
        layer = []
        for p in parents:
            for _ in range(n_children()):
                if len(nodes) == max_nodes:
                    break
                layer.append(len(nodes))
                nodes.append(NodeRecord(layer[-1], f"n{layer[-1]}", lv))
                edges.append((p, layer[-1]))
        if not layer:
            num_levels = lv
            break
        parents = layer
    return ConceptGraph(nodes, edges, np.zeros((len(nodes), 1)), num_levels)


def with_signed_zeros(rng, shape):
    """Normal values with 30% -0.0 and 10% +0.0 entries, as dropout of the
    negative outputs of a leaky ReLU leaves them."""
    x = rng.standard_normal(shape)
    u = rng.uniform(size=shape)
    x[u < 0.3] = -0.0
    x[(u >= 0.3) & (u < 0.4)] = 0.0
    return x


ORACLE_GRAPHS = {
    "tree-b2": lambda rng: grown_tree(5, lambda: 2),
    "tree-b4": lambda rng: grown_tree(4, lambda: 4),
    "tree-b8": lambda rng: grown_tree(3, lambda: 8),
    "random": lambda rng: grown_tree(int(rng.integers(2, 5)),
                                     lambda: int(rng.integers(1, 10)), max_nodes=40),
}


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_sym_neighbor_mean_matches_padded_oracle_bitwise(name, seed):
    rng = np.random.default_rng(seed)
    for trial in range(40):
        prop = propagation_operator(ORACLE_GRAPHS[name](rng))
        deg = prop.degrees[:, None]
        for d in (1, 2, 3, 16):
            x = T.Tensor(with_signed_zeros(rng, (prop.size, d)))
            g = with_signed_zeros(rng, (prop.size, d))
            out = _tape.sym_neighbor_mean(x, neighbor_groups(prop.nbr_idx, prop.size),
                                          prop.degrees)
            (gx,) = _tape.grad(_tape.sum_all(_tape.mul(out, T.Tensor(g))), [x])
            want = padded_neighbor_sum(x.data, prop.nbr_idx) / deg
            npt.assert_array_equal(bits(out.data), bits(want))
            npt.assert_array_equal(bits(gx), bits(padded_neighbor_sum(g / deg,
                                                                      prop.nbr_idx)))


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_padded_oracle_keeps_numpy_sum_bits_from_two_columns(name, seed):
    # from two columns on, numpy sums a (rows, neighbors, d) block along the
    # neighbors one slice at a time from +0.0, which is the oracle's order;
    # one column it sums in eight lanes from eight entries on
    rng = np.random.default_rng(seed)
    for trial in range(20):
        prop = propagation_operator(ORACLE_GRAPHS[name](rng))
        for d in (2, 3, 16):
            x = with_signed_zeros(rng, (prop.size, d))
            padded = np.concatenate([x, np.zeros((1, d))], axis=0)
            npt.assert_array_equal(bits(padded_neighbor_sum(x, prop.nbr_idx)),
                                   bits(np.sort(padded[prop.nbr_idx], axis=1).sum(axis=1)))


def test_sym_neighbor_mean_ignores_padding_width():
    # each row sums its own neighborhood only, one-column inputs included
    prop = propagation_operator(grown_tree(3, lambda: 8))
    wide = np.concatenate([prop.nbr_idx, np.full((prop.size, 7), prop.size)], axis=1)
    rng = np.random.default_rng(3)
    for d in (1, 2, 5):
        x = with_signed_zeros(rng, (prop.size, d))
        a = _tape.sym_neighbor_mean(T.Tensor(x), neighbor_groups(prop.nbr_idx, prop.size),
                                    prop.degrees).data
        b = _tape.sym_neighbor_mean(T.Tensor(x), neighbor_groups(wide, prop.size),
                                    prop.degrees).data
        npt.assert_array_equal(bits(a), bits(b))


def random_rows(rng, prop, tasks):
    """One id array per task, of 1 to 6 distinct rows in random order."""
    return [rng.choice(prop.size, int(rng.integers(1, min(prop.size, 6) + 1)),
                       replace=False) for _ in range(tasks)]


@pytest.mark.parametrize("seed", [13, 14])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_apply_on_rows_matches_full_call_bitwise(name, seed):
    # each task's rows of P x, computed alone, have the bits of the padded
    # oracle's rows, which sum every row; every other row is +0.0.  For a
    # gradient that only the rows hold (signed zeros there too, zeros of
    # either sign elsewhere), P^T g has the oracle's bits on every row, is
    # +0.0 off N(rows), and reads no row outside the rows
    rng = np.random.default_rng(seed)
    for trial in range(20):
        prop = propagation_operator(ORACLE_GRAPHS[name](rng))
        for tasks, d in ((1, 1), (1, 16), (2, 2), (3, 16)):
            x = with_signed_zeros(rng, (tasks, prop.size, d))
            rows = random_rows(rng, prop, tasks)
            got = prop.apply(x, rows)
            assert got.shape == x.shape
            for m, xm, r in zip(got, x, rows):
                npt.assert_array_equal(bits(m[r]), bits(padded_apply(prop, xm)[r]))
                rest = np.ones(prop.size, dtype=bool)
                rest[r] = False
                assert not bits(m[rest]).any()          # +0.0, not -0.0
            g = np.where(rng.uniform(size=x.shape) < 0.5, 0.0, -0.0)
            noisy = rng.standard_normal(x.shape)
            for gm, nm, xm, r in zip(g, noisy, x, rows):
                gm[r] = nm[r] = xm[r]
            got = prop.apply_vjp(g, rows)
            assert got.shape == x.shape
            npt.assert_array_equal(bits(prop.apply_vjp(noisy, rows)), bits(got))
            for m, gm, near in zip(got, g, prop.neighborhoods(rows)):
                npt.assert_array_equal(bits(m), bits(padded_apply_vjp(prop, gm)))
                rest = np.ones(prop.size, dtype=bool)
                rest[near] = False
                assert not bits(m[rest]).any()
        # one node matrix with one id array
        x, (r,) = with_signed_zeros(rng, (prop.size, 3)), random_rows(rng, prop, 1)
        npt.assert_array_equal(bits(prop.apply(x, [r])[r]), bits(padded_apply(prop, x)[r]))


@pytest.mark.parametrize("seed", range(4))
def test_apply_on_rows_relabeling_equivariance_exact(seed):
    rng = np.random.default_rng(seed)
    g = grown_tree(4, lambda: 3)
    perm = rng.permutation(g.num_nodes)
    prop, prop_p = propagation_operator(g), propagation_operator(permute_graph(g, perm))
    x = with_signed_zeros(rng, (3, g.num_nodes, 5))
    xp = np.empty_like(x)
    xp[:, perm] = x
    rows = random_rows(rng, prop, 3)
    moved = [perm[r] for r in rows]
    for op, op_p in ((prop.apply, prop_p.apply), (prop.apply_vjp, prop_p.apply_vjp)):
        npt.assert_array_equal(bits(op_p(xp, moved)[:, perm]), bits(op(x, rows)))


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_neighborhoods_are_the_rows_that_read_a_row(name):
    rng = np.random.default_rng(5)
    for trial in range(20):
        prop = propagation_operator(ORACLE_GRAPHS[name](rng))
        rows = random_rows(rng, prop, 3)
        for r, near in zip(rows, prop.neighborhoods(rows)):
            npt.assert_array_equal(near, np.flatnonzero(np.isin(prop.nbr_idx, r).any(axis=1)))


# ---------------------------------------------------------------------------
# row selection

def test_select_task_rows():
    x = T.Tensor(np.arange(12, dtype=float).reshape(3, 4))
    out = select_task_rows(x, [2, 0])
    npt.assert_array_equal(out.data, x.data[[2, 0]])
    with pytest.raises(DataError, match="duplicates"):
        select_task_rows(x, [1, 1])
    with pytest.raises(DataError, match="out of range"):
        select_task_rows(x, [5])
