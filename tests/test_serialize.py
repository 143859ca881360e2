import json

import pytest
from hypothesis import given, settings, strategies as st

from pocover.generate import GenSpec, generate
from pocover.model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    RcpInstance,
    SizedOutTree,
    validate_cover,
)
from pocover.reductions import (
    bpcc_to_ct,
    degree_augment,
    dks_to_urcp,
    dksh_to_rcp,
    rcp_to_dksh,
)
from pocover.serialize import (
    cover_to_doc,
    doc_to_instance,
    dumps_instance,
    emit_dot,
    fingerprint,
    instance_to_doc,
    loads_instance,
    trace_to_doc,
)
from pocover.treecover import InfeasibleInstance, cover


KINDS = ["out_tree", "bp_star", "dag", "digraph", "hypergraph", "bpcc"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(1, 10),
    st.integers(1, 8),
    st.integers(0, 10_000),
)
def test_round_trip_identity(kind, n, k, seed):
    instance = generate(GenSpec(kind=kind, n=n, k=k, seed=seed))
    assert loads_instance(dumps_instance(instance)) == instance


def test_documents_are_self_describing():
    instance = generate(GenSpec(kind="out_tree", n=5, k=4, seed=1))
    doc = instance_to_doc(instance)
    assert doc["format_version"] == 1
    assert doc["kind"] == "ct"
    assert doc["parent"][instance.tree.root] is None
    blob = dumps_instance(instance)
    parsed = json.loads(blob)
    assert parsed == json.loads(json.dumps(doc))


def test_doc_validation_errors():
    with pytest.raises(InputError):
        doc_to_instance({"format_version": 2, "kind": "ct"})
    with pytest.raises(InputError):
        doc_to_instance({"format_version": 1, "kind": "mystery"})
    with pytest.raises(InputError):
        doc_to_instance(
            {"format_version": 1, "kind": "ct", "n": 3, "parent": [None], "size": [0], "k": 1}
        )
    with pytest.raises(InputError, match="missing field"):
        doc_to_instance({"format_version": 1, "kind": "rcp", "n": 2})


def test_loads_rejects_bad_json_and_non_objects():
    with pytest.raises(InputError, match="invalid JSON"):
        loads_instance('{"format_version": 1,')
    for text in ("[1, 2]", "3", '"ct"', "null"):
        with pytest.raises(InputError, match="JSON object"):
            loads_instance(text)


def test_rcp_profit_length_is_checked_before_the_graph_is_built(monkeypatch):
    from pocover import serialize

    built = []
    inner = serialize.Digraph

    def spy(n, edges):
        built.append(n)
        return inner(n, edges)

    monkeypatch.setattr(serialize, "Digraph", spy)
    doc = {"format_version": 1, "kind": "rcp", "n": 10**5, "edges": [], "profit": [1], "k": 1}
    with pytest.raises(InputError, match="profit array length must match vertex count"):
        doc_to_instance(doc)
    assert built == []
    doc_to_instance({**doc, "n": 1})
    assert built == [1]


def test_fingerprint_stability():
    a = generate(GenSpec(kind="digraph", n=6, k=3, seed=9))
    b = generate(GenSpec(kind="digraph", n=6, k=3, seed=9))
    c = generate(GenSpec(kind="digraph", n=6, k=3, seed=10))
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
    assert len(fingerprint(a)) == 12


def test_cover_and_trace_docs(star3):
    result = cover(star3)
    assert cover_to_doc(result.cover) == [[0, 1], [0, 2], [0, 3]]
    doc = trace_to_doc(result.trace)
    assert doc["alpha"] == 1
    assert doc["final_residual"] == [0, 3]
    assert doc["anchors"][0]["anchored_size"] == 8
    json.dumps(doc)  # serializable


def test_emit_dot_each_kind():
    for kind, marker in [
        ("out_tree", "->"),
        ("digraph", "digraph"),
        ("hypergraph", "shape=box"),
        ("bpcc", "cluster"),
    ]:
        instance = generate(GenSpec(kind=kind, n=5, k=4, seed=3))
        text = emit_dot(instance)
        assert text.startswith("digraph")
        assert marker in text


def test_serialized_trees_keep_null_root():
    inst = CtInstance(SizedOutTree([None, 0], [1, 1]), 3)
    text = dumps_instance(inst)
    assert "null" in text
    assert loads_instance(text) == inst


# ---------------------------------------------------------------------------
# fuzzing the document parser

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def _documents(draw):
    """The document of a small generated instance, then up to two edits: a
    field dropped, a field replaced by any JSON, or one list entry replaced
    by a small int or any JSON."""
    spec = GenSpec(
        kind=draw(st.sampled_from(KINDS)),
        n=draw(st.integers(1, 6)),
        k=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 1000)),
    )
    doc = instance_to_doc(generate(spec))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc)))
        how = draw(st.sampled_from(["drop", "replace", "entry"]))
        if how == "drop":
            del doc[key]
        elif how == "replace" or not isinstance(doc[key], list) or not doc[key]:
            doc[key] = draw(_json_values)
        else:
            i = draw(st.integers(0, len(doc[key]) - 1))
            doc[key][i] = draw(st.integers(-1, 6) | _json_values)
        if not doc:
            break
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(_documents().map(json.dumps), _json_values.map(json.dumps), st.text(max_size=12)))
def test_loads_instance_raises_only_input_errors(text):
    """Any text is an instance or an ``InputError``.  An accepted document
    serializes to canonical bytes that parse back to the same instance and
    serialize again byte for byte, and a tree document then solves or is
    infeasible."""
    try:
        instance = loads_instance(text)
    except InputError:
        return
    canonical = dumps_instance(instance)
    assert loads_instance(canonical) == instance
    assert dumps_instance(loads_instance(canonical)) == canonical
    assert json.loads(canonical) == instance_to_doc(instance)
    if isinstance(instance, CtInstance):
        try:
            result = cover(instance)
        except InfeasibleInstance:
            return
        assert validate_cover(instance, result.cover) is None


# ---------------------------------------------------------------------------
# instance files against json's own indenting encoder


def _json_reference(instance) -> str:
    return json.dumps(instance_to_doc(instance), sort_keys=True, indent=1) + "\n"


def _file_corpus():
    """Every generator kind on a seeded grid, every reduction target, a
    degree-augment target past 10^4 vertices, and the edge cases: a 1-vertex
    tree, an edgeless digraph, a star with no items, values at 2^64 and up."""
    for kind in KINDS:
        for seed in range(300):
            yield generate(GenSpec(kind=kind, n=1 + seed % 13, k=1 + seed % 7, seed=seed))
    for seed in range(40):
        spec = dict(n=2 + seed % 6, k=1 + seed % 4, seed=seed)
        digraph = generate(GenSpec(kind="digraph", **spec))
        yield bpcc_to_ct(generate(GenSpec(kind="bpcc", **spec))).target
        yield dksh_to_rcp(generate(GenSpec(kind="hypergraph", **spec))).target
        yield rcp_to_dksh(digraph).target
        yield dks_to_urcp(digraph.graph, spec["k"], 1 + seed % 2).target
        yield degree_augment(digraph).target
    big = degree_augment(generate(GenSpec(kind="dag", n=50, k=3, seed=1))).target
    assert big.graph.vertex_count >= 10**4
    yield big
    yield CtInstance(SizedOutTree([None], [0]), 1)
    yield CtInstance(SizedOutTree([None], [5]), 6)
    yield RcpInstance(Digraph(3, []), [0, 1, 2], 2)
    yield generate(GenSpec(kind="bp_star", n=4, k=3, seed=0, shape={"items": []}))
    yield DkshInstance(3, [], [], 1)
    huge = 2**64
    yield CtInstance(SizedOutTree([None, 0, 0], [huge, 1, huge + 7]), 2 * huge + 8)
    yield RcpInstance(Digraph(2, [(0, 1)]), [huge, 3**50], huge)
    yield DkshInstance(3, [[0, 2], [1]], [huge, 2**100], 2)
    yield BpccInstance([[0, 1], [2]], [huge, 0, huge - 1], 2**65)


def test_instance_files_match_the_json_reference():
    count = 0
    for instance in _file_corpus():
        assert dumps_instance(instance) == _json_reference(instance)
        count += 1
    assert count >= 2000


@pytest.mark.parametrize(
    "render, message",
    [(instance_to_doc, "cannot serialize object"), (emit_dot, "cannot render object")],
)
def test_an_object_that_is_no_instance_is_refused(render, message):
    with pytest.raises(InputError, match=rf"^{message}$"):
        render(object())
