"""Tests for repro.condor.dagfile."""

import pytest

from repro.condor.dagfile import DagDescription, DagNode, topological_order
from repro.condor.dagman import DagmanEngine
from repro.condor.jobs import JobPayload, JobSpec
from repro.errors import DagError


def spec(name, phase="A"):
    return JobSpec(name=name, payload=JobPayload(phase=phase))


def diamond():
    dag = DagDescription("diamond")
    for n in ("a", "b", "c", "d"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


def test_basic_structure():
    dag = diamond()
    assert len(dag) == 4
    assert dag.roots() == ["a"]
    assert dag.parents("d") == ["b", "c"]
    assert dag.children("a") == ["b", "c"]
    assert "a" in dag


def test_topological_order():
    order = diamond().topological_order()
    assert order.index("a") < order.index("b") < order.index("d")
    assert order.index("a") < order.index("c") < order.index("d")


def test_duplicate_node_rejected():
    dag = DagDescription()
    dag.add_job("x", spec("x"))
    with pytest.raises(DagError):
        dag.add_job("x", spec("x"))


def test_unknown_edge_endpoint_rejected():
    dag = DagDescription()
    dag.add_job("x", spec("x"))
    with pytest.raises(DagError):
        dag.add_edge("x", "nope")


def test_self_edge_rejected():
    dag = DagDescription()
    dag.add_job("x", spec("x"))
    with pytest.raises(DagError):
        dag.add_edge("x", "x")


def test_cycle_detected_with_check():
    # add_edge never checks for cycles; validate() is the one check.
    dag = DagDescription()
    dag.add_job("a", spec("a"))
    dag.add_job("b", spec("b"))
    dag.add_edge("a", "b")
    dag.validate()
    dag.add_edge("b", "a")  # the back edge is stored, not rejected
    assert dag.children("b") == ["a"]
    with pytest.raises(DagError, match="cycle"):
        dag.validate()


def test_cycle_detected_by_validate():
    dag = DagDescription()
    dag.add_job("a", spec("a"))
    dag.add_job("b", spec("b"))
    dag.add_edge("a", "b")
    dag.add_edge("b", "a")  # unchecked
    with pytest.raises(DagError):
        dag.validate()


def test_empty_dag_invalid():
    with pytest.raises(DagError):
        DagDescription().validate()


def test_add_edges_all_to_all():
    dag = DagDescription()
    for n in ("a1", "a2", "b", "c1", "c2"):
        dag.add_job(n, spec(n))
    dag.add_edges(["a1", "a2"], ["b"])
    dag.add_edges(["b"], ["c1", "c2"])
    assert dag.parents("b") == ["a1", "a2"]
    assert dag.children("b") == ["c1", "c2"]


def test_node_name_validation():
    with pytest.raises(DagError):
        DagNode(name="has space", spec=spec("x"))
    with pytest.raises(DagError):
        DagNode(name="x", spec=spec("x"), retries=-1)


def test_unknown_node_lookup():
    dag = diamond()
    with pytest.raises(DagError):
        dag.node("zzz")
    with pytest.raises(DagError):
        dag.parents("zzz")


def test_write_read_roundtrip(tmp_path):
    dag = diamond()
    dag._nodes["b"] = DagNode(name="b", spec=spec("b"), retries=2)
    dag_path = dag.write(tmp_path)
    back = DagDescription.read(dag_path)
    assert sorted(back.node_names) == sorted(dag.node_names)
    assert back.parents("d") == ["b", "c"]
    assert back.node("b").retries == 2
    assert back.node("a").spec.payload.phase == "A"


def test_read_missing_file(tmp_path):
    with pytest.raises(DagError):
        DagDescription.read(tmp_path / "nope.dag")


def test_read_bad_keyword(tmp_path):
    path = tmp_path / "bad.dag"
    path.write_text("FROB x y\n")
    with pytest.raises(DagError):
        DagDescription.read(path)


def test_read_parent_without_child(tmp_path):
    path = tmp_path / "bad.dag"
    (tmp_path / "a.sub").write_text("executable = x\nqueue\n")
    path.write_text("JOB a a.sub\nPARENT a\n")
    with pytest.raises(DagError):
        DagDescription.read(path)


def test_multi_parent_child_line(tmp_path):
    dag_path = tmp_path / "m.dag"
    for n in ("a", "b", "c"):
        (tmp_path / f"{n}.sub").write_text("executable = x\nqueue\n")
    dag_path.write_text("JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nPARENT a b CHILD c\n")
    dag = DagDescription.read(dag_path)
    assert dag.parents("c") == ["a", "b"]


def test_topological_order_disconnected_multi_root():
    # Two independent components: (a -> b) and (x -> y), plus a lone node.
    dag = DagDescription("forest")
    for n in ("a", "b", "x", "y", "lone"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "b")
    dag.add_edge("x", "y")
    order = dag.topological_order()
    assert sorted(order) == ["a", "b", "lone", "x", "y"]
    assert order.index("a") < order.index("b")
    assert order.index("x") < order.index("y")
    assert sorted(dag.roots()) == ["a", "lone", "x"]


def test_topological_order_on_cycle_raises_dag_error():
    dag = DagDescription("loop")
    for n in ("a", "b", "c"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "b")
    dag.add_edge("b", "c")
    dag.add_edge("c", "a")  # no per-edge check: the cycle lands silently
    with pytest.raises(DagError, match="cycle"):
        dag.topological_order()


def _run_to_completion(dag):
    engine = DagmanEngine(dag)
    while not engine.is_complete:
        batch = engine.pull_submissions(0)
        assert batch, "engine stalled"
        for name in batch:
            engine.on_node_result(name, True)
    return engine


def test_repeated_add_edge_is_one_edge(tmp_path):
    dag = DagDescription("twice")
    for n in ("a", "b"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "b")
    dag.add_edge("a", "b")
    assert dag.parents("b") == ["a"]
    assert dag.children("a") == ["b"]
    assert dag.write(tmp_path).read_text().count("PARENT a CHILD b") == 1
    assert _run_to_completion(dag).is_complete


def test_repeated_parent_line_is_one_edge(tmp_path):
    for n in ("a", "b"):
        (tmp_path / f"{n}.sub").write_text("executable = x\nqueue\n")
    path = tmp_path / "twice.dag"
    path.write_text(
        "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT a CHILD b\n"
    )
    dag = DagDescription.read(path)
    assert dag.parents("b") == ["a"]
    assert dag.children("a") == ["b"]
    out = dag.write(tmp_path / "out").read_text()
    assert out.count("PARENT a CHILD b") == 1
    assert _run_to_completion(dag).is_complete


def test_parent_lines_follow_edge_insertion_order(tmp_path):
    # Nodes in insertion order, then each node's children in the order
    # their edges were added -- not sorted.
    dag = DagDescription("order")
    for n in ("r", "z", "m", "a"):
        dag.add_job(n, spec(n))
    dag.add_edge("z", "a")
    dag.add_edge("r", "z")
    dag.add_edge("r", "m")
    dag.add_edge("z", "m")
    parent_lines = [
        line
        for line in dag.write(tmp_path).read_text().splitlines()
        if line.startswith("PARENT")
    ]
    assert parent_lines == [
        "PARENT r CHILD z",
        "PARENT r CHILD m",
        "PARENT z CHILD a",
        "PARENT z CHILD m",
    ]


def test_topological_order_is_breadth_first_by_generation():
    children = {"d": [], "b": ["d"], "a": ["b", "c"], "c": ["d"], "e": []}
    assert topological_order(children) == ["a", "e", "b", "c", "d"]


def test_topological_order_stops_short_on_a_cycle():
    children = {"a": ["b"], "b": ["c"], "c": ["b", "d"], "d": [], "e": []}
    assert topological_order(children) == ["a", "e"]


def test_engine_releases_roots_in_insertion_order():
    dag = DagDescription("roots")
    for n in ("z", "child", "a", "m"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "child")
    assert DagmanEngine(dag).pull_submissions(0) == ["z", "a", "m"]
