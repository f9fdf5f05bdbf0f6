"""The benchmark's own tests, at a small size: the checker rejects mutated
answers, relabelling keeps the answers, and the metric tables agree with
BENCHMARK.json.

    python3 -m pytest bench
"""

import json
import os
import random
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import WrongAnswer  # noqa: E402
from ryserplanes import files, hypergraph  # noqa: E402


@pytest.fixture(scope="module")
def verify_ops(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("verify"))
    h, meta = workloads.instance("h1(3,2)")
    path = os.path.join(d, "h1_3_2.json")
    files.save_hypergraph(path, h, meta)
    return path, workloads.verify_op("h1(3,2)", path, 2, 6)


def test_verify_check_accepts_the_true_verdict(verify_ops):
    _, op = verify_ops
    assert op.check(op.call({})) == workloads.DECIDED


def test_verify_check_rejects_a_wrong_tau(tmp_path):
    h, meta = workloads.instance("h1(3,2)")
    path = str(tmp_path / "h.json")
    files.save_hypergraph(path, h, meta)
    op = workloads.verify_op("h1(3,2)", path, 2, 7)
    with pytest.raises(WrongAnswer):
        op.check(op.call({}))


def test_verify_check_rejects_a_cover_that_misses_an_edge(verify_ops):
    path, op = verify_ops
    code, out, err = op.call({})
    cert = path[: -len(".json")] + ".cert.json"
    with open(cert) as f:
        c = json.load(f)
    c["witness"]["cover"][-1] = c["witness"]["cover"][0]  # same size claim, one vertex lost
    with open(cert, "w") as f:
        json.dump(c, f)
    with pytest.raises(WrongAnswer):
        op.check((code, out, err))


def test_cover_and_matching_checks():
    edges = [[0, 1], [2, 3], [1, 2]]
    checks.check_cover(edges, [1, 2], 2)
    checks.check_matching(edges, [0, 1], 2)
    with pytest.raises(WrongAnswer):
        checks.check_cover(edges, [0, 3], 2)  # misses [1, 2]
    with pytest.raises(WrongAnswer):
        checks.check_matching(edges, [0, 2], 2)  # overlap at vertex 1


def test_oracle_check_rejects_a_wrong_count():
    op = workloads.oracle_op("blocking", 2, 3, 7)
    result = op.call({})
    assert op.check(result) == workloads.DECIDED
    wrong = workloads.oracle_op("blocking", 2, 3, 8)
    with pytest.raises(WrongAnswer):
        wrong.check(result)


def test_kernel_pair_check_rejects_a_shared_vertex():
    r = 3
    # two triangles' worth of pairwise-intersecting triples, tau = 2 each
    a = [[0, 3, 6], [0, 4, 7], [1, 3, 7], [1, 4, 6]]
    shifted = [[x + 10 for x in e] for e in a]
    checks.check_kernel_pair(r, a + shifted, [0, 1, 2, 3], [4, 5, 6, 7])
    b = [[0 if x == 10 else x for x in e] for e in shifted]  # the copies now share vertex 0
    with pytest.raises(WrongAnswer):
        checks.check_kernel_pair(r, a + b, [0, 1, 2, 3], [4, 5, 6, 7])


@pytest.mark.parametrize("name", ["g1", "h1(3,2)", "h2(4,2)", "TC(5)"])
def test_relabelling_keeps_nu_tau_and_decompose(name):
    h, meta = workloads.instance(name)
    want = hypergraph.is_ryser(h).value
    pair = workloads.decompose.find_disjoint_ryser_pair(h).outcome
    for seed in (1, 2):
        d = checks.relabel(files.hypergraph_to_dict(h, meta), workloads.relabel_rng(seed, name))
        copy, _ = files.hypergraph_from_dict(d)
        assert d["edges"] != files.hypergraph_to_dict(h)["edges"]
        got = hypergraph.is_ryser(copy).value
        assert (got["nu"], got["tau"]) == (want["nu"], want["tau"])
        assert workloads.decompose.find_disjoint_ryser_pair(copy).outcome == pair


def test_brute_force_agrees_with_the_library_on_random_instances():
    rng = random.Random(7)
    for _ in range(20):
        r, per_side = rng.randrange(2, 5), rng.randrange(2, 5)
        d = checks.random_instance(rng, r, per_side, min(rng.randrange(1, 11), per_side ** r))
        h, _ = files.hypergraph_from_dict(d)
        assert checks.brute_disjoint_pair(d["r"], d["edges"]) == workloads.decompose.brute_force_disjoint_pair(h)


def test_same_seed_same_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.setup_decompose(str(tmp_path / "a"), 3)
    b = workloads.setup_decompose(str(tmp_path / "b"), 3)
    assert [op.name for op in a] == [op.name for op in b]
    for f in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_scaled_pass_reads_the_host_speed_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    (row,) = workloads.run_pass([workloads.oracle_op("blocking", 2, 3, 7)], scaled=True)
    assert signal.getsignal(signal.SIGALRM) is before
    assert row[2] == workloads.DECIDED and row[1] > 0 and row[4] > 0


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
