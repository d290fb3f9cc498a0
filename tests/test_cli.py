"""Driver layer: run specs, partitioning, orchestration, exit codes.

Process-mode tests spawn real child interpreters over localhost TCP, so
they keep the training configuration tiny.
"""

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secregress
from secregress import cli, orchestration
from secregress.data import load_csv
from secregress.errors import (
    HashMismatch,
    PartyCrashed,
    SpecHashMismatch,
    TooFewColumns,
    TooFewRows,
    TripleExhausted,
)
from secregress.protocols import product_plan
from secregress.protocols.base import _EngineBase
from secregress.smm import triple_halves
from secregress.spec import RUNSPEC_SCHEMA, SCHEMA_KEYWORDS, check_schema
from secregress.transport import loopback_sessions

from comm_model import fold_frames, fold_rounds, round_stride
from oracles import record

BASE_SPEC = {
    "task": "LiRe",
    "scheme": "horizontal",
    "smm_variant": "TI",
    "parties": 2,
    "folds": 2,
    "dataset": {"kind": "synthetic-linear", "m": 36, "d": 3, "seed": 5},
    "config": {"learning_rate": 0.1, "batch_size": 4, "iterations": 10,
               "seed": "cli-test"},
}


def spec_dict(**over) -> dict:
    raw = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in BASE_SPEC.items()}
    raw.update(over)
    return raw


# -- run spec validation -----------------------------------------------------

def test_spec_accepts_variant_aliases():
    assert cli.RunSpec.from_dict(spec_dict()).smm_variant == "smm1"
    assert (cli.RunSpec.from_dict(spec_dict(smm_variant="OTI")).smm_variant
            == "smm2")
    assert (cli.RunSpec.from_dict(spec_dict(smm_variant="smm2")).smm_variant
            == "smm2")


@pytest.mark.parametrize("mangle", [
    {"task": "ridge"},
    {"scheme": "diagonal"},
    {"parties": 1},
    {"folds": 1},
    {"dataset": {"kind": "synthetic-linear", "m": 36}},
    {"config": {"learning_rate": -0.5}},
    {"config": {"nonsense": 1}},
    {"config": {"frac_bits": 26}},
    {"config": {"sigmoid_coeffs": [0.5, 0.25, 0.0, -0.02]}},
    # an integer is a JSON integer: an integral float is not one
    {"parties": 2.0},
    {"folds": 2.0},
    {"dataset": {"kind": "synthetic-linear", "m": 40.0, "d": 3, "seed": 5}},
    {"partition": {"ratios": [1.0, 2]}},
])
def test_spec_schema_rejects(mangle):
    with pytest.raises(cli.ConfigFileError):
        cli.RunSpec.from_dict(spec_dict(**mangle))


# Every property RUNSPEC_SCHEMA names, so mutations can reach each rule.
FULL_SPEC = {
    "task": "LoRe", "scheme": "vertical", "smm_variant": "OTI",
    "sigmoid": "poly", "parties": 3, "folds": 2,
    "config": {"learning_rate": 0.5, "batch_size": 4, "iterations": 10,
               "seed": 7, "owner_policy": "random", "label_party": 0},
    "dataset": {"kind": "csv", "m": 36, "d": 3, "seed": "s",
                "path": "data.csv", "label_column": "y", "subsample": 8,
                "sha256": "ab"},
    "partition": {"ratios": [1, 2, 1]},
    "roster": ["127.0.0.1:9001", "h:9002", "h:9003"],
    "output": "out",
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.sampled_from([0.0, 1.0, 2.0, 1.5, -0.5]) | st.floats()
    | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


def _keywords(schema):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    if "items" in schema:
        yield from _keywords(schema["items"])


def _nodes(doc, path=()):
    """(path, value) of doc and of everything inside it."""
    yield path, doc
    inner = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in inner:
        yield from _nodes(value, (*path, key))


def _schema_at(path):
    schema = RUNSPEC_SCHEMA
    for key in path:
        schema = (schema.get("items", {}) if isinstance(key, int)
                  else schema.get("properties", {}).get(key, {}))
    return schema


def _strict_jsonschema():
    """jsonschema's Draft 2020-12 validator with an int-only integer."""
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool))
    return jsonschema.validators.extend(base, type_checker=checker)(
        RUNSPEC_SCHEMA)


def test_schema_uses_only_checked_keywords():
    assert set(_keywords(RUNSPEC_SCHEMA)) <= SCHEMA_KEYWORDS
    check_schema(FULL_SPEC, RUNSPEC_SCHEMA)
    assert not list(_strict_jsonschema().iter_errors(FULL_SPEC))


def _near_misses(schema):
    """Values just outside what schema accepts: a bool or an integral
    float where an integer is due, another JSON type, each bound stepped
    past, and roster entries that break the pattern."""
    out = [True, False, 2.0, 8.0, "2", None, []]
    out += [schema[k] + d for k in ("minimum", "maximum") if k in schema
            for d in (-1, -0.5, 0, 1)]
    if "pattern" in schema:
        out += ["host", "h:", ":9", "h:9x", "h:1\n", "a:b:12", ""]
    return out


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _assert_check_agrees_with_jsonschema(doc):
    """The in-tree check rejects doc exactly when jsonschema (with a
    strict integer) does, at a place jsonschema reports too."""
    expected = {"/".join(str(p) for p in e.absolute_path) or "(top level)"
                for e in _strict_jsonschema().iter_errors(doc)}
    try:
        check_schema(doc, RUNSPEC_SCHEMA)
    except cli.ConfigFileError as e:
        where = str(e).removeprefix("spec invalid at ").split(": ", 1)[0]
        assert where in expected, (doc, str(e), expected)
    else:
        assert not expected, (doc, expected)


def test_schema_check_agrees_with_jsonschema_on_each_near_miss():
    for path, _ in list(_nodes(FULL_SPEC))[1:]:
        for value in _near_misses(_schema_at(path)):
            doc = json.loads(json.dumps(FULL_SPEC))
            _put(doc, path, value)
            _assert_check_agrees_with_jsonschema(doc)


def _mutate(data, doc):
    """Apply one drawn mutation to doc in place."""
    how = data.draw(st.sampled_from(
        ["drop", "add", "retype", "near", "shorten"]))
    wants = {
        "drop": lambda p, v: isinstance(v, dict) and v,
        "add": lambda p, v: isinstance(v, dict),
        "retype": lambda p, v: p,
        "near": lambda p, v: p,
        "shorten": lambda p, v: isinstance(v, list),
    }[how]
    targets = [(p, v) for p, v in _nodes(doc) if wants(p, v)]
    if not targets:
        return
    path, node = data.draw(st.sampled_from(targets))
    if how == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif how == "add":
        node[data.draw(st.text(max_size=8))] = data.draw(JSON_VALUES)
    elif how == "shorten":
        del node[data.draw(st.integers(0, len(node))):]
    elif how == "retype":
        _put(doc, path, data.draw(JSON_VALUES))
    else:
        _put(doc, path,
             data.draw(st.sampled_from(_near_misses(_schema_at(path)))))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_schema_check_agrees_with_jsonschema(data):
    doc = json.loads(json.dumps(FULL_SPEC))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    _assert_check_agrees_with_jsonschema(doc)


def test_cli_imports_nothing_beyond_numpy_and_the_stdlib():
    code = ("import sys; before = set(sys.modules); import secregress.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    src = os.path.dirname(os.path.dirname(secregress.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert set(out.split()) - sys.stdlib_module_names == {"secregress",
                                                         "numpy"}


def test_spec_semantic_rejects():
    raw = spec_dict()
    del raw["smm_variant"]
    with pytest.raises(cli.ConfigFileError, match="smm_variant"):
        cli.RunSpec.from_dict(raw)
    plain = spec_dict(scheme="plaintext")
    with pytest.raises(cli.ConfigFileError, match="plaintext"):
        cli.RunSpec.from_dict(plain)
    with pytest.raises(cli.ConfigFileError, match="sigmoid"):
        cli.RunSpec.from_dict(spec_dict(task="LoRe", sigmoid="true",
                                        dataset={"kind": "synthetic-logistic",
                                                 "m": 36, "d": 3, "seed": 5}))
    with pytest.raises(cli.ConfigFileError, match="label_party"):
        cli.RunSpec.from_dict(spec_dict(
            scheme="vertical",
            config=dict(BASE_SPEC["config"], label_party=2)))
    with pytest.raises(cli.ConfigFileError, match="ratios"):
        cli.RunSpec.from_dict(spec_dict(partition={"ratios": [1, 1, 1]}))
    for port in ("0", "65536", "99999"):
        with pytest.raises(cli.ConfigFileError, match="port"):
            cli.RunSpec.from_dict(spec_dict(
                roster=["127.0.0.1:9001", f"127.0.0.1:{port}"]))


def test_spec_task_dataset_pairing():
    with pytest.raises(cli.ConfigFileError, match="pairs with"):
        cli.RunSpec.from_dict(spec_dict(task="LoRe"))


def test_spec_hash_ignores_launch_plumbing():
    a = cli.RunSpec.from_dict(spec_dict())
    b = cli.RunSpec.from_dict(spec_dict(roster=["127.0.0.1:9001",
                                                "127.0.0.1:9002"],
                                        output="/tmp/somewhere"))
    assert a.spec_hash() == b.spec_hash()
    c = cli.RunSpec.from_dict(spec_dict(
        config=dict(BASE_SPEC["config"], iterations=11)))
    assert a.spec_hash() != c.spec_hash()


def test_spec_round_trips_through_to_dict():
    spec = cli.RunSpec.from_dict(spec_dict(
        partition={"ratios": [2, 1]},
        roster=["127.0.0.1:9001", "127.0.0.1:9002"],
        output="/tmp/x"))
    again = cli.RunSpec.from_dict(spec.to_dict())
    assert again.spec_hash() == spec.spec_hash()
    assert again.roster == spec.roster
    assert again.partition_ratios == (2, 1)


def test_model_names():
    assert cli.RunSpec.from_dict(spec_dict()).model_name() == "Sec-LiRe-TI-H"
    raw = spec_dict(task="LoRe", scheme="vertical", smm_variant="OTI",
                    dataset={"kind": "synthetic-logistic", "m": 36, "d": 3,
                             "seed": 5})
    assert cli.RunSpec.from_dict(raw).model_name() == "Sec-LoRe-OTI-V"
    plain = spec_dict(scheme="plaintext")
    del plain["smm_variant"]
    assert cli.RunSpec.from_dict(plain).model_name() == "LiRe"
    plain = dict(plain, task="LoRe", sigmoid="true",
                 dataset={"kind": "synthetic-logistic", "m": 36, "d": 3,
                          "seed": 5})
    assert cli.RunSpec.from_dict(plain).model_name() == "LoRe-true"


# -- partitioning ------------------------------------------------------------

def test_partition_equal_and_ratio_bounds():
    p = cli.partition(100, 6, "horizontal", 2)
    assert p.bounds == (0, 50, 100)
    p = cli.partition(100, 6, "horizontal", 3)
    assert p.bounds == (0, 33, 67, 100)
    p = cli.partition(10, 5, "vertical", 2, ratios=[3, 2])
    assert p.bounds == (0, 3, 5)
    spans = [p.span(i) for i in range(p.n_parties)]
    assert spans == [(0, 3), (3, 5)]


def test_partition_too_few_axes():
    with pytest.raises(TooFewColumns):
        cli.partition(40, 2, "vertical", 3)
    with pytest.raises(TooFewRows):
        cli.partition(1, 4, "horizontal", 2)


def test_partition_cli_round_trip(tmp_path):
    """Slices written by the partition verb reassemble into the source."""
    rng = np.random.default_rng(1)
    X = np.round(rng.uniform(0, 1, (20, 4)), 6)
    y = np.round(rng.uniform(0, 1, 20), 6)
    src = tmp_path / "data.csv"
    with open(src, "w") as fh:
        fh.write("a,b,c,d,label\n")
        for i in range(20):
            fh.write(",".join(repr(float(v)) for v in X[i])
                     + f",{float(y[i])!r}\n")

    out_h = tmp_path / "h"
    rc = cli.main(["partition", "--csv", str(src), "--label", "label",
                   "--scheme", "horizontal", "--parties", "2",
                   "--out", str(out_h)])
    assert rc == 0
    xs, ys = [], []
    for i in range(2):
        Xi, yi, names = load_csv(str(out_h / f"party{i}.csv"), "label")
        assert names == ["a", "b", "c", "d"]
        xs.append(np.asarray(Xi))
        ys.append(np.asarray(yi))
    assert np.array_equal(np.vstack(xs), X)
    assert np.array_equal(np.concatenate(ys), y)

    out_v = tmp_path / "v"
    rc = cli.main(["partition", "--csv", str(src), "--label", "label",
                   "--scheme", "vertical", "--parties", "2",
                   "--ratio", "3:1", "--label-party", "1",
                   "--out", str(out_v)])
    assert rc == 0
    # party 0 carries no label column, so inspect the raw header
    with open(out_v / "party0.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["a", "b", "c"]
    X1, y1, names1 = load_csv(str(out_v / "party1.csv"), "label")
    assert names1 == ["d"]
    assert np.array_equal(np.asarray(y1), y)
    meta = json.loads((out_v / "partition.json").read_text())
    assert meta["bounds"] == [0, 3, 4]
    assert meta["label_party"] == 1


@pytest.mark.parametrize("label_party", ["5", "-1"])
def test_partition_cli_label_party_out_of_range(tmp_path, label_party):
    # no slice could hold the label column: refused before anything is
    # written
    src = tmp_path / "data.csv"
    src.write_text("a,b,label\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    out = tmp_path / "v"
    rc = cli.main(["partition", "--csv", str(src), "--label", "label",
                   "--scheme", "vertical", "--parties", "2",
                   "--label-party", label_party, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["-1:2", "0:0"])
def test_partition_cli_rejects_ratio_below_one(tmp_path, ratio):
    src = tmp_path / "data.csv"
    src.write_text("a,label\n" + "".join(f"{i}.0,{i}.0\n" for i in range(6)))
    out = tmp_path / "h"
    rc = cli.main(["partition", "--csv", str(src), "--label", "label",
                   "--scheme", "horizontal", "--parties", "2",
                   f"--ratio={ratio}", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_partition_cli_too_few_columns_exit_code(tmp_path):
    src = tmp_path / "narrow.csv"
    src.write_text("a,label\n1.0,2.0\n3.0,4.0\n")
    rc = cli.main(["partition", "--csv", str(src), "--label", "label",
                   "--scheme", "vertical", "--parties", "3",
                   "--out", str(tmp_path / "x")])
    assert rc == 2


# -- datasets ----------------------------------------------------------------

def test_load_dataset_csv_subsample_and_pin(tmp_path):
    src = tmp_path / "d.csv"
    rows = list(range(40))
    with open(src, "w") as fh:
        fh.write("a,b,label\n")
        for i in rows:
            fh.write(f"{i}.0,{i % 7}.0,{i * 2}.0\n")
    raw = spec_dict(dataset={"kind": "csv", "path": str(src),
                             "label_column": "label", "subsample": 16,
                             "seed": 1})
    spec = cli.RunSpec.from_dict(raw)
    X, y, desc = cli.load_dataset(spec)
    assert X.shape == (16, 2)
    assert "sha256" in desc
    # same seed, same subset
    X2, _, _ = cli.load_dataset(spec)
    assert np.array_equal(X, X2)

    pinned = dict(raw["dataset"], sha256="0" * 64)
    bad = cli.RunSpec.from_dict(spec_dict(dataset=pinned))
    with pytest.raises(SpecHashMismatch):
        cli.load_dataset(bad)


# -- end to end, thread mode -------------------------------------------------

def test_run_thread_mode_secure_vs_replay():
    spec = cli.RunSpec.from_dict(spec_dict())
    row, manifests, timings = cli.run(spec, mode="threads")
    assert row["model"] == "Sec-LiRe-TI-H"
    assert len(row["fold_values"]) == 2
    assert abs(row["mean"] - row["plain_replay_mean"]) < 1e-4
    assert len(manifests) == 2
    for m in manifests:
        assert m["spec_hash"] == spec.spec_hash()
        assert m["offline_provisioning"] is True
        assert len(m["folds"]) == 2
    # horizontal runs reconstruct one shared model
    assert (manifests[0]["folds"][0]["model_hash"]
            == manifests[1]["folds"][0]["model_hash"])


def test_run_is_deterministic_across_repeats():
    spec = cli.RunSpec.from_dict(spec_dict(smm_variant="OTI"))
    row_a, man_a, _ = cli.run(spec, mode="threads")
    row_b, man_b, _ = cli.run(spec, mode="threads")
    assert json.dumps(man_a, sort_keys=True) == json.dumps(man_b,
                                                           sort_keys=True)
    assert row_a == row_b


@pytest.mark.parametrize("variant", ["TI", "OTI"])
def test_timings_record_each_folds_offline_seconds(variant, monkeypatch):
    # a TI engine sums the thread CPU time it spends drawing triple halves;
    # an OTI engine draws none and reads no such clock
    if variant == "OTI":
        def no_clock():
            raise AssertionError("an OTI run read the dealer's clock")
        monkeypatch.setattr(time, "thread_time", no_clock)
    spec = cli.RunSpec.from_dict(spec_dict(smm_variant=variant))
    _row, manifests, timings = cli.run(spec, mode="threads")
    for t in timings:
        assert len(t["folds"]) == 2
        for fold in t["folds"]:
            if variant == "TI":
                assert 0 < fold["offline_seconds"] < fold["wall_seconds"]
            else:
                assert fold["offline_seconds"] == 0.0
    assert not any("offline_seconds" in f
                   for m in manifests for f in m["folds"])


def test_run_plaintext_row():
    raw = spec_dict(scheme="plaintext")
    del raw["smm_variant"]
    row, manifests, _ = cli.run(cli.RunSpec.from_dict(raw))
    assert row["model"] == "LiRe"
    assert "plain_replay_mean" not in row
    assert manifests[0]["n_parties"] == 1


def test_verify_manifests_flags_divergence():
    spec = cli.RunSpec.from_dict(spec_dict())
    _, manifests, _ = cli.run(spec, mode="threads")
    doctored = json.loads(json.dumps(manifests))
    doctored[1]["folds"][1]["model_hash"] = "f" * 64
    with pytest.raises(HashMismatch, match="fold 1"):
        orchestration._verify_manifests(spec, doctored)
    doctored = json.loads(json.dumps(manifests))
    doctored[0]["spec_hash"] = "e" * 64
    with pytest.raises(SpecHashMismatch):
        orchestration._verify_manifests(spec, doctored)


# -- process mode ------------------------------------------------------------

def test_process_mode_matches_thread_mode_bitwise(tmp_path):
    """Same spec over loopback threads and over real localhost TCP
    children must leave byte-identical manifests."""
    raw = spec_dict(parties=3, dataset={"kind": "synthetic-linear",
                                        "m": 30, "d": 3, "seed": 9})
    spec_t = cli.RunSpec.from_dict(raw)
    _, man_t, _ = cli.run(spec_t, mode="threads")
    spec_p = cli.RunSpec.from_dict(dict(raw, output=str(tmp_path / "o")))
    _, man_p, _ = cli.run(spec_p, mode="processes")
    dump = lambda m: json.dumps(m, sort_keys=True, indent=2)
    assert [dump(m) for m in man_t] == [dump(m) for m in man_p]
    # children persisted the same bytes the orchestrator would write
    on_disk = json.loads((tmp_path / "o" / "party1" /
                          "manifest.json").read_text())
    assert dump(on_disk) == dump(man_t[1])


def test_process_mode_runs_from_an_uninstalled_checkout(tmp_path,
                                                        monkeypatch):
    """Children find the package where the orchestrator found it, with no
    PYTHONPATH and a working directory outside the checkout."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    spec = cli.RunSpec.from_dict(spec_dict(output=str(tmp_path / "o")))
    procs, _ = cli.spawn_parties(spec, mode="processes", timeout=60.0)
    threads, _ = cli.spawn_parties(cli.RunSpec.from_dict(spec_dict()),
                                   mode="threads")
    assert procs == threads


def test_process_mode_party_crash(tmp_path):
    """A party that cannot come up fails the whole run with diagnostics."""
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        other = orchestration._free_ports(1)[0]
        raw = spec_dict(roster=[other, f"127.0.0.1:{port}"],
                        output=str(tmp_path / "o"))
        spec = cli.RunSpec.from_dict(raw)
        with pytest.raises(PartyCrashed):
            cli.spawn_parties(spec, mode="processes", timeout=60.0)
    finally:
        blocker.close()


def test_killed_child_exits_nonzero(tmp_path):
    """SIGKILL one party mid-run; the surviving party must exit nonzero
    rather than hang or report success."""
    roster = orchestration._free_ports(2)
    # long enough that the kill lands mid-run: 2000 iterations per fold
    # finished inside the 2 s sleep on a fast machine
    raw = spec_dict(roster=roster, output=str(tmp_path / "o"),
                    config=dict(BASE_SPEC["config"], iterations=50_000))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ)
    procs = [subprocess.Popen(
        [sys.executable, "-m", "secregress", "train", "--spec", str(path),
         "--party", str(i)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        for i in range(2)]
    try:
        time.sleep(2.0)
        assert [p.poll() for p in procs] == [None, None], \
            "a party ended before the kill"
        procs[1].send_signal(signal.SIGKILL)
        assert procs[1].wait(timeout=30) != 0
        assert procs[0].wait(timeout=60) != 0
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


# -- exit codes through main -------------------------------------------------

def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["train", "--spec", str(bad)]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(spec_dict(task="ridge")))
    assert cli.main(["train", "--spec", str(invalid)]) == 2

    missing = tmp_path / "missing.json"
    assert cli.main(["train", "--spec", str(missing)]) == 2
    capsys.readouterr()

    # the fixed-point format is not a spec setting
    f26 = tmp_path / "f26.json"
    f26.write_text(json.dumps(spec_dict(
        scheme="vertical", smm_variant="OTI",
        dataset={"kind": "synthetic-linear", "m": 400, "d": 8, "seed": 3},
        config={"learning_rate": 0.1, "batch_size": 100, "iterations": 20,
                "seed": 5, "frac_bits": 26},
        output=str(tmp_path / "o"))))
    assert cli.main(["train", "--spec", str(f26), "--mode", "processes"]) == 2
    assert "frac_bits" in capsys.readouterr().err


def test_float_count_exits_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict(parties=2.0)))
    assert cli.main(["train", "--spec", str(path)]) == 2
    assert "spec invalid at parties" in capsys.readouterr().err


def test_unservable_batch_exits_2_in_both_modes(tmp_path, capsys):
    # 16 rows over 2 folds leave 4 training rows per party, so no party
    # can serve a batch of 12; each child finds that out on its own
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict(
        dataset={"kind": "synthetic-linear", "m": 16, "d": 3, "seed": 5},
        config=dict(BASE_SPEC["config"], batch_size=12),
        output=str(tmp_path / "o"))))
    for mode in ("threads", "processes"):
        assert cli.main(["train", "--spec", str(path), "--mode", mode]) == 2
        assert "no party holds 12 rows" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["threads", "processes"])
@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1000001"])
def test_bad_timeout_exits_2_before_any_party_starts(tmp_path, capsys,
                                                     monkeypatch, mode,
                                                     timeout):
    started = []
    monkeypatch.setattr(subprocess, "Popen",
                        lambda *a, **k: started.append(a))
    monkeypatch.setattr(cli, "run", lambda *a, **k: started.append(a))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict(output=str(tmp_path / "o"))))
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--spec", str(path), "--mode", mode,
                  "--timeout", timeout])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err
    assert started == []


def test_main_protocol_failure_exit_code(tmp_path, capsys):
    # one lone party: party 0 dials a roster nobody serves, party 1
    # listens for a peer that never dials
    roster = orchestration._free_ports(2)
    raw = spec_dict(roster=roster, output=str(tmp_path / "o"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    for party, timeout in (("0", "4"), ("1", "2")):
        rc = cli.main(["train", "--spec", str(path), "--party", party,
                       "--timeout", timeout])
        assert rc == 3
        err = capsys.readouterr().err
        assert "protocol failure" in err and "ConnectTimeout" in err


def test_main_equivalence_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(spec, mode="threads", timeout=300.0):
        raise HashMismatch("models diverged")
    monkeypatch.setattr(cli, "run", boom)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict()))
    assert cli.main(["train", "--spec", str(path)]) == 4
    assert "equivalence" in capsys.readouterr().err


@pytest.mark.parametrize("task, scheme, variant, lr, rc, says", [
    ("LiRe", "horizontal", "TI", 2, 0, None),
    ("LiRe", "horizontal", "TI", 3, 5, "fold 0: secure rmse"),
    ("LiRe", "horizontal", "TI", 8, 5, "fold 0: secure rmse"),
    ("LoRe", "vertical", "OTI", 8, 5, "fold 1: the plaintext replay "
                                      "diverged"),
])
def test_a_model_that_left_its_replay_exits_5(tmp_path, capsys, task,
                                              scheme, variant, lr, rc,
                                              says):
    # at these learning rates the float replay diverges and the secure
    # weights wrap in the ring: a wrong model, not a protocol failure
    kind = "synthetic-linear" if task == "LiRe" else "synthetic-logistic"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict(
        task=task, scheme=scheme, smm_variant=variant,
        dataset={"kind": kind, "m": 64, "d": 4, "seed": 3},
        config={"learning_rate": lr, "batch_size": 8, "iterations": 40,
                "seed": "5"})))
    assert cli.main(["train", "--spec", str(path)]) == rc
    err = capsys.readouterr().err
    if says is None:
        assert err == ""
    else:
        assert err.startswith("replay check failed: " + says)
        assert f"learning rate {lr}" in err


@pytest.mark.parametrize("lr, rc", [(1, 0), (64, 5)])
def test_a_diverged_plaintext_run_exits_5(tmp_path, capsys, lr, rc):
    # at learning rate 64 the logistic reference overflows in fold 0
    raw = spec_dict(
        task="LoRe", scheme="plaintext",
        dataset={"kind": "synthetic-logistic", "m": 64, "d": 4, "seed": 3},
        config={"learning_rate": lr, "batch_size": 8, "iterations": 40,
                "seed": "5"})
    del raw["smm_variant"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["train", "--spec", str(path)]) == rc
    err = capsys.readouterr().err
    if rc == 0:
        assert err == ""
    else:
        assert err.startswith("replay check failed: fold 0: the plaintext "
                              "model diverged at learning rate 64")


def test_main_plaintext_train_verb(tmp_path, capsys):
    raw = spec_dict(scheme="plaintext")
    del raw["smm_variant"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["train", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "LiRe" in out and "rmse" in out


# -- report ------------------------------------------------------------------

def test_report_table_covers_all_models(tmp_path, capsys):
    rc = cli.main(["report", "--task", "LiRe", "--rows", "24",
                   "--features", "3", "--folds", "2", "--iterations", "6",
                   "--batch-size", "4", "--seed", "rpt",
                   "--out", str(tmp_path / "rpt")])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("LiRe", "Sec-LiRe-TI-H", "Sec-LiRe-OTI-H",
                 "Sec-LiRe-TI-V", "Sec-LiRe-OTI-V"):
        assert name in out
    saved = json.loads((tmp_path / "rpt" / "report.json").read_text())
    assert len(saved["rows"]) == 5
    table = (tmp_path / "rpt" / "table.txt").read_text()
    assert "Sec-LiRe-OTI-V" in table


# -- bench -------------------------------------------------------------------

def test_bench_scaling_smoke(tmp_path, capsys):
    rc = cli.main(["bench", "--scaling", "--sizes", "32,64",
                   "--features", "3", "--iterations", "4",
                   "--out", str(tmp_path / "bench.json")])
    assert rc == 0
    data = json.loads((tmp_path / "bench.json").read_text())
    assert data["sizes"] == [32, 64]
    assert set(data["engines"]) == {"Sec-LiRe-TI-H", "Sec-LiRe-OTI-H",
                                    "Sec-LiRe-TI-V", "Sec-LiRe-OTI-V"}
    for eng in data["engines"].values():
        assert len(eng["points"]) == 2
        assert all(s > 0 for _, s in eng["points"])
        assert len(eng["ratios"]) == 1
        fit = eng["fit"]
        assert fit["m"] == [8, 32, 64]
        assert fit["a_over_b500"] == pytest.approx(
            fit["a_s"] / (fit["b_s"] * 500))
    assert "a/(b*500)=" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["horizontal", "vertical"])
def test_scaling_point_stocks_exactly_the_triples_it_draws(scheme):
    spec = cli.RunSpec.from_dict(spec_dict(scheme=scheme))
    secs, dealt, streams = cli._scaling_point(spec)
    _, lazy, _ = cli._scaling_point(spec, halves=[None, None])
    assert secs > 0
    # halves dealt before the clock replay the engines' own derivation
    # bit for bit
    for got, ref in zip(dealt, lazy):
        assert got.weights_raw == ref.weights_raw
        assert got.transcript_hash == ref.transcript_hash
    # each party's list is drained exactly
    assert all(next(s, None) is None for s in streams)
    # d=3 splits into column blocks of 2 and 1
    widths = [3, 3] if scheme == "horizontal" else [2, 1]
    plan = product_plan(spec.config, "linear", scheme, widths)
    halves = [list(triple_halves(spec.config.seed, plan, i))
              for i in range(2)]
    with pytest.raises(TripleExhausted):
        cli._scaling_point(spec, halves=[halves[0], halves[1][:-1]])


# -- fold round ranges --------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("scheme", ["horizontal", "vertical"])
@pytest.mark.parametrize("task", ["LiRe", "LoRe"])
def test_fold_rounds_match_the_engines_round_counters(task, scheme, n,
                                                      monkeypatch):
    # every party's engine ends each fold exactly fold_rounds past its base
    used = []
    result = _EngineBase._result

    def recording_result(self, *args):
        used.append(self.rounds_used)
        return result(self, *args)

    monkeypatch.setattr(_EngineBase, "_result", recording_result)
    kind = "synthetic-linear" if task == "LiRe" else "synthetic-logistic"
    spec = cli.RunSpec.from_dict(spec_dict(
        task=task, scheme=scheme, smm_variant="OTI", parties=n,
        dataset={"kind": kind, "m": 48, "d": 8, "seed": 5},
        config={"learning_rate": 0.1, "batch_size": 2, "iterations": 3,
                "seed": "rounds"}))
    orchestration.spawn_parties(spec, "threads")
    want = fold_rounds(spec.config, orchestration._task(spec), scheme, n)
    assert used == [want] * (n * spec.folds)
    assert (round_stride(want, orchestration.ROUND_STRIDE)
            == orchestration.ROUND_STRIDE)


def test_fold_ranges_never_overlap_and_fit_in_u32():
    # the largest spec the schema accepts: folds step by whole strides,
    # each stride holds a fold, and the last fold ends below 2^32
    props = RUNSPEC_SCHEMA["properties"]
    n, folds = props["parties"]["maximum"], props["folds"]["maximum"]
    iters = props["config"]["properties"]["iterations"]["maximum"]
    for task, scheme in itertools.product(("LiRe", "LoRe"),
                                          ("horizontal", "vertical")):
        kind = ("synthetic-linear" if task == "LiRe"
                else "synthetic-logistic")
        spec = cli.RunSpec.from_dict(spec_dict(
            task=task, scheme=scheme, parties=n, folds=folds,
            dataset={"kind": kind, "m": 64, "d": 8, "seed": 5},
            config={"batch_size": 4, "iterations": iters, "seed": 1}))
        rounds = fold_rounds(spec.config, orchestration._task(spec),
                             scheme, n)
        stride = round_stride(rounds, orchestration.ROUND_STRIDE)
        assert rounds > orchestration.ROUND_STRIDE  # the old overlap
        assert rounds <= stride and stride % orchestration.ROUND_STRIDE == 0
        assert (folds - 1) * stride + rounds < 1 << 32


def test_folds_start_at_the_measured_stride(monkeypatch):
    # with a stride far below one fold's rounds, fold 1 starts at the least
    # multiple of the stride that holds the rounds fold 0 took
    spec = cli.RunSpec.from_dict(spec_dict())
    X, y, descriptor = cli.load_dataset(spec)

    def run_recorded():
        rngs = [spec.config.private_rng(i) for i in range(2)]
        sessions = record(*loopback_sessions(2, rngs, timeout=60.0))
        outs, _ = orchestration._run_threads(sessions, [
            lambda s=s: orchestration._run_party_folds(s, spec, X, y,
                                                       descriptor)
            for s in sessions], 120.0)
        return sessions, [manifest for manifest, _timings in outs]

    _, wide = run_recorded()
    stride = 8
    monkeypatch.setattr(orchestration, "ROUND_STRIDE", stride)
    sessions, manifests = run_recorded()
    rounds = fold_rounds(spec.config, "linear", "horizontal", 2)
    assert rounds > 3 * stride
    for me, session in enumerate(sessions):
        frames = session.transcript.frames
        # everything the peer sent in fold 0, then fold 1's first frame
        fold0 = manifests[1 - me]["folds"][0]["frames_sent"]
        assert frames[0].round_no == 0
        assert frames[fold0].round_no == round_stride(rounds, stride)
        assert (manifests[me]["run_model_hash"]
                == wide[me]["run_model_hash"])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant", ["TI", "OTI"])
@pytest.mark.parametrize("scheme", ["horizontal", "vertical"])
@pytest.mark.parametrize("task", ["LiRe", "LoRe"])
def test_frames_per_iteration_match_the_closed_form(task, scheme, variant,
                                                    n):
    # every party's frames_sent, summed, against comm_model.fold_frames
    kind = "synthetic-linear" if task == "LiRe" else "synthetic-logistic"
    iterations = 3
    spec = cli.RunSpec.from_dict(spec_dict(
        task=task, scheme=scheme, smm_variant=variant, parties=n,
        dataset={"kind": kind, "m": 24, "d": 4, "seed": 5},
        config={"learning_rate": 0.1, "batch_size": 2,
                "iterations": iterations, "seed": "frames"}))
    manifests, _ = orchestration.spawn_parties(spec, "threads")
    per_iter, fixed = fold_frames(task, scheme, variant, n)
    for k in range(spec.folds):
        sent = sum(m["folds"][k]["frames_sent"] for m in manifests)
        assert (sent - fixed) == iterations * per_iter, k
