"""Driver layer: run specs, partitioning, orchestration, exit codes.

Process-mode tests spawn real child interpreters over localhost TCP, so
they keep the training configuration tiny.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

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
from secregress.smm import triple_halves

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
])
def test_spec_schema_rejects(mangle):
    with pytest.raises(cli.ConfigFileError):
        cli.RunSpec.from_dict(spec_dict(**mangle))


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
    raw = spec_dict(roster=roster, output=str(tmp_path / "o"),
                    config=dict(BASE_SPEC["config"], iterations=2000))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ)
    procs = [subprocess.Popen(
        [sys.executable, "-m", "secregress", "train", "--spec", str(path),
         "--party", str(i)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        for i in range(2)]
    time.sleep(2.0)
    procs[1].send_signal(signal.SIGKILL)
    assert procs[1].wait(timeout=30) != 0
    assert procs[0].wait(timeout=60) != 0


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
