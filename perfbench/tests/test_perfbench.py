"""The benchmark's own tests, at the workloads' tiny sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS, frame_model  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_definition_matches_the_benchmark():
    assert [w["name"] for w in DEFINITION["workloads"]] == list(BENCHMARKED)
    assert all(w["why"] == WORKLOADS[w["name"]].why
               for w in DEFINITION["workloads"])
    assert {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in DEFINITION["per_layer"]} == (
        run.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, stdout = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in stdout.splitlines()), name
    assert "failed_ratio 0.0000 ratio" in stdout
    assert "context: " in stdout
    if trace:
        assert "tracing overhead: " in stdout


def test_frame_model_matches_the_seed_manifests():
    assert frame_model("horizontal", "LiRe", "TI", 2) == (26, 4)
    assert frame_model("vertical", "LoRe", "OTI", 2) == (29, 6)
    # 82 frames per fold at T=3 and 586 at T=20
    assert 3 * 26 + 4 == 82 and 20 * 29 + 6 == 586
    assert frame_model("vertical", "LoRe", "TI", 3) == (84, 24)


def _threads_run(name: str):
    from secregress.cli import RunSpec, load_dataset, spawn_parties

    spec = RunSpec.from_dict(WORKLOADS[name].spec(5, smoke=True))
    X, y, _ = load_dataset(spec)
    manifests, _ = spawn_parties(spec, "threads", 60.0)
    weights = check.replay(spec, X, y, check.fold_seeds(manifests))
    return spec, X, y, manifests, weights


def _shift_word(hx: str, index: int, delta: int) -> str:
    word = (int(hx[16 * index:16 * index + 16], 16) + delta) % (1 << 64)
    return hx[:16 * index] + f"{word:016x}" + hx[16 * index + 16:]


@pytest.mark.parametrize("name", ["lire-ti-h-bulk", "lore-ti-v-3p"])
def test_check_rejects_a_perturbed_weight_vector(name):
    spec, X, y, manifests, weights = _threads_run(name)
    problems, gap = check.check_run(spec, manifests, X, y, weights)
    assert problems == [] and gap <= check.WEIGHT_TOLERANCE
    # 1e-3 in the f-bit encoding, in every party's copy so that the
    # parties still agree with each other
    delta = round(1e-3 * (1 << spec.config.frac_bits))
    for m in manifests:
        m["folds"][1]["model_hex"] = _shift_word(m["folds"][1]["model_hex"],
                                                 0, delta)
    problems, _gap = check.check_run(spec, manifests, X, y, weights)
    assert any("w_replay" in p and p.startswith("fold 1") for p in problems)


def test_check_rejects_unexpected_traffic():
    spec, X, y, manifests, weights = _threads_run("lire-ti-h-bulk")
    manifests[0]["folds"][0]["frames_sent"] += 1
    problems, _gap = check.check_run(spec, manifests, X, y, weights)
    assert any("frames sent" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "lire-ti-h-bulk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_patched_name(monkeypatch):
    import tracer
    from secregress import ring, smm
    from secregress.transport import ProtocolSession

    originals = (smm.mat_mul_raw, ring.mat_mul_raw, ProtocolSession.send,
                 vars(ring.RingMatrix)["from_bytes"])
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("secregress.ring", "no_such_kernel", "ring.matmul"),
        ("secregress.ring", "RingMatrix.no_such_method", "ring.serde")))
    rec = tracer.Recorder()
    rec.install(full=True)
    assert smm.mat_mul_raw is ring.mat_mul_raw is not originals[0]
    rec.uninstall()
    assert (smm.mat_mul_raw, ring.mat_mul_raw, ProtocolSession.send,
            vars(ring.RingMatrix)["from_bytes"]) == originals


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert run.trimmed_mean([1.0, 2.0, 6.0]) == 3.0
    assert run.trimmed_mean([0.0] + [1.0] * 8 + [100.0]) == 1.0
