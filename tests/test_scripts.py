"""The demo scripts under scripts/ run to completion against the library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidreps

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["census_demo.py"],
    ["witness_tour.py"],
    ["degeneracy_scan.py", "--points", "40"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv):
    src = str(Path(braidreps.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_replay_of_the_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "replay.py"), "--calls", "20",
         "--base-dir", str(SCRIPTS.parent)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "same bytes: 20\n" in proc.stdout


def _bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    return bench_pairs


def test_bench_pairs_assembles_fixed_records(monkeypatch):
    bench_pairs = _bench_pairs(monkeypatch)
    metrics = {"throughput_per_s": ("higher", 0.25), "peak_rss_mb": ("lower", 0.05)}
    # (parent, change) throughput and RSS per seed; the change first on odd seeds
    figures = {11: ((100, 150), (24.0, 24.5)), 12: ((110, 140), (24.2, 24.4)),
               13: ((90, 160), (24.1, 24.6)), 14: ((105, 100), (24.3, 24.2))}
    pairs = []
    for seed, (tp, rss) in figures.items():
        runs = {side: {"metrics": {"throughput_per_s": tp[k], "peak_rss_mb": rss[k]},
                       "correct": True, "failed": 0, "digest": f"d{seed}"}
                for k, side in enumerate(("parent", "change"))}
        pairs.append(bench_pairs.pair(seed, "change" if seed % 2 else "parent", runs))
    entry = bench_pairs.assemble(pairs, metrics)
    assert entry["seeds"] == [11, 14] and entry["pairs"] == 4
    assert entry["parent"]["throughput_per_s"]["median"] == 102.5
    assert entry["change"]["throughput_per_s"]["median"] == 145
    assert entry["parent"]["peak_rss_mb"]["median"] == 24.15
    assert entry["change_wins"] == {"throughput_per_s": 3, "peak_rss_mb": 1}
    assert entry["change_vs_parent"]["throughput_per_s"] == round(145 / 102.5 - 1, 4)
    # RSS rose by 1.45 %, inside its 5 % bound
    assert entry["within_bound"] == {"throughput_per_s": True, "peak_rss_mb": True}
    assert entry["all_correct"] and entry["failed"] == 0 and entry["digests_identical"]
    assert [p["first"] for p in entry["runs"]] == ["change", "parent", "change", "parent"]
    text = bench_pairs.claim(entry, "rep-pipeline", "throughput_per_s")
    assert text.startswith("throughput_per_s on rep-pipeline: median 102.5 -> 145.0 (1.41x)")
    assert "the change won 3 of 4 pairs" in text


def test_bench_pairs_flags_a_changed_digest_and_a_broken_bound(monkeypatch):
    bench_pairs = _bench_pairs(monkeypatch)
    runs = {"parent": {"metrics": {"peak_rss_mb": 20.0}, "correct": True, "failed": 0,
                       "digest": "a"},
            "change": {"metrics": {"peak_rss_mb": 22.0}, "correct": False, "failed": 2,
                       "digest": "b"}}
    entry = bench_pairs.assemble([bench_pairs.pair(s, "parent", runs) for s in (1, 2)],
                                 {"peak_rss_mb": ("lower", 0.05)})
    assert entry["within_bound"] == {"peak_rss_mb": False}
    assert not entry["all_correct"] and entry["failed"] == 4
    assert not entry["digests_identical"]
    passes = {side: {"metrics": {"field.inverse.calls": n, "linalg.matmul.calls": 6,
                                 "poly.resultant.calls": 0}, "correct": True, "digest": "a"}
              for side, n in (("parent", 18), ("change", 12))}
    counts = bench_pairs.traced(passes, ["field.inverse.calls", "linalg.matmul.calls",
                                         "poly.resultant.calls"])
    assert counts["counts"] == {"field.inverse.calls": [18, 12], "linalg.matmul.calls": [6, 6]}
    assert counts["changed_counts"] == {"field.inverse.calls": [18, 12]}
    assert counts["digest_identical"]


def test_layers_writes_calibrated_quartiles(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "layers.py"), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["braidreps"].startswith(str(SCRIPTS.parent / "src"))
    names = [f"build_rep.d{d}.Q" for d in range(1, 7)]
    names += ["build_rep.d6.zeta5", "build_rep.d5.zeta5.irrational"]
    names += [f"spectral_report.d{d}.Q" for d in range(2, 7)]
    names += ["spectral_report.d6.zeta5", "spectral_report.d4.sqrt24", "canonical_dumps.verify.d6"]
    names += ["field.mul.zeta5", "field.add.zeta5"]
    assert list(record["layers"]) == names
    for layer in record["layers"].values():
        assert 0 < layer["q1_ms"] <= layer["median_ms"] <= layer["q3_ms"]
