"""Metamorphic relations: a run on transformed inputs must give the same
outputs as a run on the originals, whatever those outputs are."""

import json
import shutil

import pytest

from abfuse.cli import EXIT_OK, main


def _rename_objects(src, dst):
    """Copy the dataset directory ``src`` to ``dst`` with the ground-truth
    object ids renamed so that their sort order reverses; lines keep their
    order.  Returns the map from each new id back to its old one."""
    shutil.copytree(src, dst)
    path = dst / json.loads((dst / "manifest.json").read_text())["ground_truth"]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    ids = sorted(r["object_id"] for r in records)
    new = {old: f"r{len(ids) - i:06d}" for i, old in enumerate(ids)}
    path.write_text("".join(json.dumps({**r, "object_id": new[r["object_id"]]}) + "\n"
                            for r in records))
    return {v: k for k, v in new.items()}


def _outputs(manifest, rules, out, back):
    """Each abduce run's exit code, other files and labels (ids mapped
    through ``back``, as a sorted list), and the sweep's CSV bytes; the
    sweep's manifest is left out, since its fingerprint hashes the ids."""
    runs = {}
    data = ["--manifest", str(manifest), "--rules", str(rules)]
    for solver, extra in (("hs", []), ("ip", ["--epsilon", "0.1"])):
        for delta in ("0.2", "0.5"):
            for tb in ("on", "off"):
                d = out / f"{solver}-{delta}-{tb}"
                code = main(["abduce", *data, "--solver", solver, *extra, "--delta", delta,
                             "--tie-break", tb, "--out", str(d)])
                files = {p.name: p.read_text() for p in sorted(d.iterdir())}
                labels = [json.loads(line) for line in files.pop("labels.jsonl", "").splitlines()]
                runs[solver, delta, tb] = code, files, sorted(
                    json.dumps({**r, "object_id": back[r["object_id"]]}, sort_keys=True)
                    for r in labels)
    csv = out / "sweep.csv"
    assert main(["sweep", *data, "--delta-grid", "0.2,0.5,0.9", "--epsilon-grid", "0.1,0.5",
                 "--no-timing", "--out", str(csv)]) == EXIT_OK
    return runs, csv.read_bytes()


@pytest.mark.parametrize("preset, seed", [("MM_1", 1), ("BM_2", 2)])
def test_renamed_objects_change_no_output(tmp_path, preset, seed):
    assert main(["gen", "--preset", preset, "--models", "4", "--n-train", "60",
                 "--n-test", "80", "--seed", str(seed), "--out", str(tmp_path / "data")]) == EXIT_OK
    rules = tmp_path / "rules.jsonl"
    assert main(["learn", "--manifest", str(tmp_path / "data" / "train" / "manifest.json"),
                 "--epsilon-grid", "0.1,0.5", "--out", str(rules)]) == EXIT_OK
    back = _rename_objects(tmp_path / "data" / "test", tmp_path / "renamed")
    want = _outputs(tmp_path / "data" / "test" / "manifest.json", rules, tmp_path / "a",
                    {old: old for old in back.values()})
    got = _outputs(tmp_path / "renamed" / "manifest.json", rules, tmp_path / "b", back)
    assert got == want
    assert all(labels for code, _, labels in want[0].values() if code == EXIT_OK)
