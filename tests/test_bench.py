"""run_synth_bench matches each synthetic image once and feeds that match to
both evaluation paths, so its rows equal the two public paths run apart."""

from cocostream import EvalConfig, evaluate_exact, finalize, load_ground_truth, new_state, update
from cocostream import bench
from cocostream.bench import run_synth_bench, synthetic_runs
from cocostream.ingest import PerturbationParams

from conftest import synthetic_annotation_doc

COUNTS = (4, 9)
REPEATS = 2
SEED = 17


def _pool():
    return load_ground_truth(synthetic_annotation_doc(n_images=20, num_classes=3, seed=3))


def test_rows_equal_update_and_evaluate_exact():
    gt = _pool()
    cfg = EvalConfig(num_classes=gt.num_classes, buckets=50, max_dets_list=(1, 3, 10))
    rows = run_synth_bench(gt, cfg, image_counts=COUNTS, repeats=REPEATS, seed=SEED)
    runs = synthetic_runs(gt, COUNTS, REPEATS, SEED, PerturbationParams())
    want = []
    for n, run, _, synthetic in runs:
        pairs = synthetic.pairs()
        streaming = finalize(update(new_state(cfg), pairs)).as_dict()
        exact = evaluate_exact(pairs, cfg).as_dict()
        want.extend((name, n, run, streaming[name], exact[name]) for name in streaming)
    got = [(r.metric_name, r.n_images, r.run_index, r.streaming_value, r.exact_value) for r in rows]
    assert got == want


def test_each_synthetic_image_matched_once(monkeypatch):
    pairs = []
    match_batch = bench.match_batch

    def counting(batch, config):
        batch = list(batch)
        pairs.extend(batch)
        return match_batch(batch, config)

    monkeypatch.setattr(bench, "match_batch", counting)
    gt = _pool()
    run_synth_bench(gt, EvalConfig(num_classes=gt.num_classes), COUNTS, REPEATS, SEED)
    assert len(pairs) == sum(COUNTS) * REPEATS
