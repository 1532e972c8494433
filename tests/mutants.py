"""Mutation check of the tests that guard the hot paths.

    python tests/mutants.py [NAME ...]

Each mutant is one exact text edit of one file in src/cocostream, with the
pytest node ids that must fail on it. For each mutant (or only those named),
the runner copies src/, tests/ and pyproject.toml to a temporary directory,
applies the edit there, and runs each node id alone with a fixed Hypothesis
seed, an empty example database and no shrinking (a failing example is not
minimised, which can take minutes). It prints one line per mutant: caught
when every node id fails, else survived, with the node ids that passed. The
node ids are first run on the unmutated copy, where they must pass.

The exit status is 0 when every mutant is caught, else 1. pytest does not
collect this file, so it is not part of the test suite. A change that
rewrites a hot path adds its mutants here.

Two faults of the hand-rolled header memo that functools.lru_cache replaced
have no text left to mutate: a memo keyed on the line's length, or on a
prefix of it. The cache's key is the whole line, compared by the library.
TestHeaderMemo keeps the tests that caught them.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/cocostream
    old: str  # must occur exactly once
    new: str
    must_fail: tuple[str, ...]  # pytest node ids, relative to the root


DIFF = "tests/test_differential.py::"
CORRUPT = "tests/test_streaming.py::TestLoadStateRejects::" + (
    "test_corrupt_last_array_leaves_into_unchanged"
)
CLI_DAMAGE = "tests/test_cli.py::TestBadInputExitsCleanly::test_bad_snapshot_error_names_its_file"
MANY_CLASSES = DIFF + "test_many_class_batches_equal_the_scalar_reference"
STREAMING = "tests/test_streaming.py::"
MEMO = STREAMING + "TestHeaderMemo::"
INT_FIELDS = STREAMING + "TestConfigRejects::test_integer_fields_take_python_ints_only"
CLASS_IDS = (
    "tests/test_geometry.py::TestRecordValidation::test_class_id_that_is_not_an_integer_rejected"
)
PERTURB = DIFF + "test_perturb_equals_the_scalar_draw_loop"
PINNED = "tests/test_pinned.py::test_pinned_reports"
SYNTH_CSV = "tests/test_cli.py::TestSynthBench::test_rows_and_determinism"

MUTANTS = (
    Mutant(
        "tp_totals first limit by side=left",
        "streaming.py",
        'np.searchsorted(cfg.max_dets_list, matches.rank, side="right")',
        'np.searchsorted(cfg.max_dets_list, matches.rank, side="left")',
        (DIFF + "test_kept_indices_equal_a_per_verdict_ravel",
         DIFF + "test_update_equals_scalar_reference",
         DIFF + "test_evaluate_exact_equals_scalar_reference"),
    ),
    Mutant(
        "tp_totals without the cumsum over limits",
        "streaming.py",
        "return np.cumsum(counts.reshape(shape), axis=-1)",
        "return counts.reshape(shape)",
        (DIFF + "test_kept_indices_equal_a_per_verdict_ravel",
         DIFF + "test_update_equals_scalar_reference",
         DIFF + "test_evaluate_exact_equals_scalar_reference"),
    ),
    Mutant(
        "theta stride in _cells without the classes",
        "streaming.py",
        "np.arange(n_t)[:, None] * (n_k * n_a)",
        "np.arange(n_t)[:, None] * n_a",
        (DIFF + "test_kept_indices_equal_a_per_verdict_ravel",
         DIFF + "test_update_equals_scalar_reference",
         DIFF + "test_evaluate_exact_equals_scalar_reference"),
    ),
    Mutant(
        "reader without the tp_totals top-column check",
        "streaming.py",
        "if (sums != top).any() or (np.bincount(",
        "if (np.bincount(",
        (CORRUPT,
         CLI_DAMAGE + "[tp_totals not the bucket sum-merge]",
         CLI_DAMAGE + "[tp_totals not the bucket sum-report]"),
    ),
    Mutant(
        "reader without the wrapped-sum check",
        "streaming.py",
        " or (np.bincount(cell, counts, len(top)) >= 3.0 * 2**62).any()",
        "",
        (CORRUPT,
         CLI_DAMAGE + "[wrapped bucket sum-merge]",
         CLI_DAMAGE + "[wrapped bucket sum-report]"),
    ),
    Mutant(
        "reader without the max-dets order check",
        "streaming.py",
        "if (np.diff(totals, axis=-1) < 0).any():",
        "if False:",
        (CLI_DAMAGE + "[tp_totals decreasing-merge]",
         CLI_DAMAGE + "[tp_totals decreasing-report]"),
    ),
    Mutant(
        "reader without the entry-count range check",
        "streaming.py",
        "if not 0 <= n <= size:",
        "if False:",
        (STREAMING + "TestLoadStateRejects::test_bad_nonzero[-1]",
         STREAMING + "TestLoadStateRejects::test_bad_nonzero[5]"),
    ),
    Mutant(
        "writer puts each entry count after its indices",
        "streaming.py",
        "for block in (np.array([len(idx)]), idx, counts):",
        "for block in (idx, np.array([len(idx)]), counts):",
        (STREAMING + "TestSnapshot::test_pinned_bytes",
         STREAMING + "TestSnapshot::test_round_trip_lossless"),
    ),
    Mutant(
        "header cache holds no line",
        "streaming.py",
        "@functools.lru_cache(maxsize=1)",
        "@functools.lru_cache(maxsize=0)",
        (MEMO + "test_the_kept_line_outlives_a_read",),
    ),
    Mutant(
        "header cache emptied on every read",
        "streaming.py",
        "    config = _header_config(bytes(fp.readline()))",
        "    _header_config.cache_clear()\n    config = _header_config(bytes(fp.readline()))",
        (MEMO + "test_the_kept_line_outlives_a_read",),
    ),
    Mutant(
        "header cache keeps a non-canonical line",
        "streaming.py",
        "if header_line != expected:",
        "if False:",
        (MEMO + "test_non_canonical_header_fails_on_every_read",
         STREAMING + "TestLoadStateRejects::test_non_canonical_header[extra key]"),
    ),
    Mutant(
        "text streams let through to the reader",
        "streaming.py",
        "if read is None or isinstance(read(0), str):",
        "if read is None:",
        (STREAMING + "TestSnapshot::test_load_from_a_text_stream_rejected",),
    ),
    Mutant(
        "non-streams let through to the reader",
        "streaming.py",
        "if read is None or isinstance(read(0), str):",
        "if isinstance(read(0), str):",
        (STREAMING + "TestSnapshot::test_load_from_a_non_stream_rejected",),
    ),
    Mutant(
        "text streams let through to the writer",
        "streaming.py",
        "    except (TypeError, AttributeError):\n        raise _not_binary(fp) from None\n",
        "    except AttributeError:\n        raise _not_binary(fp) from None\n",
        (STREAMING + "TestSnapshot::test_save_to_a_text_stream_rejected",),
    ),
    Mutant(
        "non-streams let through to the writer",
        "streaming.py",
        "    except (TypeError, AttributeError):\n        raise _not_binary(fp) from None\n",
        "    except TypeError:\n        raise _not_binary(fp) from None\n",
        (STREAMING + "TestSnapshot::test_save_to_a_non_stream_rejected",),
    ),
    Mutant(
        "recall thresholds reached by side=left in cell_aps",
        "streaming.py",
        'k = np.searchsorted(thresholds, recall, side="right")',
        'k = np.searchsorted(thresholds, recall, side="left")',
        (DIFF + "test_finalize_equals_dense_reference",
         DIFF + "test_evaluate_exact_equals_scalar_reference"),
    ),
    Mutant(
        "cell_aps rows summed over all |R| thresholds",
        "streaming.py",
        "total[lo:hi] = env[lo:hi, :n].sum(axis=1)",
        "total[lo:hi] = env[lo:hi].sum(axis=1)",
        (STREAMING + "test_cell_aps_is_interpolate_ap_per_cell_bit_for_bit",
         DIFF + "test_finalize_equals_dense_reference_on_the_default_grid"),
    ),
    Mutant(
        "finalize runs in increasing bucket order",
        "streaming.py",
        "np.logical_or(state.tp_buckets, state.fp_buckets))[::-1]",
        "np.logical_or(state.tp_buckets, state.fp_buckets))",
        (DIFF + "test_finalize_equals_dense_reference",),
    ),
    Mutant(
        "_finalize_entries runs in increasing bucket order",
        "streaming.py",
        "flat[::-1] // config.buckets, tp[::-1], fp[::-1]",
        "flat // config.buckets, tp, fp",
        (STREAMING + "test_finalize_entries_of_a_snapshot_equals_finalize",),
    ),
    Mutant(
        "cell_aps last run one point short",
        "streaming.py",
        "sizes = np.diff(starts, append=len(cells))",
        "sizes = np.diff(starts, append=len(cells) - 1)",
        (STREAMING + "test_cell_aps_is_interpolate_ap_per_cell_bit_for_bit",),
    ),
    Mutant(
        "cell total guard lets exactly 2**63 through",
        "streaming.py",
        "totals.view(np.uint64) >= 2**63",
        "totals.view(np.uint64) > 2**63",
        (STREAMING + "TestCellTotalBound::test_total_past_int64_names_the_cell[exactly-2**63]",),
    ),
    Mutant(
        "histogram index taken mod 2**32",
        "streaming.py",
        "flat = _cells(matches) * buckets + bucket_index",
        "flat = (_cells(matches) * buckets) % 2**32 + bucket_index",
        (DIFF + "test_kept_indices_equal_a_per_verdict_ravel",),
    ),
    Mutant(
        "ground-truth group key without the class",
        "matching.py",
        "key = gt_img * config.num_classes + gt_cls",
        "key = gt_img * config.num_classes",
        (MANY_CLASSES + "[16]", MANY_CLASSES + "[65536]",
         DIFF + "test_update_equals_scalar_reference"),
    ),
    Mutant(
        "last maximum wins IoU ties",
        "matching.py",
        "best = avail.argmax(axis=-1)",
        "best = avail.shape[-1] - 1 - avail[..., ::-1].argmax(axis=-1)",
        (MANY_CLASSES + "[16]",
         "tests/test_matching.py::TestMatchImageClass::test_gt_iou_tie_takes_lowest_index"),
    ),
    Mutant(
        "perturb draw columns dx and dy swapped",
        "ingest.py",
        "dx, dy, sw, sh, u = np.random",
        "dy, dx, sw, sh, u = np.random",
        (PERTURB, PINNED, SYNTH_CSV),
    ),
    Mutant(
        "perturb confidence u in place of 1 - u",
        "ingest.py",
        "top + h, 1.0 - u], axis=1)",
        "top + h, u], axis=1)",
        (PERTURB, PINNED, SYNTH_CSV),
    ),
    Mutant(
        "config integer check dropped",
        "config.py",
        "            if not _is_int(value):",
        "            if False:",
        (INT_FIELDS + "[num_classes-1.0]",
         INT_FIELDS + "[buckets-np.int32(7)]",
         INT_FIELDS + "[max_dets_list-(1, 2.5)]"),
    ),
    Mutant(
        "class-id check dropped",
        "geometry.py",
        "if isinstance(class_id, bool) or not isinstance(class_id, _INTEGERS):",
        "if False:",
        (CLASS_IDS + "[1.5]", CLASS_IDS + "[True]"),
    ),
    Mutant(
        "unstable ground-truth group sort (ties reversed)",
        "matching.py",
        'by_group = np.argsort(key, kind="stable")',
        'by_group = np.argsort(-key, kind="stable")[::-1]',
        (MANY_CLASSES + "[16]", MANY_CLASSES + "[65536]",
         DIFF + "test_update_equals_scalar_reference"),
    ),
)


# A pytest plugin, written into each copy, that registers the profile the runs use.
PROFILE = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
"""


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)
    (dest / "mutants_profile.py").write_text(PROFILE)


def _passes(tree: Path, node_ids) -> bool:
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-p", "mutants_profile", "--hypothesis-profile=mutants",
               "--hypothesis-seed=0", *node_ids]
    return subprocess.run(command, cwd=tree, capture_output=True).returncode == 0


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in mutants}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        node_ids = sorted({n for m in mutants for n in m.must_fail})
        if not _passes(clean, node_ids):
            print("the unmutated tree fails these node ids; fix that first", file=sys.stderr)
            return 2
        survived = 0
        for i, m in enumerate(mutants):
            tree = Path(tmp) / f"mutant{i}"
            _copy(tree)
            path = tree / "src" / "cocostream" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"stale   {m.name}: its old text is not in {m.file} exactly once")
                survived += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            passed = [n for n in m.must_fail if _passes(tree, [n])]
            survived += bool(passed)
            print(f"SURVIVED {m.name}; passed: {passed}" if passed else f"caught   {m.name}",
                  flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
