"""Golden-output regression gate for the figure verbs.

Each case runs one CLI verb at a tiny fixed size (seed 0, one worker) and
compares the SHA-256 of the CSV it writes with a recorded value. The CSVs
hold only counts and fractions of counts, so the hashes do not depend on the
BLAS thread count; a change that alters any count, or the CSV layout, fails
here. The two fig1 reference states give the same counts on this grid (the
CSV does not name the state), so their hashes agree. Regenerate a hash only
for a change that is meant to alter results.
"""

import hashlib

import pytest

from cohkit.cli import main

CASES = {
    "fig1-coherent": (
        ["fig1", "--phi", "coherent", "--samples", "20", "--grid", "0,0.04,0.08,0.12,0.2,1"],
        "subadditivity_sweep_coherent.csv",
        "e294b0fea09d4fa0db5359b5ca5550a3c9a398ab358e35c1d8a10237cadf3655",
    ),
    "fig1-entangled": (
        ["fig1", "--phi", "entangled", "--samples", "20", "--grid", "0,0.04,0.08,0.12,0.2,1"],
        "subadditivity_sweep_entangled.csv",
        "e294b0fea09d4fa0db5359b5ca5550a3c9a398ab358e35c1d8a10237cadf3655",
    ),
    "fig2": (
        ["fig2", "--samples", "20", "--grid", "2,3,4"],
        "ordering_vs_dimension.csv",
        "ae50f47ae32115ccf7c925cbb7c32f123d11459e061b9e291ed776e2aa1754e1",
    ),
    "fig3": (
        ["fig3", "--samples", "20", "--dim", "5", "--grid", "1,2,5"],
        "ordering_vs_rank.csv",
        "5dd3224fa20bebf812eb77b0faabd2b799a725bcf8175dbe86cd57dcb2ff7b1a",
    ),
    # high-dimensional pairs, where most decisions need a solve
    "fig2-high-d": (
        ["fig2", "--samples", "20", "--grid", "8,10"],
        "ordering_vs_dimension.csv",
        "a5520ce4e0223d44cebddb8c848f4a3139bc3a65e49887ed4cf1433e45412079",
    ),
    "fig3-d10": (
        ["fig3", "--samples", "20", "--dim", "10", "--grid", "2,9"],
        "ordering_vs_rank.csv",
        "16b02d7b75e37dab34a9fbac67477f13362abec50d17caff3af30aed6407224d",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_figure_csv_matches_golden_hash(case, tmp_path):
    argv, csv_name, expected = CASES[case]
    assert main(argv + ["--seed", "0", "--threads", "1", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest()
    assert digest == expected
