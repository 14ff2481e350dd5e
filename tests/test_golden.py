"""Golden-output regression gate for the experiment verbs and ``measure``.

Each case runs one CLI verb at a tiny fixed size (seed 0 unless the case
names another, one worker) and compares the SHA-256 of the CSV it writes
with a recorded value, and the SHA-256 of its ``_meta.json`` sidecar with
another. The sidecar is hashed without ``wall_time_s`` and
``git_revision``, re-dumped with sorted keys, so its hash pins the config,
the redrawn draws, the RoC method counts and the ordering sweeps' decision
stages and undecided samples. The figure CSVs hold only counts and
fractions of counts, so their hashes do not depend on the BLAS thread
count; a change that alters any count, or the CSV layout, fails here. The two fig1 reference states give the same counts on this grid
(the CSV does not name the state), so their hashes agree.

The theorem1 and result2 CSVs and the ``measure`` stdout carry robustness
values and certificate gaps, from the phase witness and from the SDP, so
they pin every float of those paths. They hold for the one BLAS thread that
``conftest.py`` pins. Regenerate a hash only for a change that is meant to
alter results.
"""

import hashlib
import json

import numpy as np
import pytest

from cohkit.cli import main
from cohkit.states import DensityMatrix, random_density

CASES = {
    "fig1-coherent": (
        ["fig1", "--phi", "coherent", "--samples", "20", "--grid", "0,0.04,0.08,0.12,0.2,1"],
        "subadditivity_sweep_coherent.csv",
        "e294b0fea09d4fa0db5359b5ca5550a3c9a398ab358e35c1d8a10237cadf3655",
        "2ac8a563219bd6e2ee0d4221ee9595f727ed2effa1890030765c299f6f287f0a",
    ),
    "fig1-entangled": (
        ["fig1", "--phi", "entangled", "--samples", "20", "--grid", "0,0.04,0.08,0.12,0.2,1"],
        "subadditivity_sweep_entangled.csv",
        "e294b0fea09d4fa0db5359b5ca5550a3c9a398ab358e35c1d8a10237cadf3655",
        "72241da11ac9f876b56b4841dc70b550d2c1a1b492ae0761a69e99fcdcdedafb",
    ),
    "fig2": (
        ["fig2", "--samples", "20", "--grid", "2,3,4"],
        "ordering_vs_dimension.csv",
        "ae50f47ae32115ccf7c925cbb7c32f123d11459e061b9e291ed776e2aa1754e1",
        "e5093e820075723fc81436ee3f0810fca39b2bfe8e27e0e84f271281828167ea",
    ),
    "fig3": (
        ["fig3", "--samples", "20", "--dim", "5", "--grid", "1,2,5"],
        "ordering_vs_rank.csv",
        "5dd3224fa20bebf812eb77b0faabd2b799a725bcf8175dbe86cd57dcb2ff7b1a",
        "13a2b184a9046e56bbad967e1ac837bd3f29d10bcb616d7dfadbb9e4eab1f8b7",
    ),
    # high-dimensional pairs, where the cheapest brackets leave most decisions open
    "fig2-high-d": (
        ["fig2", "--samples", "20", "--grid", "8,10"],
        "ordering_vs_dimension.csv",
        "a5520ce4e0223d44cebddb8c848f4a3139bc3a65e49887ed4cf1433e45412079",
        "e3f7651845f45c6e617614ce70de6e900bc7f0196ce7e9bd97a122940384c705",
    ),
    "fig3-d10": (
        ["fig3", "--samples", "20", "--dim", "10", "--grid", "2,9"],
        "ordering_vs_rank.csv",
        "16b02d7b75e37dab34a9fbac67477f13362abec50d17caff3af30aed6407224d",
        "0fb030aa8ad5ba27d472f2ac2cddbfaac420be6450bd2a8b3bb7c4ca27d9c797",
    ),
    # another seed, and the dimensions between the low-d and high-d cases
    "fig2-seed1": (
        ["fig2", "--seed", "1", "--samples", "30", "--grid", "5,8,10"],
        "ordering_vs_dimension.csv",
        "38f59b43c907ad542455a56808c3736a834190c81c3ea33811fe23238496c8bc",
        "b5a5cf9d6d2fb3315ba19f3116856ad54e4241d9d65243280b5e63040896625f",
    ),
    # 300 samples per grid point, so its one chunk at one worker spans five sample blocks
    "fig3-blocks": (
        ["fig3", "--samples", "300", "--dim", "10", "--grid", "1,5,10"],
        "ordering_vs_rank.csv",
        "5ca229cab7a488ddf60a863a1a9a42af11c3e198ee580cf89fc1b88a9d403087",
        "9fdd334daf669fe07ca5b65d9962430ac9f9122934a0dcb143f73fcfb6e866f8",
    ),
    # SDP values, sigma-family gaps and qubit closed forms
    "theorem1": (
        ["theorem1", "--n", "1,2,3", "--samples", "5"],
        "theorem1_check.csv",
        "281b356f26df9b174cfedef5ba22fdb0cae1044093c1c671380ba0307ba6fe62",
        "0772d51984ffe1a4fb53d7a3552f84a02a97b28a866ffb573d1474a432da4482",
    ),
    # per-measure deviations under a diagonal ancilla
    "result2": (
        ["result2", "--grid", "2,3", "--samples", "20"],
        "result2_check.csv",
        "83ab6e14462666abb49a49c6d04209590cca6d3575f326ebbb9087b8f01abb01",
        "733194bd391978f252bd08b3477b0c75ea4fdbd99e97be86b15191b593e1ead4",
    ),
}


def _run_case(argv: list[str], out) -> None:
    seed = [] if "--seed" in argv else ["--seed", "0"]
    assert main(argv + seed + ["--threads", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_figure_csv_matches_golden_hash(case, tmp_path):
    argv, csv_name, expected, _ = CASES[case]
    _run_case(argv, tmp_path)
    digest = hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_figure_meta_matches_golden_hash(case, tmp_path):
    argv, csv_name, _, expected = CASES[case]
    _run_case(argv, tmp_path)
    meta = json.loads((tmp_path / csv_name.replace(".csv", "_meta.json")).read_text())
    del meta["wall_time_s"], meta["git_revision"]
    digest = hashlib.sha256(json.dumps(meta, indent=2, sort_keys=True).encode()).hexdigest()
    assert digest == expected


def _phase_rotated_state() -> DensityMatrix:
    """A d=3 state whose off-diagonal phases factor, so roc takes the phase witness."""
    rng = np.random.default_rng(0)
    a = np.abs(random_density(3, 3, rng).mat)
    phases = np.exp(2j * np.pi * rng.uniform(size=3))
    return DensityMatrix(phases[:, None] * a * phases.conj()[None, :])


MEASURE_CASES = {
    "phase-witness": (
        _phase_rotated_state,
        "bf868c335d43121c0009b16441075d9064810f72841aa9172731e10957e91879",
    ),
    "sdp": (
        lambda: random_density(4, 4, np.random.default_rng(0)),
        "15515df498c16bb10836ecadfb9f7daa27d8dc3898a7a4fee8586c0ca0b7868f",
    ),
}


@pytest.mark.parametrize("case", sorted(MEASURE_CASES))
def test_measure_stdout_matches_golden_hash(case, tmp_path, capsys):
    make, expected = MEASURE_CASES[case]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(make().to_json_dict()))
    capsys.readouterr()
    assert main(["measure", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"(method={case.replace('-', '_')})" in out
    assert hashlib.sha256(out.encode()).hexdigest() == expected
