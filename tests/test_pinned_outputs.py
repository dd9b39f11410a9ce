"""Byte-exact outputs of the CLI at small configs.

Each digest is the sha256 of an action's CSV (stdout or file) or of its
stdout text; the figures were recorded before the wedge, quadrant and
determinant tables were routed through one sweep front-end and one
collector (the quenched, fluct and stationary-walk cases before the
chi-square independence test and the checks without a level were
replaced or deleted), and a refactor that leaves every number alone keeps
them.
Two digests were recorded again when checks changed what the CSV holds:
lln's, when its rows lost their bootstrap interval columns for a limit
column, and quenched's, when its r = 0 KS came to compare the masses
beyond 0 (the distance moved in its last digit).  Quenched's was recorded
once more when the walks' series Q came to be drawn exactly, with one pair
of tail gammas per walk, in place of a certified long sum: every walk-side
number moved.
Pinning's and fluct's were recorded again when the log-space plus of the
sweep moved from np.logaddexp to hi + log1p(exp(lo - hi)): a tail median
and three fluct figures moved in their last digits, by about 1e-16.
lln's was recorded once more when its diagonal-avoiding rate rows went:
they were computed under the alpha -> 0 diagonal law, so they read the
same at every alpha; the rows that stay kept their bytes.
fluct's was recorded once more when psi and psi' came to be computed in
`special` in place of scipy's: psi'(1/2) is now pi^2/2 correctly rounded,
1 ulp below scipy's, so the CLT variance at alpha -1/2 moved by 1 ulp and
six variance and line-mean figures in their last digits.
Walk's, the stationary walk's and fluct's were recorded once more when
the Beta CDF of the increment law and the normal CDF came to be computed
in the package in place of scipy's betainc and erfc: both CDFs moved by
at most about 1e-14 (erfc by an ulp), so the walk KS distances and
p-values moved by at most 1.8e-14 and fluct's diagonal KS figures by at
most 7e-16; quenched's CSV, which holds no Beta CDF value, kept its bytes.
`verify gibbs`'s digest was recorded after its line of curve-ordering
rates was deleted; it also covers the exit code and the "27 sites" that
a separate defaults test used to assert.
Twelve digests were recorded again for rng algorithm sm64chain-2, when the
gamma sampler's Box-Muller normal gave way to a ziggurat and each
Marsaglia-Tsang round came to read four slots: every gamma-derived number
moved.  They are env_gen_float, env_gen_exact (only its rng= header line
changed), simulate_endpoint, simulate_path, simulate_ensemble,
verify_gibbs and the six experiment cases.  verify identity, lgv and sbd
read only dyadic words and kept their bytes.
The quenched case runs at --sizes 20; its digest was recorded at
--sizes 10,20, of which quenched read only the largest.
`.meta` files are not pinned: they carry the package version.
"""
import hashlib

import pytest

from hslg_lab import cli

SMALL = ["--sizes", "10,20", "--samples", "40"]

# name -> (argv, where the bytes are: "stdout" or an --out file name)
CASES = {
    "simulate_endpoint": (["simulate", "endpoint", "--n", "9", "--seed", "3"], "stdout"),
    "simulate_path": (["simulate", "path", "--n", "9", "--seed", "3", "--count", "50"],
                      "stdout"),
    "simulate_ensemble": (["simulate", "ensemble", "--n", "9", "--kmax", "4", "--seed", "3"],
                          "stdout"),
    "env_gen_float": (["env", "gen", "--n", "5"], "env.txt"),
    "env_gen_exact": (["env", "gen", "--n", "5", "--precision", "exact"], "env.txt"),
    "verify_identity": (["verify", "identity"], "stdout"),
    "verify_lgv": (["verify", "lgv"], "stdout"),
    "verify_sbd": (["verify", "sbd"], "stdout"),
    "verify_gibbs": (["verify", "gibbs"], "stdout"),
    "experiment_pinning": (["experiment", "pinning"] + SMALL, "out.csv"),
    "experiment_walk": (["experiment", "walk"] + SMALL, "out.csv"),
    "experiment_lln": (["experiment", "lln", "--alpha", "-0.3"] + SMALL
                       + ["--small-sizes", "7,9", "--small-samples", "3"], "out.csv"),
    "experiment_quenched": (["experiment", "quenched", "--sizes", "20", "--samples", "40",
                             "--walk-samples", "200"], "out.csv"),
    "experiment_fluct": (["experiment", "fluct"] + SMALL, "out.csv"),
    "experiment_walk_stationary": (["experiment", "walk", "--flavor", "stationary",
                                    "--sizes", "10,20", "--samples", "640"], "out.csv"),
}

DIGESTS = {
    "env_gen_exact": "02ea63f583c54027aa5d6fdb9a1b6e3c337ddd672ee5404a18d34d885de72426",
    "env_gen_float": "1c01696aee54d6218c29206da8e5c0a6f829021a238b85e2bbf1b5a39f054392",
    "experiment_lln": "57f01e57dac942c6e253c2e79c21a4d3ade44becd48da04f1b4da9693b079dca",
    "experiment_fluct": "6c21816882ff4b916ad868454c3d3ce7b409eb016394c9e902c7c664708357fb",
    "experiment_pinning": "830192eaec4c63ad8855ee8632f4b05f4bd52246684145df2003aeffa8fdcdbd",
    "experiment_quenched": "7ac83ad4d5001c7177cdd917c77ecbb7021b00b6bef5666bcbdfec57c5a8c964",
    "experiment_walk": "b611a1f85f30742214e17570d460e65ef212d4024512555a56c64eca0b09e3db",
    "experiment_walk_stationary":
        "f8c51c29f1dbe76b99ee5890acc4646c493e3c0ed24703cb03ac6753e2e246a0",
    "simulate_endpoint": "cdc08db20d516b9860785c6861b0985a871c5e3d16cafb957f67b66fd12b47de",
    "simulate_ensemble": "c6cd4839911bddddae76f8f56f3e8da03a5111105f0729790abb589f18d4a8a9",
    "simulate_path": "740d6bd5421a995c2dcd6ecaec74ad8943af9e5950316e84fb5d610e8153ffd8",
    "verify_gibbs": "2044e6490ee7083d4978ac1953c8070d5954422f855e09d32c5c61d34725bbb9",
    "verify_identity": "51f54d9c406fbb2e43395f5480f3758cc60e71f99978fdd1b6e4edf6a6bff785",
    "verify_lgv": "fcc2dacc1f85e48f9dd79fc93cdaf7c107fbf29de188d0e210f96399f0f728ad",
    "verify_sbd": "28f6624800ab4b41d3367d53ae4b0061ab11b9e1a8dabe2aa7663f7ddd160597",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HSLG_LAB_SEED", raising=False)
    argv, where = CASES[name]
    if where != "stdout":
        argv = argv + ["--out", str(tmp_path / where)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    data = out.encode() if where == "stdout" else (tmp_path / where).read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
