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
    "env_gen_exact": "c8b62887a8afd73a8c475659591e5e961395bd430b687c31aa2735aa454f4767",
    "env_gen_float": "88b75ff39352d68046b6b258babebcc3788b26d9d5356b188ab6dda8dd1d7dca",
    "experiment_lln": "12ddbd5494a74521ccee88ffa69bdfff561e6aef90850612cfc06ad134385bf1",
    "experiment_fluct": "e869ec41b90e450117a35e1d5bd722304321783ecd3e4c18f58c01da053e90d8",
    "experiment_pinning": "902f084423bdf2de1b06d74967cffccc6aeb3b134c1a1214ec28dcf0263a7813",
    "experiment_quenched": "5d28ff560ef2056219e4a2f615f00d93e129587664a0b57da2705675cf4e08b8",
    "experiment_walk": "01cc033102749287e61ea36f1adf7d92069fd877937757468ad5ef2ec2076ca1",
    "experiment_walk_stationary":
        "b1c037f69a359cb4eecb57ea1b16f7f517f1bf6b28df7a9662197fb81a8ae620",
    "simulate_endpoint": "8f9b4021f63a5f8830200a96691f3889fda80749e5b739329f965a32d85bc1e2",
    "simulate_ensemble": "c3e87a11c0efe6c1d220a55450aa7fc64098001c2979ce663c9526c7cbddde1c",
    "simulate_path": "0f9835138ee859a48dff8a572786d95667aecf0da4dd7cbb7cbbd4139f45f6d8",
    "verify_gibbs": "e7de75e095312b1e7baf46241364f7772da0ea7b4717c52487ebc935ab05ae52",
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
