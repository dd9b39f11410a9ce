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
beyond 0 (the distance moved in its last digit).
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
    "experiment_lln": "9a95954d132c38e6eb99da681eeec770aadf19339d3ae6a5058badd704529495",
    "experiment_fluct": "80b97aaafbd9064e9d67c586e4503a7c1fde1f68567e9e289473bbb3b34b9515",
    "experiment_pinning": "f5fa2401b07cea5599e24f8926a55046822781a841ed23e76ee73b3827def9f1",
    "experiment_quenched": "cd4644fccbd72729afd7bc964993e5e026870e3acd5d8fb6323d2f5561182ebd",
    "experiment_walk": "a2c54eb3f3b806d27f4bce25a0efa2142f26cd529eb5ececa3edc5ad1931f011",
    "experiment_walk_stationary":
        "385982ef4e38f79c0ec5044a2d9cc9d79b85642c45432311bc818939f866afb6",
    "simulate_endpoint": "8f9b4021f63a5f8830200a96691f3889fda80749e5b739329f965a32d85bc1e2",
    "simulate_ensemble": "c3e87a11c0efe6c1d220a55450aa7fc64098001c2979ce663c9526c7cbddde1c",
    "simulate_path": "0f9835138ee859a48dff8a572786d95667aecf0da4dd7cbb7cbbd4139f45f6d8",
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
