"""Golden artifacts: every CLI command, in both formats, byte for byte.

Each case runs ``cli.run`` on a small fixed config and seed and compares the
sha256 of the whole artifact (metadata lines included) with a recorded
digest.  A refactor that changes any byte of any artifact fails here.  After
a deliberate change of the output, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and review it before pasting:
its last line names the entries that differ from ``GOLDEN``, or says that no
digest moved.
"""

import hashlib
import json
import os
import sys

import pytest

import cevpolar as cp
from cevpolar.cli import run

CONFIGS = {
    "ell": {"radial": {"kind": "rayleigh"},
            "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
            "angular": {"kind": "uniform"}},
    "lp3": {"radial": {"kind": "weibull", "params": {"shape": 1.0}},
            "curve": {"kind": "lp", "params": {"p": 3.0, "rho": 0.0}},
            "angular": {"kind": "uniform"}},
    # the only sheared lp curve: its levels of v have no closed form
    "lp3s": {"radial": {"kind": "weibull", "params": {"shape": 1.0}},
             "curve": {"kind": "lp", "params": {"p": 3.0, "rho": 0.4}},
             "angular": {"kind": "uniform"}},
    "mix": {"mixture": {"p": 0.4, "rho": 0.8, "tau_mix": -0.4}},
    "dec": {"curve": {"kind": "elliptical", "params": {"rho": 0.3}},
            "profile": "gaussian", "ridge_weight": True},
    "exp": {"radial": {"kind": "exponential", "params": {"rate": 1.0}},
            "curve": {"kind": "power",
                      "params": {"t0": 0.5, "kappa": 2.0, "delta": 1.0, "c_minus": 0.4,
                                 "c_plus": 0.6, "lambda_v": 1.0, "rho": 0.3}},
            "angular": {"kind": "power",
                        "params": {"t0": 0.5, "tau": 0.5, "g_minus_frac": 0.4,
                                   "window": 0.2}}},
    # serialized laws: a von Mises grid cache, and the numeric radial and
    # tabulated angular laws of a decomposed density
    "vm": {"radial": cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s)).to_dict(),
           "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
           "angular": {"kind": "uniform"}},
    "num": cp.decompose_density(cp.standard_normal_profile,
                                cp.elliptical_curve(0.3)).to_dict(),
}

#: argv of each case; "{name}" stands for the path of CONFIGS[name]
CASES = {
    "limit": ("limit", "--eta", "2", "--zeta", "1", "--grid", "-2:2:1"),
    "simulate-joint": ("simulate", "-c", "{ell}", "--n", "2000", "--seed", "7"),
    "simulate-conditional": ("simulate", "-c", "{ell}", "--n", "2000", "--seed", "7",
                             "--threshold", "3.0"),
    # about 50,000 rows: a table large enough to format in parallel
    "simulate-conditional-large": ("simulate", "-c", "{ell}", "--n", "100000", "--seed", "7",
                                   "--threshold", "4.5"),
    "simulate-conditional-vm": ("simulate", "-c", "{vm}", "--n", "2000", "--seed", "7",
                                "--threshold", "3.0"),
    # the numeric radial law's inversion: no other case samples it
    "simulate-conditional-num": ("simulate", "-c", "{num}", "--n", "2000", "--seed", "7",
                                 "--threshold", "3.0"),
    "simulate-mixture": ("simulate", "-c", "{mix}", "--n", "2000", "--seed", "7"),
    "verify": ("verify", "-c", "{ell}", "--levels", "0.99,0.999", "--n", "2000",
               "--seed", "11"),
    "verify-lp3": ("verify", "-c", "{lp3}", "--levels", "0.99,0.999", "--n", "2000",
                   "--seed", "11"),
    "verify-lp3s": ("verify", "-c", "{lp3s}", "--levels", "0.99,0.999", "--n", "2000",
                    "--seed", "11"),
    # exp needs deep levels: at 0.99, psi(t)/t falls outside its curve's window
    "verify-exp": ("verify", "-c", "{exp}", "--levels", "0.9999,0.99999", "--n", "2000",
                   "--seed", "11"),
    "tail-ell": ("tail", "-c", "{ell}", "--x-grid", "2:6:2"),
    "tail-lp3": ("tail", "-c", "{lp3}", "--x-grid", "4:12:4"),
    "tail-exp": ("tail", "-c", "{exp}", "--x-grid", "20:40:10"),
    "tail-vm": ("tail", "-c", "{vm}", "--x-grid", "2:6:2"),
    "tail-num": ("tail", "-c", "{num}", "--x-grid", "2:6:2"),
    "independence": ("independence", "-c", "{ell}", "--t-grid", "2:3:1"),
    "independence-lp3": ("independence", "-c", "{lp3}", "--t-grid", "2:3:1"),
    "independence-lp3s": ("independence", "-c", "{lp3s}", "--t-grid", "2:3:1"),
    "independence-exp": ("independence", "-c", "{exp}", "--t-grid", "4:5:1"),
    # the benchmark's depth: levels up to 1e6, where the Y-tail hints sit closest to the top of v
    "independence-deep": ("independence", "-c", "{ell}", "--t-grid", "4:6:1"),
    "independence-lp3-deep": ("independence", "-c", "{lp3}", "--t-grid", "4:6:1"),
    "second-order": ("second-order", "-c", "{ell}", "--x-grid", "6:8:2",
                     "--z-grid", "-1:1:1"),
    "decompose": ("decompose", "-c", "{dec}", "--points", "5"),
}

GOLDEN = {
    "decompose.csv":
        "22dd9d2c3f97c0be39106a89c1c83ce3310821ece7f24e9d60efdf990ae90d10",
    "decompose.json":
        "31d6906ba1903bef57a2e1ad8d147fbd5e37428fcd1343a388712abdb95d6d3f",
    "independence.csv":
        "097eb9e8e9f445c729f73d3b5002c4bd57ba07c053ad82f709042b0136fe0bce",
    "independence.json":
        "daa7cf63fee3077a6791a66f8902f23006ba23c11a67b69d5cdb7657539269de",
    "independence-deep.csv":
        "c1e23e8b225d13b8f034398db19c692d07e5fad19bdd4236182690f94d68c867",
    "independence-deep.json":
        "533ffd8b4a294b0c3d1784296966fffbb67c9bc3f17234e163ab34f71e8ee393",
    "independence-exp.csv":
        "7058b8911066fd1e3ab43a532b251d6680e76054a2c7b84ac9363aa155ec8478",
    "independence-exp.json":
        "d518b3360b0c06fe2cb6629386510586c86aeb4dd19075fcb76553b637d5019c",
    "independence-lp3.csv":
        "f9a806f6b3fe5253405020e3192f3cd6116ca9f99f78e7cada37c7589b020bb4",
    "independence-lp3.json":
        "bf993b69186ee76d27c27c89eb78f4aa73013218f5f7198d8268fbf273f9ea15",
    "independence-lp3-deep.csv":
        "b9e0d806e2eb13f10c3ed5008cfce343f295d953e057f03b4a6132657d7f2120",
    "independence-lp3-deep.json":
        "d50c39ad2f47ad85ff0fbb35336579ce3777da45397118423f49918dfa479cdb",
    "independence-lp3s.csv":
        "87ad03e275878dc235e52574e42870192f5d92d83973dc0e3a58364ea98a3842",
    "independence-lp3s.json":
        "1e9f3628d480c2755febb3a1148b3879275df233b1530a3e4cc6baab297ff628",
    "limit.csv":
        "370cf0edb55574acac4153fd827f94258bd63f3519737d06d770274e31c720a6",
    "limit.json":
        "1bb162be9470b55c259bbfbd671217386ca85320234a3d258e461ef264e625ad",
    "second-order.csv":
        "2f82a4a0aa03004e707538d829d4d7abd4177ee33e875a29a98091e563958192",
    "second-order.json":
        "d079caca9049bfca3d11f48c764485873170713219c9039804efd56a8655940b",
    "simulate-conditional.csv":
        "8c460e9b975603df8caaa5ce56aafe51c552d3545cccae74ad6f403dbca0fb90",
    "simulate-conditional.json":
        "abb2c49c73fad49b5db9fa06109d61dbd730347ed85cdf050efa010ae4fac9f9",
    "simulate-conditional-large.csv":
        "c3f19b4d45b7b62b45fa4518b62788c2f017367a41908400297184054bbe4181",
    "simulate-conditional-large.json":
        "876f26e6c7906133fc9e0743230ff62dc14bf934b9c312ac5c8e8822b2cc4f5f",
    "simulate-conditional-vm.csv":
        "6a11a916097ac0cde6fe1e291ee9b8ac22def5965d2d23c1a755d439d0c63b98",
    "simulate-conditional-vm.json":
        "5dad4ed57f595d52dbeb2ef7933f3623e3f67df659d058efdcda5bdab4e58444",
    "simulate-conditional-num.csv":
        "0cbbbeeed90c04fc118be969bd02f778fcf95ccf0aa06ae4365e4a1c2083196a",
    "simulate-conditional-num.json":
        "af372e3400d6994235f26654b05cc17bf1e3ffc65178c02f458607ae046a0d7f",
    "simulate-joint.csv":
        "5bc0c9ffca3320ebe79bbdb228564b8c5285c72224817eb778d325c72e153535",
    "simulate-joint.json":
        "f246ebd03db8ebd513475b7e85e676e951db3a8430b14edf6dca94f9b9ccad61",
    "simulate-mixture.csv":
        "a91d21887b3356e6c409669d51f6eed0def4e0547e90fbdc52f4a537d01736da",
    "simulate-mixture.json":
        "68f2519c4f69b3ebbe905c6fa5f08922c87e6b255647fb3b3dc03cd4c67c7ed0",
    "tail-ell.csv":
        "3ffe87b59cd36eb040e2878ff38ce5370a5fc95578b56a97258152b2c59e37e3",
    "tail-ell.json":
        "f78a4ff51dad7a282a71306b3ebe6cf8323210be275e3ab8fc955eb6a6a5919c",
    "tail-exp.csv":
        "832ac521c7dc36f7be5027fdf5043377adf59727ed7bf367cb6228e7b733024a",
    "tail-exp.json":
        "e47b6dcc2980f50498b7ca3ff738481206cf589832a8851377d48a6de28bd11c",
    "tail-lp3.csv":
        "f81acdb9ef6abd9ff37d821708bd656e3bab52bafdf01f271e55535b618fc218",
    "tail-lp3.json":
        "4c3d7bc21c9109f723f7e2ffd187f602d9100bda4c8160a73b267e9dbd9185bf",
    "tail-num.csv":
        "c9654647ab27fd19ba538c139c74ab0ae93fa1a1ff37d96901af6610e473653c",
    "tail-num.json":
        "03235feaaa9425e5235d4f17d7a0864a555b7fa8ef2886144e84d1dec8a6a3f7",
    "tail-vm.csv":
        "dbbb903a71252925ab82cea5f2c7f67ea101d89c2ebd91a2dd7e7ce6f75fb9fd",
    "tail-vm.json":
        "5e112b38c1bd1226c650863dcf4df44964dfb7091727a7ecfa4ec9aa09ab303a",
    "verify.csv":
        "c07905d3901aeab6314365dc5774859eae6432b0b359c06087a0e74595c5d0b5",
    "verify.json":
        "37dbb95243bb6855e4437d51a88e418f6a45878784bbacf9fea97a9c9c5c26ea",
    "verify-exp.csv":
        "dc5988947c37d03d1b0b2e430e9158197e792ede6d10b4accc36651282fbf5df",
    "verify-exp.json":
        "f39f53dc2b4029a844b011c29b260538cf2932d152511486eac9e020120fb30e",
    "verify-lp3.csv":
        "c6ac3a8535a3a7d0e556b9dc566f037bb0e1d2f642e16cdbad989f71c75e60c3",
    "verify-lp3.json":
        "971ac4190555940a2d9345c100a4d5dbccdd0696a6ee4bc2df2e730d0d4c3b5c",
    "verify-lp3s.csv":
        "c4c2ce71ede06d4f9aa1f45d76e5b230d0699116621b8ad11cdc2f5adb3ab357",
    "verify-lp3s.json":
        "5933d4853401de927cd3049de711dc292d0c9b0bf184e206d23b77e432717657",
}


def artifact_digest(work_dir, case, fmt):
    """sha256 of the artifact that one case writes in the given format."""
    paths = {}
    for name, cfg in CONFIGS.items():
        paths[name] = os.path.join(work_dir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh)
    out = os.path.join(work_dir, f"{case}.{fmt}")
    argv = [arg.format(**paths) for arg in CASES[case]]
    code = run(argv + ["--format", fmt, "-o", out])
    assert code == 0, f"{case} exited {code}"
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_matches_golden_digest(tmp_path, case, fmt):
    assert artifact_digest(str(tmp_path), case, fmt) == GOLDEN[f"{case}.{fmt}"]


if __name__ == "__main__":
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fmt in ("csv", "json"):
                table[f"{case}.{fmt}"] = digest = artifact_digest(tmp, case, fmt)
                sys.stdout.write(f'    "{case}.{fmt}":\n        "{digest}",\n')
    moved = sorted(key for key in {*GOLDEN, *table} if GOLDEN.get(key) != table.get(key))
    sys.stdout.write(f"# moved: {', '.join(moved)}\n" if moved else "# no digest moved\n")
    sys.exit(1 if moved else 0)
