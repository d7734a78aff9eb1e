"""Golden-bytes gate: every file `cli.main` writes must keep its exact bytes.

Each case runs the CLI in both output formats and compares the sha256 of
every written file with the digest recorded here. The cases are every file
in `configs/` plus configs for the commands and modes those files do not
reach: a `field` run with the pair table, a `protocol` run, a `montecarlo`
run with gradient and common-mode noise on, a 20,000-shot one with gradient
noise whose outcome counts a relative libm error of 1e-3 moves, `montecarlo`
runs at full contrast whose every shot is even or every shot is odd, a
double-well scan that walks to `_MAX_SCAN_DELTA_N` without a detectable
imbalance, computed-mode scenarios with noise, a computed-mode molecular,
double-well and GHZ-chain run each with preparation fidelity 0.93, readout
contrast 0.85 and gradient noise (every file that prints the fringe
contrast moves if the readout factor is dropped), and two long all-float
tables (a 2,000-step `protocol` run whose phase wraps about 2,900 times and
a 500-point `field` run).

The digests were recorded with numpy 2.4.6 and its bundled LAPACK on x86-64.
The crystal solve goes through LAPACK, so another numpy or LAPACK build may
move a last bit; re-record only after checking that a difference comes from
the platform and not from a code change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from iongradim import estimation, rng
from iongradim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

EXTRA_CONFIGS = {
    "field_pair": """\
command = field
source_moment_j_per_t = 9.2847647043e-24
source_z_m = 0.0
z_start_m = 1e-6
z_stop_m = 5e-6
n_points = 41
pair_z1_m = 1.03e-6
pair_z2_m = 2.06e-6
""",
    "protocol": """\
command = protocol
delta_b_t = 6.8e-13
duration_s = 30
n_steps = 61
contrast = 0.95
g_factor = 2.002
""",
    "montecarlo_noise": """\
command = montecarlo
shots = 500
interaction_time_s = 0.01
delta_b_t = 1e-12
bias_phase_rad = 0.7
gradient_rms_t_per_m = 5e-4
common_mode_rms_t = 1e-9
contrast = 0.9
probe_spacing_m = 1.03e-6
seed = 11
""",
    "montecarlo_noise_20k_shots": """\
command = montecarlo
shots = 20000
interaction_time_s = 0.01
delta_b_t = 1e-12
bias_phase_rad = 0.7
gradient_rms_t_per_m = 5e-4
contrast = 0.9
probe_spacing_m = 1.03e-6
seed = 11
""",
    "three_ion_spin_computed_noise": """\
command = scenario
scenario = three_ion_spin
shots = 40
interaction_time_s = 2.0
gradient_rms_t_per_m = 1e-6
common_mode_rms_t = 1e-9
readout_contrast = 0.9
seed = 5
""",
    "molecular_state_change": """\
command = scenario
scenario = molecular_state_change
moment_before_j_per_t = 9.2847647043e-24
moment_after_j_per_t = 4.6e-24
seed = 3
""",
    "double_well_scan_to_cap": """\
command = scenario
scenario = double_well
well_separation_m = 4.4e-6
probe_spacing_m = 3.5e-6
atom_moment_j_per_t = 9.274e-24
delta_n = 3
interaction_time_s = 3e-8
shots = 50
g_factor = 2.002
seed = 13
""",
    "montecarlo_full_contrast_even": """\
command = montecarlo
shots = 300
interaction_time_s = 0.5
delta_b_t = 0
contrast = 1
seed = 4
""",
    "montecarlo_full_contrast_odd": """\
command = montecarlo
shots = 300
interaction_time_s = 0.5
delta_b_t = 0
bias_phase_rad = 3.141592653589793
contrast = 1
seed = 4
""",
    "protocol_long_wrapping": """\
command = protocol
delta_b_t = 2.5e-9
duration_s = 41.5
n_steps = 2000
contrast = 0.87
g_factor = 2.002
""",
    "field_500": """\
command = field
source_moment_j_per_t = -1.3e-23
source_z_m = 2.5e-7
z_start_m = -3e-6
z_stop_m = -4.2e-5
n_points = 500
pair_z1_m = -1.1e-6
pair_z2_m = -4.9e-6
""",
    "molecular_state_change_readout": """\
command = scenario
scenario = molecular_state_change
moment_before_j_per_t = 9.2847647043e-24
moment_after_j_per_t = 7.1e-24
interaction_time_s = 1.5
preparation_fidelity = 0.93
readout_contrast = 0.85
gradient_rms_t_per_m = 2e-7
seed = 21
""",
    "double_well_readout": """\
command = scenario
scenario = double_well
well_separation_m = 4.4e-6
probe_spacing_m = 3.5e-6
delta_n = 4
interaction_time_s = 0.8
shots = 200
preparation_fidelity = 0.93
readout_contrast = 0.85
gradient_rms_t_per_m = 2e-7
seed = 21
""",
    "ghz_chain_readout": """\
command = scenario
scenario = ghz_chain
interaction_time_s = 3.0
preparation_fidelity = 0.93
readout_contrast = 0.85
gradient_rms_t_per_m = 2e-7
seed = 21
""",
}


def _config_text(name: str) -> str:
    if name in EXTRA_CONFIGS:
        return EXTRA_CONFIGS[name]
    return (CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8")


def _digests(tmp_path, name: str, fmt: str) -> dict[str, str]:
    config = tmp_path / f"{name}.cfg"
    config.write_text(_config_text(name), encoding="utf-8")
    out = tmp_path / f"{name}-{fmt}"
    assert main(["--config", str(config), "--out", str(out), "--format", fmt]) == 0
    return _file_digests(out)


def _file_digests(out: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


GOLDEN: dict[tuple[str, str], dict[str, str]] = {
    ("crystal_three_ion", "csv"): {
        "positions.csv":
            "86ecf117e8de1deeec77f6186aca5cba341524178d464abdd4d46f0663838138",
        "provenance.txt":
            "7b99b046f2db1897bf0beae03315cc6f14700d27c079240881c36a0ef070171f",
        "spacings.csv":
            "45899fa2a4ac6305f0f6f3050d4cf675309cfae42e8f906a8c2c61c0e2e4ef17",
        "summary.csv":
            "977bd3344f7306df91a00bcc188570d30f20b05352d7ae22f10184cc11442e83",
    },
    ("crystal_three_ion", "text"): {
        "report.txt":
            "8e23c46ac1b901e0d06eeb25372d05d4f95f0483352733d92fe9b8ce07c13b8a",
    },
    ("double_well", "csv"): {
        "estimation.csv":
            "79b39ce3149cbada82b6dbecc5d3ef3deeceb847b2633217ca4bce99afcb939a",
        "field_table.csv":
            "970cc311ac92c400db2c6715562f2760d9b6b262ffdd70241723f280603df95c",
        "geometry.csv":
            "f106cf68774dd67765f9a8b39312f63156466fc66e088380956565f884100ba9",
        "parity_trajectory_imbalance_evolution.csv":
            "f2c58d197a5e805e15b4da45722f1aaf275b64db4ceb91666582d4f64e40c2ab",
        "provenance.txt":
            "7a920df1433dace0c0ed684cf21c13002816bb62eeae3cb246a70ef88addda9f",
    },
    ("double_well", "text"): {
        "report.txt":
            "7abbd8c1aec90b2e70a3403adc3edab3bdbc90ff2ac6da21ec71327ba911b3e6",
    },
    ("double_well_readout", "csv"): {
        "estimation.csv":
            "ac7660a4ad0970be5990f34994be66bfb9fe922a1559d253adad131406a23b62",
        "field_table.csv":
            "35e0666faeee78eb603cb246445fffe035c4c514f471068e947e9084f81556aa",
        "geometry.csv":
            "5e2f3ca0bbfe68b2eaeb105bf04547eef784175529980f72b7213a90cf5bf452",
        "parity_trajectory_imbalance_evolution.csv":
            "1b3f6c41ef43a6726d8d4168bde2d3036959fc4987be7ce3732d6376096d394f",
        "provenance.txt":
            "4a5b8a49ecc734bafb67eb643fad62b80bdf3becf4d8585e356be7a863f4f528",
    },
    ("double_well_readout", "text"): {
        "report.txt":
            "2c2f07bce78d48280d9c9188c8a84b3429fc71132a36e419f7c974ed45896f1a",
    },
    ("double_well_scan_to_cap", "csv"): {
        "estimation.csv":
            "dfac7e76848c7af2c1981af78d4b0aa297921d6b3578b2505fbbe89d794aee63",
        "field_table.csv":
            "46e8c53f98e7229db9774c30660c4587f1ebcdf6b6948acb19c167855a2743ae",
        "geometry.csv":
            "5749a5b8c272f921c9460029c28879f22ea369675ccb8063b26879b844189a0d",
        "parity_trajectory_imbalance_evolution.csv":
            "b612807b035e2471e383448071460b3c6b8a87b42f8d4e0dc8ea690fade0d626",
        "provenance.txt":
            "ac4008561f06985e2ffe07fd0459c7f11efeaf89ce9895e2ffee447e29c01b28",
    },
    ("double_well_scan_to_cap", "text"): {
        "report.txt":
            "d107134e9441263d61fdb4e8b28873318706732d552b8174b9dfa416d8fef1a1",
    },
    ("field_500", "csv"): {
        "axial_field.csv":
            "16f015ffc0a835683f05eece915648f469e79b059eefc733b359093d76eb5cf0",
        "pair_differential.csv":
            "f87f59c9a11badfd4237879d01cdd476ef0b2b401a4e160ff02b4db60039a36c",
        "provenance.txt":
            "61c1093aed303d178419ba471e6c9b7b799a3545a7cc26f5a86ad7463c2636f5",
    },
    ("field_500", "text"): {
        "report.txt":
            "5a92313be640bf601425fa7e66b3c64b6d8a8c17425e22acadfd192de3b24d8f",
    },
    ("field_pair", "csv"): {
        "axial_field.csv":
            "e30b6d12ca61f0b5d8e26b287337b9b5a02f14d212b51352e0ece3ed69e1644e",
        "pair_differential.csv":
            "55892eb45ee280647085ed2d342285d13b2f80d31d26c1b2a64e8e9612fdb4ea",
        "provenance.txt":
            "2f6993540c42d93049b693e75adbc8af4a59123f6c02cc02e367868c141d7271",
    },
    ("field_pair", "text"): {
        "report.txt":
            "dca89d1e9d8e6012708b90a48882d0cd4e1c6a1db664517e16e84353d5a98287",
    },
    ("ghz_chain", "csv"): {
        "estimation.csv":
            "caccdc334b50189d73342d13b588f5ff668b6d15b5d7ccfe33ee5747a2a26db7",
        "field_table.csv":
            "7b8afb06a0cf097ef62f6dc52fd021ed700acf9608f5d4a230bfe35c699d4e80",
        "geometry.csv":
            "009da8867e9c6383358fb56c7aeaf4696ff5f986267546a788e7f87df0441125",
        "parity_trajectory_bell_side_pair.csv":
            "badd649a61d2ddebb62e5af7575de9639ae5730b792b6359403b28331da25d49",
        "parity_trajectory_ghz.csv":
            "4f94fdf6b1c255a4f3b0653b08b5b988cb0ccf1691049de66097a72d94553a9a",
        "provenance.txt":
            "ef576b2d0fb72fd2bf351c4f84dec05f79f1cda2bb7ecfab4eb0aee1c2d325fd",
    },
    ("ghz_chain", "text"): {
        "report.txt":
            "05fe8cde32c595aeb368eef2a62183f6a3b0e1d0f7d4d0ea034ed7c5387da6bb",
    },
    ("ghz_chain_readout", "csv"): {
        "estimation.csv":
            "50725383aa1043c0a21f394f0b7908c21aea60ad8252037f02624038c56ec398",
        "field_table.csv":
            "bc493007d1b3b8a8bbfe02b5a7ae04662ef73345b7691c803e66bee14cc16269",
        "geometry.csv":
            "046e76480172e01d389d3eb6b8db5a13510c93985084f74d6a317a1e2a3ccde4",
        "parity_trajectory_bell_side_pair.csv":
            "e6a555b723ba1913c77d5778982b33f22a0130e5b58650fd1cec6677f06d8585",
        "parity_trajectory_ghz.csv":
            "d84f3eb8f2beb73249985698fedda603bdedfa4ba55ea5906af11b06a636904c",
        "provenance.txt":
            "6b72cf06c693200e1015a92137c87878f12e4961156001c99006440ed4436f66",
    },
    ("ghz_chain_readout", "text"): {
        "report.txt":
            "ae377a81d89c6b7f9a78a9c48eecc2b5fb86f005f841d4a39e344e8788eb406e",
    },
    ("molecular_state_change", "csv"): {
        "estimation.csv":
            "f73fe5c4b622cf8023515dc79b6188f04c84f3d5ec31f310adb4f63bf2f7a8b5",
        "field_table.csv":
            "8c6a3e2c115ccf29de887332d497910d33425d7880c7dc5c8330462fe6d88a9d",
        "geometry.csv":
            "fbab81a47f2126587b49c968c9cb8deb4e44589adc2b4bfd53b518ff1f7be90f",
        "parity_trajectory_moment_after.csv":
            "33c9849a37f76c15606a74118b1a03e3cdc3d337134fab63aea06792b1bb9fa8",
        "parity_trajectory_moment_before.csv":
            "c9ee22b53eec39f033939b447a8cbcee3db65e980aada127944f1a6fbb62c729",
        "provenance.txt":
            "c8762ec75359428be29bf3381f4c2e664783a1c975c4c60c380eba0f326fee6f",
    },
    ("molecular_state_change", "text"): {
        "report.txt":
            "29a3b818c8adeb6875ff7f324628f38267a08f7a66c8cbf29e455884872e6586",
    },
    ("molecular_state_change_readout", "csv"): {
        "estimation.csv":
            "87d5877466a0c836a587ade1aa723998f7940ae9badf77293a53ded80eb9d5f7",
        "field_table.csv":
            "4a7b4a2f7590610286d73b0de0f16f83b1bb0fa19e649a91fb04babf98f07e71",
        "geometry.csv":
            "a3112ebc0e348af8604ac3dfc61d8122d29dfb9a0dd2c3c67d1e78ddfa437e50",
        "parity_trajectory_moment_after.csv":
            "b15252fb687a932964ab6e3fe2b8a794459a9469f271f477e261516714f3e582",
        "parity_trajectory_moment_before.csv":
            "38649a71af9dfd3dff962952e825d131f09d36c04cd94cc66801b793871268e1",
        "provenance.txt":
            "aba4ad08395d9b5ecf2b343d2d1315427029f6501f5a436c412c2bba27e26bea",
    },
    ("molecular_state_change_readout", "text"): {
        "report.txt":
            "0252e235114562700af382b876904b3fe47aaf04a756bbdf3b046fc85f6a1283",
    },
    ("montecarlo_full_contrast_even", "csv"): {
        "estimate.csv":
            "836d5c32f7a86cfa4a2784f543369fa36278ba8148d3d07804fe7ae951476593",
        "outcome_counts.csv":
            "ba41b2c36372e7c9498d299cc1d8fcf0cec95fa0e62aa7125eb5085c8d777612",
        "provenance.txt":
            "2913d868d27a989bb11b9d150208065d8ebe20cf4b001f0c592c39bfe47270a1",
    },
    ("montecarlo_full_contrast_even", "text"): {
        "report.txt":
            "9dd2907abb70028c09816c8f61e71377124993498d02e8671605fd6dc3f9ce13",
    },
    ("montecarlo_full_contrast_odd", "csv"): {
        "estimate.csv":
            "115cc75817d435c82844b4103bade151e7df86369c48a0d6fbd5c3b80b4f24a4",
        "outcome_counts.csv":
            "d699592e780c90cdf1aa954318ad7649559f7fbeaef59d7af802ce35d19abb76",
        "provenance.txt":
            "b553836c9c45c2dbc4c31096e69f28ee540c6c3bf44f331503fd2b64b596d8b4",
    },
    ("montecarlo_full_contrast_odd", "text"): {
        "report.txt":
            "a350ddd8e6949639cb3f8c20748af3592f5cfc68ff9c9d8655c27c67a5bf7a22",
    },
    ("montecarlo_noise", "csv"): {
        "estimate.csv":
            "58e07e5db5ae2e8048d19f100c99df422319bf1feb8919564ce559b24a39a823",
        "outcome_counts.csv":
            "523feb569cd9b8c825866f619ad3a593d733d94ae4de20ca82edb46354c4b166",
        "provenance.txt":
            "b3eedd0cb3d94406375a9cbaefa0689c7030074caf7f52701e458a5d0c93aef5",
    },
    ("montecarlo_noise", "text"): {
        "report.txt":
            "034b5b4948a2ac18cb345fad2a5e90af8fe960d5a68251daa495c138cdc96c77",
    },
    ("montecarlo_noise_20k_shots", "csv"): {
        "estimate.csv":
            "d361e896d0aa29156e9b94efdec55ef98fba9c426e3eb19d798a7b7087acdcba",
        "outcome_counts.csv":
            "0ca6840ad73eeda918137fd10d71de205000c97ce7f5fa1cb053ff4d00a0ac65",
        "provenance.txt":
            "633e9ce82bf982a0d67bde07c15e42a858c7464b2c9f1e9a9b3f7394460fd229",
    },
    ("montecarlo_noise_20k_shots", "text"): {
        "report.txt":
            "12b9999f06655325208f0e69a4ad2c266101020218d481955dffd2e3bee8a84e",
    },
    ("protocol", "csv"): {
        "parity_trajectory.csv":
            "97c6c0962ecb97f80a81f12d0e981f1c0271ce58455ff6217291106e7127e93e",
        "provenance.txt":
            "2d237da2df79d76d826dec468d595a623471f94534eb784da80e17fcc633bcd8",
        "summary.csv":
            "3d21e5e3d68f6235fde8389e4c279cd99fe33a0c25fd0398c9c5f43380db6c5b",
    },
    ("protocol", "text"): {
        "report.txt":
            "bcbba2d9f4b9f618804232796da5e542c689fd24ef62cf788caefee02db999d0",
    },
    ("protocol_long_wrapping", "csv"): {
        "parity_trajectory.csv":
            "f35ea37f9b613c8d39226f508145f73414f64529a2b84987c69691dd48314df1",
        "provenance.txt":
            "93533f8334970faed4b2e2426f5c92ffcb15a1225a08e6241d17f6cbedee003b",
        "summary.csv":
            "6583fd88309d1f618c1b31d84f33d3e72713545ecdb2815ed3ef2b2c24804d09",
    },
    ("protocol_long_wrapping", "text"): {
        "report.txt":
            "7045568df183270c9f0fab7648282219039ded944c2a9de41efcd2bbd8f2977d",
    },
    ("three_ion_spin", "csv"): {
        "estimation.csv":
            "091a55d4d1a3235e7b2c3fd530ee08f98c8b26a92f33c85d5aed05521b84af83",
        "field_table.csv":
            "cb51bdf1327d2fc09a532b55c4073a43c4bc20de144f7a48db5e7a606d67b482",
        "geometry.csv":
            "5b8caa958297175d44558835382fe03b02ccd93ba722de2e43aa6a59c3087382",
        "parity_trajectory_compensated_spin_down.csv":
            "d450cd78a6c44afa32d9d81c83220efdce26797613fc2c7890b8becb7007610b",
        "parity_trajectory_compensated_spin_up.csv":
            "e204a7ba62e6ebdb36738fac0f66c0b9dd9595d230957c083eacc306bfff9f2c",
        "parity_trajectory_free_evolution.csv":
            "2621da8086655a277d12a292750b47d1843b6baf2bd96bd6a8109b2b2a4f470a",
        "provenance.txt":
            "e494906de1ff5e0e18aff0dad80a48f5570afbdb9b7f995e227245cd1168d07e",
    },
    ("three_ion_spin", "text"): {
        "report.txt":
            "57d9581d2465811941d6e0f7f9b04ac8580b796e77cc5853b1ab28c87857d6b6",
    },
    ("three_ion_spin_computed_noise", "csv"): {
        "estimation.csv":
            "7193459ee98ec5fd5f9b1251e7e08314697e5e06c5d81c7c70d506d12a3e181a",
        "field_table.csv":
            "049e0088d31052e1db7fc7734751192646b6254321e46b100d5f9a7733435c35",
        "geometry.csv":
            "2033503b1a441d3d55c2dc2201f148b61235bc8b10222f811a9d16bdfdf32813",
        "parity_trajectory_compensated_spin_down.csv":
            "068a6e99083c6c3ddedff4f0b8701104406a0359eeca1ad81c52bb78cadc4e75",
        "parity_trajectory_compensated_spin_up.csv":
            "6bd9e3c970648600741dd1d409af6d1dd5dda911a2ed21c045631216a071ee77",
        "parity_trajectory_free_evolution.csv":
            "a2c3d84f6c02670ebd8fa8b9f982011ce52f21957fb7d388e22b35de293629a6",
        "provenance.txt":
            "6b30204b401df5a4c3d61bfd36201150f9094caaff0ef9d647f6baaf1b1656e5",
    },
    ("three_ion_spin_computed_noise", "text"): {
        "report.txt":
            "5384f8ea0d45cc1dc030b473ef819365fb89e693a0ee85de579791464f1030e3",
    },
}


def test_cases_cover_every_shipped_config():
    shipped = {path.stem for path in CONFIG_DIR.glob("*.cfg")}
    assert shipped <= {name for name, _ in GOLDEN}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_output_bytes_unchanged(tmp_path, name, fmt):
    assert _digests(tmp_path, name, fmt) == GOLDEN[(name, fmt)]


@pytest.mark.parametrize("stale", ["longer", "one_byte"])
@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_rerun_over_stale_files_leaves_the_golden_bytes(tmp_path, name, fmt, stale):
    # a rerun writes over old files in place: a longer one must lose its tail,
    # a one-byte one must grow to the whole output
    stale_bytes = b"\xff" * 200_000 if stale == "longer" else b"\xff"
    out = tmp_path / f"{name}-{fmt}"
    out.mkdir()
    for file_name in GOLDEN[(name, fmt)]:
        (out / file_name).write_bytes(stale_bytes)
    assert _digests(tmp_path, name, fmt) == GOLDEN[(name, fmt)]
    if stale == "longer":
        assert max(path.stat().st_size for path in out.iterdir()) < len(stale_bytes)


SHIPPED = sorted((path.stem, fmt) for path in CONFIG_DIR.glob("*.cfg") for fmt in ("csv", "text"))


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
@pytest.mark.parametrize("name, fmt", SHIPPED)
def test_crlf_and_cr_line_ends_leave_the_golden_bytes(tmp_path, name, fmt, ending):
    config = tmp_path / f"{name}.cfg"
    config.write_bytes(_config_text(name).replace("\n", ending).encode("utf-8"))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "--format", fmt]) == 0
    assert _file_digests(out) == GOLDEN[(name, fmt)]


@pytest.mark.parametrize("name, fmt", SHIPPED)
def test_missing_nested_out_and_a_rerun_into_it_write_the_golden_bytes(tmp_path, name, fmt):
    config = tmp_path / f"{name}.cfg"
    config.write_text(_config_text(name), encoding="utf-8")
    out = tmp_path / "a" / "b" / "out"
    for _ in range(2):   # the first run makes the directories, the second finds them
        assert main(["--config", str(config), "--out", str(out), "--format", fmt]) == 0
        assert _file_digests(out) == GOLDEN[(name, fmt)]


# numpy's dispatch to the x86-64-v3 and v4 (AVX2, AVX-512) loops switched off:
# every ufunc runs its baseline build
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

_MAIN_EACH = """\
import json, sys
from iongradim.cli import main
print(json.dumps([main(run) for run in json.loads(sys.argv[1])]))
"""


def test_output_bytes_unchanged_under_baseline_simd_dispatch(tmp_path, monkeypatch,
                                                             fresh_python):
    # the field table, the double-well scan (np.sin) and the crystal solve run
    # numpy ufuncs: the bytes they print must not depend on the dispatched loops
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", BASELINE_DISPATCH)
    runs = []
    for name, fmt in sorted(GOLDEN):
        config = tmp_path / f"{name}.cfg"
        config.write_text(_config_text(name), encoding="utf-8")
        runs.append(["--config", str(config), "--out", str(tmp_path / f"{name}-{fmt}"),
                     "--format", fmt])
    done = fresh_python(_MAIN_EACH, json.dumps(runs), timeout=120.0)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(runs)
    for name, fmt in sorted(GOLDEN):
        assert _file_digests(tmp_path / f"{name}-{fmt}") == GOLDEN[(name, fmt)], (name, fmt)


# The golden cases whose bytes pass through a log or cosine of rng (the
# Box-Muller radius and angle) or of estimation (each shot's even probability).
# protocol.parity_trajectory's np.cos is not nudged: it prints its phases.
LIBM_CASES = ["montecarlo_full_contrast_even", "montecarlo_full_contrast_odd", "montecarlo_noise",
              "montecarlo_noise_20k_shots", "three_ion_spin", "three_ion_spin_computed_noise"]
# Fixed before the first run: numpy documents at most 4 ulp of error for its
# SIMD float64 log and cos loops.
LIBM_ULPS = 4


def _ulps(k, direction):
    """Move each result k ulp toward direction; an exact zero (log 1) stays exact."""
    def nudge(x):
        moved = x
        for _ in range(k):
            moved = np.nextafter(moved, direction)
        return np.where(x == 0, x, moved)
    return nudge


class _NudgedNumpy:
    """numpy, with each np.log and np.cos result moved by nudge; a cosine stays in [-1, 1]."""

    def __init__(self, nudge):
        self._nudge = nudge

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, *args, **kwargs):
        return self._moved(np.log(*args, **kwargs), -np.inf, np.inf)

    def cos(self, *args, **kwargs):
        return self._moved(np.cos(*args, **kwargs), -1.0, 1.0)

    def _moved(self, result, lo, hi):
        moved = np.clip(self._nudge(result), lo, hi)
        if isinstance(result, np.ndarray):
            result[...] = moved   # in place: the caller may have passed it as out=
            return result
        return np.float64(moved)


def _libm_digests(tmp_path, monkeypatch, nudge, cases):
    numpy = _NudgedNumpy(nudge)
    monkeypatch.setattr(rng, "np", numpy)
    monkeypatch.setattr(estimation, "np", numpy)
    return {case: _digests(tmp_path, *case) for case in cases}


@pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
def test_libm_rounding_of_the_shot_path_leaves_the_golden_bytes(tmp_path, monkeypatch,
                                                                direction):
    nudge = _ulps(LIBM_ULPS, direction)
    assert np.array_equal(nudge(np.array([0.75, 0.0, -0.75])) - [0.75, 0.0, -0.75],
                          np.sign(direction) * LIBM_ULPS * np.array([2.0 ** -53, 0.0, 2.0 ** -53]))
    cases = [(name, fmt) for name in LIBM_CASES for fmt in ("csv", "text")]
    assert _libm_digests(tmp_path, monkeypatch, nudge, cases) == {c: GOLDEN[c] for c in cases}


@pytest.mark.parametrize("relative", [1e-3, -1e-3])
def test_a_relative_libm_error_of_1e_3_moves_the_20k_shot_counts(tmp_path, monkeypatch,
                                                                 relative):
    # the libm test has power: a larger error does reach the golden bytes
    case = ("montecarlo_noise_20k_shots", "csv")
    moved = _libm_digests(tmp_path, monkeypatch, lambda x: x * (1.0 + relative), [case])
    assert moved[case]["outcome_counts.csv"] != GOLDEN[case]["outcome_counts.csv"]


def test_the_20k_shot_case_maps_its_shots_through_the_pre_pass(tmp_path, monkeypatch):
    # so the libm tests above, and the baseline dispatch test, cover the
    # mapped kernel's polynomial pre-pass and its exact fallback
    blocks = []
    cheap_slots = estimation._Run._cheap_slots

    def counted(run, *args):
        slot, flagged = cheap_slots(run, *args)
        blocks.append((len(slot), int(np.count_nonzero(flagged))))
        return slot, flagged

    monkeypatch.setattr(estimation._Run, "_cheap_slots", counted)
    case = ("montecarlo_noise_20k_shots", "csv")
    assert _digests(tmp_path, *case) == GOLDEN[case]
    assert blocks == [(20000, 1)]   # one shot lies near a slot boundary and takes the exact path
