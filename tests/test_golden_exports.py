"""Golden exports for every experiment kind through both CLI front doors.

Each case runs ``binsum.cli.main`` in-process twice against one cache
directory, first fresh and then from the cache, once with a JSON export and
once with a CSV export. A kind is declared once, in ``records.CSV_FIELDS``:
its parameter names are the options of its subcommands and of ``survey
--kind``, and its result names are read from the objects its runner in
``experiments.KINDS`` returns. The SHA-256 digests of the export bytes and
of the console output were recorded before that, when every runner and
subcommand spelled the names out by hand, so any refactor of the CLI, the
runners, the normalizers or the records has to keep them.
"""
import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from binsum.cli import main

CASES = {
    # survey --kind: every kind, and every option it reads
    "survey-min-rep": ["survey", "--kind", "min-rep", "--k", "3", "--n", "17", "--h-max", "4"],
    "survey-min-rep-distinct": ["survey", "--kind", "min-rep", "--k", "2", "--n", "40",
                                "--mode", "distinct"],
    "survey-survey-H": ["survey", "--kind", "survey-H", "--k", "3", "--max", "2000"],
    "survey-survey-H-capped": ["survey", "--kind", "survey-H", "--k", "3", "--n-min", "20",
                               "--max", "5000", "--cap", "4"],
    "survey-survey-H-distinct": ["survey", "--kind", "survey-H", "--k", "2", "--n-min", "5",
                                 "--max", "500", "--mode", "distinct", "--cap", "6",
                                 "--max-witnesses", "3"],
    "survey-energy": ["survey", "--kind", "energy", "--k", "2", "--h", "3",
                      "--index-bound", "30", "--top", "3"],
    "survey-energy-x": ["survey", "--kind", "energy", "--k", "2", "--h", "2", "--x", "5000",
                        "--convention", "index", "--sequence", "power"],
    "survey-restricted-sums": ["survey", "--kind", "restricted-sums", "--k", "2", "--h", "2",
                               "--x", "1000", "--c", "1/3"],
    "survey-restricted-sums-power": ["survey", "--kind", "restricted-sums", "--k", "3",
                                     "--h", "3", "--x", "2000", "--sequence", "power"],
    "survey-coverage-threshold": ["survey", "--kind", "coverage-threshold", "--k", "2",
                                  "--r-max", "300", "--memory-budget", "10000000"],
    "survey-exponent-fit": ["survey", "--kind", "exponent-fit", "--k", "2", "--h", "2",
                            "--x", "100", "--x", "1000", "--x", "10000"],
    "survey-asymptotic-ratio": ["survey", "--kind", "asymptotic-ratio", "--k", "3",
                                "--x", "100000"],
    # the per-kind subcommands
    "min-rep": ["min-rep", "--k", "3", "--n", "17", "--h-max", "5"],
    "min-rep-distinct": ["min-rep", "--k", "3", "--n", "1000", "--mode", "distinct"],
    "energy": ["energy", "--k", "2", "--h", "3", "--index-bound", "30", "--top", "3"],
    "energy-x": ["energy", "--k", "2", "--h", "2", "--x", "5000", "--convention", "index",
                 "--sequence", "power"],
    "energy-x-value": ["energy", "--k", "2", "--h", "2", "--x", "5000"],
    "energy-restricted": ["energy", "--k", "2", "--h", "2", "--x", "1000", "--c", "1/3"],
    "coverage": ["coverage", "--r-max", "300"],
    "fit": ["fit", "--k", "2", "--h", "2", "--x", "100", "--x", "1000", "--x", "10000",
            "--sequence", "power"],
    "table": ["table", "--k", "3", "--x", "100", "--x", "100000"],
    # decompose writes its own flat export and never uses the cache
    "decompose": ["decompose", "--k", "2", "--n", "11"],
}

# (case, format) -> (digest of the export, digest of the fresh and cached console output)
GOLDEN = {
    ("coverage", "json"): (
        "a7971c6f16f74b0dc9343b3a232709335cd36061a2b26727d556bf0ff0adf61c",
        "74248746ff287fcf073957dd6167529fe791093219ac0ab32e395d7c68de5d27"),
    ("coverage", "csv"): (
        "fb97092c7e440fa4e7efe9d314d6999fdce543ff5845c3a34f4164d7a27ad367",
        "74248746ff287fcf073957dd6167529fe791093219ac0ab32e395d7c68de5d27"),
    ("decompose", "json"): (
        "246e191d0b036116b2392182393c29bb44b6a65d504b64480d5d8de1988cd2e7",
        "bd6e48af6c4243e6b679e956ee8aed09a17968b4a78642cb72e28679bb9ef848"),
    ("decompose", "csv"): (
        "7400d39b9809c85a34c60049940a375055884c191f5c1c21b627e4f72128d37c",
        "bd6e48af6c4243e6b679e956ee8aed09a17968b4a78642cb72e28679bb9ef848"),
    ("energy", "json"): (
        "e81fe2a4100c0469be8e4ff8594749b315f54950551f5e88a2e0762bddf0154b",
        "5501eeb26480fdd46f82cb8012fbb2997b4af90f149750341df778ed20308133"),
    ("energy", "csv"): (
        "f1ace2c8a4ae47d42a62535c2baa6332ff0a4fba366df4fa5ed67f37f105ec36",
        "5501eeb26480fdd46f82cb8012fbb2997b4af90f149750341df778ed20308133"),
    ("energy-restricted", "json"): (
        "6cfa523a4c2273262da15959423648a389a2e3ad58d416fd6698840942ef8cbf",
        "b40667e4667d962653f665806967cd596c9bba802c2bfb92a41f074ca5132bdd"),
    ("energy-restricted", "csv"): (
        "e32392c8eca96400bc2ff2994349fcce6aaa2c2f33c7585a47f63e2b2c2b4e1c",
        "b40667e4667d962653f665806967cd596c9bba802c2bfb92a41f074ca5132bdd"),
    ("energy-x", "json"): (
        "738d40237b475cf3c65d45c956c7aea0864da626c02fa51f0780b5fc15ae05a2",
        "a0eaabea82a8326b3aa5c1c68ac5f2813c74093a132950053541100ed74ca9b4"),
    ("energy-x", "csv"): (
        "ca70320b006700a8bfe73326bdd096c1336f6acb3938002263763ca9f7334695",
        "a0eaabea82a8326b3aa5c1c68ac5f2813c74093a132950053541100ed74ca9b4"),
    ("energy-x-value", "json"): (
        "d6e1a87a234edc638596111b37a841db16e1dd7514e44a3866a43dbf74c9f7e3",
        "7ae7df6d81b5cadfe4bb27014b4a598fff8148c6984965b55529d27845c40264"),
    ("energy-x-value", "csv"): (
        "f1856a7231e74152a33bb22dfd0cafb44562df753907defb46cc0a31466f79ec",
        "7ae7df6d81b5cadfe4bb27014b4a598fff8148c6984965b55529d27845c40264"),
    ("fit", "json"): (
        "9bd0c4296487fc40b1f9a387584eba963a1609f982f5220763cb8226980b51fc",
        "62ea63c3e1bf925bbaa5050e944382e52b258e10a85fdbc78cd612889fbd989b"),
    ("fit", "csv"): (
        "4d60013075d0ffcb548655b52368413d8754adb2a3be6f613c7f28a658cc783c",
        "62ea63c3e1bf925bbaa5050e944382e52b258e10a85fdbc78cd612889fbd989b"),
    ("min-rep", "json"): (
        "05b50b9782c5cf979212980344aeaee9be7723f93205978cd15335ad415285fa",
        "2ee5a7ac1a59c278d1f921423d5a62faa86627c1cb35dcf41ebcd2b44504dbc6"),
    ("min-rep", "csv"): (
        "623da4074d5e7f1e504794f770e8d86045b478e246d6299ffefe1f47ba9f5bf1",
        "2ee5a7ac1a59c278d1f921423d5a62faa86627c1cb35dcf41ebcd2b44504dbc6"),
    ("min-rep-distinct", "json"): (
        "ae38e7577b69f6741651578ff4a0f216d2a035781b9a47e2885585d2f5c0e08c",
        "9d52d75fb3d982a3dd6b30a2cf2a75573e4cdeb6f73896f780005f85be0fa10c"),
    ("min-rep-distinct", "csv"): (
        "943aeaaec0dacd727178bb450cb13bf64b00ee016ca102c0e6030827c8fcfc55",
        "9d52d75fb3d982a3dd6b30a2cf2a75573e4cdeb6f73896f780005f85be0fa10c"),
    ("survey-asymptotic-ratio", "json"): (
        "6b2a41623d474d1fce4ab2f5261139eb09a9d3a47aefafbae603c1014ddd7ea2",
        "6034717d83ae2894183889dfab9f79d434fa9a6c21cb327e69ff911830d04e0b"),
    ("survey-asymptotic-ratio", "csv"): (
        "8921f3fe2ffd296f5fcb06b3b4c0c773605f052bef544bcf9f65d016e0d354c6",
        "6034717d83ae2894183889dfab9f79d434fa9a6c21cb327e69ff911830d04e0b"),
    ("survey-coverage-threshold", "json"): (
        "a7971c6f16f74b0dc9343b3a232709335cd36061a2b26727d556bf0ff0adf61c",
        "74248746ff287fcf073957dd6167529fe791093219ac0ab32e395d7c68de5d27"),
    ("survey-coverage-threshold", "csv"): (
        "fb97092c7e440fa4e7efe9d314d6999fdce543ff5845c3a34f4164d7a27ad367",
        "74248746ff287fcf073957dd6167529fe791093219ac0ab32e395d7c68de5d27"),
    ("survey-energy", "json"): (
        "e81fe2a4100c0469be8e4ff8594749b315f54950551f5e88a2e0762bddf0154b",
        "5501eeb26480fdd46f82cb8012fbb2997b4af90f149750341df778ed20308133"),
    ("survey-energy", "csv"): (
        "f1ace2c8a4ae47d42a62535c2baa6332ff0a4fba366df4fa5ed67f37f105ec36",
        "5501eeb26480fdd46f82cb8012fbb2997b4af90f149750341df778ed20308133"),
    ("survey-energy-x", "json"): (
        "738d40237b475cf3c65d45c956c7aea0864da626c02fa51f0780b5fc15ae05a2",
        "a0eaabea82a8326b3aa5c1c68ac5f2813c74093a132950053541100ed74ca9b4"),
    ("survey-energy-x", "csv"): (
        "ca70320b006700a8bfe73326bdd096c1336f6acb3938002263763ca9f7334695",
        "a0eaabea82a8326b3aa5c1c68ac5f2813c74093a132950053541100ed74ca9b4"),
    ("survey-exponent-fit", "json"): (
        "dfda405d9af60a434c615160666784adeb6f1f8dc118f41055e227d8e48011a4",
        "96c84f0b022c8b2b0d1957e162ca806667004ac2594e4983f59a9e1022c4313c"),
    ("survey-exponent-fit", "csv"): (
        "d6168ad79b20500587cc80922388a0525606139b11ff01ddb14101419a19437c",
        "96c84f0b022c8b2b0d1957e162ca806667004ac2594e4983f59a9e1022c4313c"),
    ("survey-min-rep", "json"): (
        "4848c3feef20a34ede7814d891171050de6a43993f069c25657030ee3d5a3278",
        "22e16383982272bd31ae06105f595dc7db97dc6ece1556c48eea99b5a9bdfbcb"),
    ("survey-min-rep", "csv"): (
        "24bffa3dfb55bd3721bf7f93adb0144191c4e0e008722ff34de3798fd487a0e2",
        "22e16383982272bd31ae06105f595dc7db97dc6ece1556c48eea99b5a9bdfbcb"),
    ("survey-min-rep-distinct", "json"): (
        "6b1d71158327a23e3b1fb2ae48953a67778e86a82ab71f564a554c071dc93106",
        "776e33f716a1b876f8cc3517b64c4434822f0710f273aee4d5abfbd88513d62b"),
    ("survey-min-rep-distinct", "csv"): (
        "02256e732a37c13747cfc2581d4618a6925fec1218bba8af3e19bdb12d43d14b",
        "776e33f716a1b876f8cc3517b64c4434822f0710f273aee4d5abfbd88513d62b"),
    ("survey-restricted-sums", "json"): (
        "6cfa523a4c2273262da15959423648a389a2e3ad58d416fd6698840942ef8cbf",
        "b40667e4667d962653f665806967cd596c9bba802c2bfb92a41f074ca5132bdd"),
    ("survey-restricted-sums", "csv"): (
        "e32392c8eca96400bc2ff2994349fcce6aaa2c2f33c7585a47f63e2b2c2b4e1c",
        "b40667e4667d962653f665806967cd596c9bba802c2bfb92a41f074ca5132bdd"),
    ("survey-restricted-sums-power", "json"): (
        "09acb4e30347e8f398e2eaff49add79cd0ad94deaeca92cfb7d7fee81ecd081f",
        "806cf199acfc846317bf00c675d059293afe2b2d986a1573344b61b40322148a"),
    ("survey-restricted-sums-power", "csv"): (
        "c6e8f5554c0771e4e77f037a7f055d9331149641f86f37ecb88655b63880ed9e",
        "806cf199acfc846317bf00c675d059293afe2b2d986a1573344b61b40322148a"),
    ("survey-survey-H", "json"): (
        "0fae4ea1af3598a434e8a13b2f6f6a9e9b12794d8dd0a5bf504f2e53d06e5d3e",
        "f42b0e39c284c719d65ac7605e28391dce6260545012ec25901d363b43616412"),
    ("survey-survey-H", "csv"): (
        "59134b11fbc15154982eaed071d1747c29458af72ff75e0b022f4ab9331cc543",
        "f42b0e39c284c719d65ac7605e28391dce6260545012ec25901d363b43616412"),
    ("survey-survey-H-capped", "json"): (
        "74b3ca40c6c819815823a82f0078054f31a1b7cd97b81a154a34dc6c46eb72c9",
        "e83c6bd8e7c718374a573abec2d6167e6d540a0aa7606d9ce032be4eb75a9868"),
    ("survey-survey-H-capped", "csv"): (
        "cb616a6295100ff8c884bc95b40a0b8076ecb5b7bf1aa4a1a36cd9bf2a4585aa",
        "e83c6bd8e7c718374a573abec2d6167e6d540a0aa7606d9ce032be4eb75a9868"),
    ("survey-survey-H-distinct", "json"): (
        "8f3b867d3dc4081878bff346340379916e156c7404fcb242177e72c0aa60c322",
        "cfdd13fb1f294c8d3a3272c6735b4acc082d723bfd93f2f17e00f22c059dcf0c"),
    ("survey-survey-H-distinct", "csv"): (
        "52bc90eb1a38c19f92c828df1222c83409b981f6252fdf4dec86462359b08054",
        "cfdd13fb1f294c8d3a3272c6735b4acc082d723bfd93f2f17e00f22c059dcf0c"),
    ("table", "json"): (
        "3cd363157a5be738a92f80ba60fa25e78f2d34208d8a49e5590ac410ae8d6e3c",
        "e539629d7b2687718c33693954ca00a01ae0a1ddacdc67a145f6c5a85ab7b7e4"),
    ("table", "csv"): (
        "66f6b7588096eaf227dbf7a245e0db241c06f6e991cae988168ae33e5039320e",
        "e539629d7b2687718c33693954ca00a01ae0a1ddacdc67a145f6c5a85ab7b7e4"),

}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: str, fmt: str, tmp_path) -> tuple[list[str], list[bytes]]:
    """Console output (with the export path replaced) and export bytes of a
    fresh run and a repeated run of one case."""
    out = tmp_path / fmt / f"out.{fmt}"
    argv = CASES[case] + ["--cache-dir", str(tmp_path / fmt / "cache"),
                          "--format", fmt, "--out", str(out)]
    console, exports = [], []
    for _ in range(2):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert (code, stderr.getvalue()) == (0, ""), (case, fmt)
        console.append(stdout.getvalue().replace(str(out), "OUT"))
        exports.append(out.read_bytes())
        out.unlink()
    return console, exports


def digests(console: list[str], exports: list[bytes]) -> tuple[str, str]:
    return _digest(exports[0]), _digest("\0".join(console).encode())


@pytest.mark.parametrize("case", sorted(CASES))
def test_exports_match_golden_digests(case, tmp_path):
    for fmt in ("json", "csv"):
        console, exports = run_case(case, fmt, tmp_path)
        fresh, repeat = console
        assert "[cached]" not in fresh
        assert ("[cached]" in repeat) != case.startswith("decompose")
        assert exports[0] == exports[1]
        assert digests(console, exports) == GOLDEN[case, fmt]
