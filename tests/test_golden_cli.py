"""Golden CLI output: every command on small frozen jobs for the quadratic,
cubic and quartic fixtures, run in-process.  Each job's exit code and
stdout, with ``runtime_ms`` removed, must hash to the recorded sha256, so
a refactor that keeps the results keeps every byte."""

import hashlib
import json
import re

import pytest

from shintani.cli import main

Q2 = {"poly": [-2, 0, 1], "units": [["3", "2"]]}
Q5 = {"poly": [-5, 0, 1], "units": [["3/2", "1/2"]]}
CUBIC = {"poly": [-1, -3, 0, 1], "units": [["1", "2", "1"], ["0", "0", "1"]]}
WITNESS = {"poly": [-1, -3, 0, 1], "units": [["1", "2", "1"], ["3", "5", "2"]]}
QUARTIC = {"poly": [1, 1, -3, -1, 1],
           "units": [["1", "2", "1", "-1"], ["3", "3", "0", "-1"], ["2", "-3", "1", "0"]]}
P3 = {"hnf": [[1, 0, 2], [0, 1, 2], [0, 0, 3]]}

# (id, command, job, extra argv, sha256 of "<exit code>\n<stdout>")
JOBS = [
    ("cones-q2", "cones", {"field": Q2}, [],
     "7272c4bb4f55ed3ed779c5aeb6c31c2505efeb29cfc5f8879810f67f2fa3de1c"),
    ("cones-q5", "cones", {"field": Q5}, [],
     "a94ca6008c0f7c84d45a98e60e9d322f61426ead3434c0729e071eae1b027b57"),
    ("cones-cubic", "cones", {"field": CUBIC}, [],
     "b15ad8dc152e2f7820f2d7b1e1f5f1b4a0fe53efdcadfd31cf0792059a811639"),
    ("cones-witness", "cones", {"field": WITNESS}, [],
     "3827d512351381e755feb838b84cff8194f7b20568521c11a6989b4f537acac9"),
    ("cones-quartic", "cones", {"field": QUARTIC}, [],
     "c14fb4260554acd616aa64908852a225be087220c1bd5def7601d6cb7a8acd3c"),
    ("verify-q5", "verify", {"field": Q5, "samples": 20, "seed": 5}, [],
     "fe50aa356faa0e421954d4614f9f134c136e1a8dad5eb119abf2f1124c7ab81b"),
    ("verify-cubic", "verify", {"field": CUBIC, "samples": 20, "seed": 1}, [],
     "d2079637e3fbe0fe9b5261122678cfb7dc9f6fdc83865d8361aff1d94a4134b5"),
    ("verify-witness", "verify", {"field": WITNESS, "samples": 20, "seed": 2}, [],
     "b5e5335232d1917c4cd1eee450785a3bcc86a5f8045a1729b35b21b9d526d7c9"),
    ("verify-quartic", "verify", {"field": QUARTIC, "samples": 6, "seed": 3}, [],
     "8a6706686a112663d0b2e81591a5a9f377a208e6d4746ce549472009a4b185ad"),
    ("verify-cubic-threads", "verify", {"field": CUBIC, "samples": 8, "seed": 4},
     ["--threads", "2"],
     "b86628345b799a76cbc8dcbfe0c59ad3e93d8c68491de6b6810456285604ba94"),
    ("zeta-q2", "zeta", {"field": Q2, "s": 2.0, "target_error": 1e-6}, [],
     "7213b94cfca1b62712a0cb6b7a2c1d9af3440549445221c9672f00ce6f43d36c"),
    ("zeta-q2-ideals", "zeta", {"field": Q2, "s": 2.5, "target_error": 1e-5,
                                "ideals": [{"hnf": [[1, 5], [0, 7]]},
                                           {"hnf": [[3, 0], [0, 3]]}]}, [],
     "9c8ee3ed30175b926f2fe6974bc90af951594b9b8d0bd673399f31107ab75a12"),
    ("zeta-witness", "zeta", {"field": WITNESS, "s": 2.0, "target_error": 1e-3}, [],
     "ad0ce6f7a4f2410b4717f2276969b2ff90f5883e0adb4715ec41aa4e3c21a18a"),
    ("zeta-quartic", "zeta", {"field": QUARTIC, "s": 3.0, "target_error": 1e-3}, [],
     "23d4b68ee95bae692ff95a9eb1ac67d1cb804c9ce5595927696ed2499f89ff7a"),
    ("lfun-q2-conductor", "lfun", {"field": Q2, "s": 2.0, "target_error": 1e-5,
                                   "conductor": {"hnf": [[3, 0], [0, 3]]}}, [],
     "f303b57d49820062df644f5b44cf54a7adeb143a71b1ba0ae3c4045497436c03"),
    ("lfun-q2-character", "lfun", {"field": Q2, "s": 3.0, "target_error": 1e-5,
                                   "ideals": [{"hnf": [[1, 5], [0, 7]]}],
                                   "conductor": {"hnf": [[2, 0], [0, 2]]},
                                   "character": {"values": [[0, 1]]}}, [],
     "6fc0f0b997880a6ab0b29031c18b473817fea42c09f9f2c5c70af5909ae11b97"),
    ("lfun-quartic-conductor", "lfun", {"field": QUARTIC, "s": 3.0, "target_error": 1e-2,
                                        "conductor": {"hnf": [[2, 0, 0, 0], [0, 2, 0, 0],
                                                              [0, 0, 2, 0], [0, 0, 0, 2]]}},
     [],
     "e7d027b31ecd6a626501e2e6c727158893182ab983a9eb7d5bbc66291c569d92"),
    ("lfun-cubic-conductor", "lfun", {"field": CUBIC, "s": 2.0, "target_error": 1e-3,
                                      "conductor": P3}, [],
     "17f8bfaa054d00cd339bf8f566d1f6d074cb92ffe99dd0040431fcbfabe70104"),
    ("lfun-q2-conductor-s200", "lfun", {"field": Q2, "s": 200,
                                        "conductor": {"hnf": [[3, 0], [0, 3]]}}, [],
     "c2cb2d69f3deda2c6cbb2708a98f15a2abcf7840c3d6080cec7ccf2595079e21"),
    ("zeta-q2-ideal-s200", "zeta", {"field": Q2, "s": 200,
                                    "ideals": [{"hnf": [[3, 0], [0, 3]]}]}, [],
     "98321cd0b23acfaf28cf03302f375306b38b5b0e4aaf3ed2c3adf249c6b9529a"),
    ("regcheck-q2", "regcheck", {"field": Q2}, [],
     "e21b0023bb9c3b7a7a2fff31fe3fdf5a8ced7383ba81c0269b5846d45c6c1d59"),
    ("regcheck-witness", "regcheck", {"field": WITNESS}, [],
     "e21b0023bb9c3b7a7a2fff31fe3fdf5a8ced7383ba81c0269b5846d45c6c1d59"),
    ("regcheck-quartic", "regcheck", {"field": QUARTIC, "tolerance": 1e-20}, [],
     "eaa23ed825a5347584192381c588278a30746d350d58fd02ebe2492c24a20dfa"),
    ("oracle-q2", "oracle", {"field": Q2, "s": 2.0, "prime_cap": 2000}, [],
     "43c97309f10fb7ba3c3a495d8c108d8b4fc5bb62777ad03b22184a06a7363912"),
    ("oracle-cubic", "oracle", {"field": CUBIC, "s": 3.0, "prime_cap": 2000}, [],
     "d20335b42d71599b889bba327be7ac5314da1b0edc7f74627b80470def0c2885"),
    ("error-not-a-unit", "cones", {"field": {"poly": [-2, 0, 1], "units": [["1/2", "3"]]}},
     [],
     "a93fd0b434775ec7d97d8b3575117c307ea925d7cf51358b3246ef5c138efbc2"),
    ("error-unit-outside-order", "zeta", {"field": Q5, "s": 2.0, "target_error": 1e-3},
     [],
     "277fe97eecc854035c76d956bcf6eaf8a2255c748b79351877f16ce27a948e3f"),
]


@pytest.mark.parametrize("name, cmd, job, argv, digest", JOBS, ids=[j[0] for j in JOBS])
def test_cli_output_matches_its_golden_digest(tmp_path, capsys, name, cmd, job, argv, digest):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main([cmd, "--job", str(path), *argv])
    out = re.sub(r'"runtime_ms": \d+, ', "", capsys.readouterr().out)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, out
