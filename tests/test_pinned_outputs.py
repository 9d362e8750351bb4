"""Pinned sha256 digests of console-command outputs, each run through
cli.main into a temporary file.

Every row of PINS is one command: its name, the extension of its digest,
the argv after `perml1` (the runner appends `--out`) and the sha256.  A
`.masked` digest is of the JSON report with wall_time_ms dropped:
json.dumps of the rest plus a newline.  The other digests are of the file
as written.
"""

import hashlib
import json

import pytest

from conftest import masked

from perml1.cli import main

PINS = [
    # csv.writer's bytes, which the vectorised formatter reproduces
    ("oracle5", "csv", "oracle --n 5",
     "68ccee44b48160dbd0cc8b85b6c12b4341b80f2608218a77c544ec0d175f2a33"),
    # the same at n = 9, across nine ranges of 8! rows
    ("oracle9", "csv", "oracle --n 9",
     "b44a1aa5d6815583e50a294839c7a82dee6087456f95f851c671366748a2e4dc"),
    # a word at degree 9, checked against its BFS floor
    ("synth9", "json", "synth --perm 8,6,7,3,0,5,1,2,4 --check",
     "9f64c435def177c0673db813077804502fe7a4b199110510987661067153b716"),
    # a seeded element at degree 64: 4,207 letters, where --check finds no BFS floor
    ("synth64", "json",
     "synth --perm 21,52,22,27,29,18,47,10,20,62,3,63,57,30,8,15,19,23,33,36,55,54,37,46,35,31,32,24,38,50,58,42,"
     "14,16,2,6,11,4,0,59,53,56,49,28,26,5,9,41,44,12,48,61,51,45,17,13,1,43,34,25,39,40,7,60 --check",
     "2b34a7d1b4745a6320e01a0dd898867d9713d7f09a57b589d790593b4c733f4b"),
    # a per-shift breakdown at degree 40, byte for byte
    ("formula40", "json",
     "formula --perm 3,7,38,9,12,11,25,19,34,35,30,36,24,31,17,10,5,21,27,6,20,1,4,39,16,0,26,14,23,28,32,22,8,13,"
     "18,15,2,33,37,29",
     "0db1f2b6c6c75cd8977d8e4d5600449c68de67e08f90ee6ca04b06f7473be724"),
    # a formula walk of 2,000 walkers at degree 40
    ("drift40", "json", "drift --n 40 --horizon 10 --trials 2000 --seed 3",
     "12ed7f406c7d8ce4e3cf2f69334ef27e557d67555078da098484ae9e6b8d2d38"),
    # a BFS-proxy walk of 5,000 walkers on Sym_9
    ("drift9", "json", "drift --n 9 --horizon 30 --trials 5000 --seed 3 --proxy bfs",
     "1a3df512258e79b64d9328ecb5d59bf039b94bbe4612c46072817581ebb47259"),
    # the same four-step, which reads the rank-delta table's t, c and c^-1 entries in another mix
    ("drift9four", "json", "drift --n 9 --horizon 30 --trials 5000 --seed 3 --proxy bfs --four-step",
     "d4c4e919ef997cc44c2866a5d915185854ed80cef24d667ecd25c3a7d1de7de0"),
    # a four-step formula walk of 500 walkers at degree 300: uint16 rows, 473 distinct states by step 40
    ("drift300", "json", "drift --n 300 --horizon 40 --trials 500 --seed 7 --four-step",
     "4fdde2204b3a70968a5bae980e3220a2dd66237e70b0393e137fb30eba5bd04a"),
    # 1,000 walkers among Sym_3's six states: 40 steps scored in three kernel calls of 16, 16 and 8 pending
    # steps, each call deduplicating the states across its steps
    ("drift3", "json", "drift --n 3 --horizon 40 --trials 1000 --seed 3",
     "7923ee7107082bbb3bb3c5c0c6e27e929009f3467222ca2eb74cba3248221362"),
    # the sampled exact audit
    ("audit8", "masked", "audit --n 8 --sample-size 20000 --seed 5",
     "101050a8645f06474e87021e00f3152b96fbb0e281fe6ff208aa11e6ba3b30ad"),
    # envelope audits: int8 rows in both closed forms and in the witnesses' window count
    ("envelope20", "masked", "audit --n 20 --mode envelope --sample-size 5000 --seed 3",
     "eef6105118246f3d28494271e7260d01a8259c901e0af7d162e1e9e2a6c4363c"),
    # int16 rows
    ("envelope200", "masked", "audit --n 200 --mode envelope --sample-size 2000 --seed 3",
     "d81c3d9a69b6f5f2a5ee7c300a6921bea398fbd81c7a7046201bc518cc1b966e"),
    # the witness re-check sorts the identity's windows and searches the witnesses' in them one interval length
    # at a time: 700 lengths, about a second in all
    ("envelope700", "masked", "audit --n 700 --mode envelope --sample-size 2000 --seed 3",
     "97ce7d2375dfe33ee189b73646ab040f7f2f4d57cc6f73a3a3f358614a03454d"),
    # degree 576: one int16 formula-kernel row per (weight, top bit) class, 78 rows
    ("cube12", "masked", "cube --n 12",
     "5b9bafe8ce50cfe08f59737a3c5db730b4d69922566d0189f0a257b8b44478cf"),
    # degree 1,600: 210 class rows
    ("cube20", "masked", "cube --n 20",
     "5421e75f898b13c77df14563577924f2a98ba16a3e79b21c50ddf4c3b427ef73"),
]


@pytest.mark.parametrize("name, ext, argv, digest", PINS, ids=[f"{name}.{ext}" for name, ext, *_ in PINS])
def test_digest(name, ext, argv, digest, tmp_path):
    out = tmp_path / name
    assert main([*argv.split(), "--out", str(out)]) == 0
    data = (json.dumps(masked(json.loads(out.read_text()))) + "\n").encode() if ext == "masked" else out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
