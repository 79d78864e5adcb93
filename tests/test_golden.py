"""Byte identity of seeded CLI stdout.

Each command's in-process stdout is hashed and compared with a digest
recorded before the code it runs was refactored: `verify-algebra` before the
operator checks moved onto Pauli strings (the d = 1 tori before the checks
stopped building strings), `lattice` before the torus stored its edges as
arrays.  Commands whose output depends on LAPACK or on the numpy version
(`verify`, `bands`, `gap`) are left out: their last bits may differ between
supported builds, and `verify`'s `max_deviation` also between BLAS thread
counts on one build (`verify --d 2 --N 12 --draws 20` prints sha256
61c2e78f9a43... with one OpenBLAS thread and 9bd40b6386e6... with two), so
its bytes hold only at a fixed thread count.  One `verify` is kept,
recorded before the spin model was sized by its strings: on a one-cell torus
the sweep's deviation is 0.0, and at d = 16 it pins that the operator suite
stays skipped (null) where H's matrix is over the entry budget.
"""

import hashlib

import pytest

from kitaev_diamond import cli, lattice, spinham

GOLDEN = {
    ("verify-algebra", "--d", "2", "--seed", "0"):
        "1481c64592ab43a7e739847881e8ca6c30e2f3e16616cc0aef7f857f3e613ac7",
    ("verify-algebra", "--d", "3", "--seed", "0"):
        "efcde5644233917344076feef7f91f7d8d9ad8d0b998bc52a6a03c6241ada988",
    ("verify-algebra", "--d", "4", "--seed", "0"):
        "862604d0bf6bc72b812d8a2c4dfab89ff37c48c179491493205e438c9254a2e0",
    ("verify-algebra", "--d", "5", "--seed", "0"):
        "0401af0ca89656bdc64f95b0e1c988a568d3e6447a2c203494cf4cf4f5fdcc87",
    ("verify-algebra", "--d", "6", "--seed", "0"):
        "9cfec5c69f6259c335cf62e2cd926b9b8a4eecc6fc9fa4aa3b20b0cc849657ff",
    ("verify-algebra", "--d", "7", "--seed", "0"):
        "15db47e98412fbc248aa6510916a66e57effc943ffa9749ce25c218ea30d2b70",
    ("verify-algebra", "--d", "8", "--seed", "0"):
        "83c6c41001712c0493ab1d4cdf53e5d9bff47071611c9058da26c8970ffd7d6d",
    ("verify-algebra", "--d", "9", "--seed", "0"):
        "99892296476f7392cddb8d184fc6db92fedb4338f9a86932bdc3174fba6eb2f6",
    ("verify-algebra", "--d", "10", "--seed", "0"):
        "1d1a8fe29ea1d9ce1eced00d0e695814a2186771a330b24e02012181a407f6d6",
    ("verify-algebra", "--d", "11", "--seed", "0"):
        "4562635d3b1ea5937142df9e0522e80a4cb926c9d3c6fb69d5484c9cadb0fae3",
    ("verify-algebra", "--d", "12", "--seed", "0"):
        "da59381465baa8c572c0a5c567bbb6b4ac15fa51bdb807534429e2574bccedd7",
    ("verify-algebra", "--d", "13", "--seed", "0"):
        "5fb931f885539cb58b8fc0b378720d06c58d1ab81b3311bd76ea6549de273d62",
    ("verify-algebra", "--d", "14", "--seed", "0"):
        "fbaa11d5d0cfab1a1b7d93d1039da2ef8a1e16c0f556dd2d593630e07cfcbe3f",
    ("verify-algebra", "--d", "15", "--seed", "0"):
        "8120f86723bf80fc45ea0948196d5a802bb80c158512462a7126f482d987530f",
    ("verify-algebra", "--d", "2", "--N", "2"):
        "2f4dfd1f691b78ed5d50d71ca7e082f069d2a33ad9dc04d3cfad20c04a99c5b7",
    ("verify-algebra", "--d", "1", "--N", "3"):
        "0eba8e3f4b0af8dd2cbdc592ad8ea7ff4dddf82ca20f0d0e0d8277c7a9616260",
    ("verify-algebra", "--d", "1", "--N", "1"):
        "aa6b2ee3378f373ab5e39442add1bb2281e81d19eac89d8ebfdb178f0c17e6c2",
    ("verify-algebra", "--d", "1", "--N", "8"):
        "69dea8a273383cdc7ccafd0e951873ef8351065dcf706a3417e37d9d917cc4a1",
    ("verify-algebra", "--d", "3", "--N", "2"):
        "5ae9ecec0a46e24f6f219cd19d7641b9ee420f598ab15be450701c4348e15404",
    ("verify-algebra", "--d", "2", "--N", "3"):
        "6aa55ba62cfc96d96534893fe91ef4e2ceb279ad04928d0c27449b8da99075ae",
    ("verify-algebra", "--d", "4", "--N", "2"):
        "4685f09d86c271e35b2e61faa61398c62a959092c5ab1b885345b620dbe9c9d0",
    ("verify-algebra", "--d", "1", "--N", "20"):
        "be97b7d051e025ba51266b4dcd956fd50ba495350ff02533d71663ad45edf19e",
    ("verify", "--d", "16", "--N", "1", "--draws", "2"):
        "f1ab7c416e7ff78b2a1705238280a5318f3d3150a12db5b6757adaf428604b43",
    ("gapmap", "--d", "2", "--resolution", "40"):
        "ea6d0d8906a1ae8fa51a42162cf316faa3ed24a3eb8f1766c0adea559748713d",
    ("gapmap", "--d", "3", "--resolution", "40"):
        "03243796b85468272d77cb9875dfd694520d6ce8b4d7f0227f44e25111614c8d",
    # positions are exact integer sums plus one rounding of s*p, so these
    # bytes do not depend on the BLAS or numpy build
    ("lattice", "--d", "3", "--N", "2"):
        "a9cbe1296ad6059b969b8528b0e97b3fb0c0f2d92730947b528ac2da71662860",
    ("lattice", "--d", "2", "--N", "3"):
        "ee7cf5589577739c4df9037c968f90c7862e95b4a0b869c470babfa12db0a9c2",
    ("lattice", "--d", "1", "--N", "5"):
        "0e30a10c1288481dcd461b6cddf200896b3e7e1bb3ca0b46fee9465dcc21545f",
    # the benchmark's lattice command, recorded before the records were
    # printed from templates
    ("lattice", "--d", "3", "--N", "6"):
        "f2241cbb9bdad13ac9869598c9e764aa645e8e16fb5433b7d34b804046af0ecd",
}


@pytest.mark.parametrize(
    "argv", list(GOLDEN), ids=lambda argv: "_".join(argv).replace("--", "")
)
def test_stdout_digest(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_lattice_prints_without_the_library_dict(capsys, monkeypatch):
    """`lattice` prints from the torus's edge arrays: cli holds no torus_to_dict,
    and with lattice's broken the benchmark's command prints its pinned bytes."""

    def built(torus):
        raise AssertionError("lattice built the torus's dict")

    assert not hasattr(cli, "torus_to_dict")
    monkeypatch.setattr(lattice, "torus_to_dict", built)
    argv = ("lattice", "--d", "3", "--N", "6")
    assert cli.main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[argv]


def test_cold_and_warm_builder_memos_print_the_same_bytes(capsys):
    """verify-algebra prints the same bytes whether the memos of spin strings
    and of their identity-check facts start empty or already hold its torus."""

    def stdout(argv):
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out

    for d in range(2, 16):
        argv = ("verify-algebra", "--d", str(d), "--seed", "0")
        spinham._torus_strings.cache_clear()
        spinham._frame_facts.cache_clear()
        cold = stdout(argv)
        assert stdout(argv) == cold
        assert hashlib.sha256(cold.encode()).hexdigest() == GOLDEN[argv]
